"""The config schema interpreter: each keyword on a passing and a failing
document, the reading of JSON types, ``oneOf`` reporting, and every sample
config (the configs the golden results are run from)."""

import json
from pathlib import Path

import pytest

from diraclab import schemas
from diraclab.cli import _HANDLERS
from diraclab.errors import UsageError
from diraclab.schemas import (SPECTRUM_CONFIG_SCHEMA, SPECTRUM_SOURCE_SCHEMA,
                              validate_config)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
KEYWORDS = {"type", "required", "properties", "additionalProperties", "items",
            "prefixItems", "minItems", "maxItems", "minimum", "exclusiveMinimum",
            "maximum", "enum", "oneOf"}
CIRCLE = {"length": 6.0, "delta": 0.5, "truncation": 3}


def error_of(doc, schema):
    """The message validate_config raises for ``doc``, without its label."""
    with pytest.raises(UsageError) as excinfo:
        validate_config(doc, schema, "test")
    text = str(excinfo.value)
    assert text.startswith("invalid test config at ")
    return text[len("invalid test config at "):]


# (id, schema, a passing document, a failing document, "<path>: <message>")
KEYWORD_TABLE = [
    ("type-object", {"type": "object"}, {}, [],
     "(root): [] is not of type 'object'"),
    ("type-array", {"type": "array"}, [], {}, "(root): {} is not of type 'array'"),
    ("type-string", {"type": "string"}, "a", 1,
     "(root): 1 is not of type 'string'"),
    ("type-boolean", {"type": "boolean"}, False, 0,
     "(root): 0 is not of type 'boolean'"),
    ("type-number", {"type": "number"}, 2.5, "2.5",
     "(root): '2.5' is not of type 'number'"),
    ("type-integer", {"type": "integer"}, 3, 1.5,
     "(root): 1.5 is not of type 'integer'"),
    ("required", {"required": ["spectrum"]}, {"spectrum": 1}, {"count": 1},
     "(root): 'spectrum' is a required property"),
    ("properties", {"properties": {"count": {"type": "integer"}}}, {"count": 1},
     {"count": "1"}, "count: '1' is not of type 'integer'"),
    ("additional-properties",
     {"properties": {"a": {}}, "additionalProperties": False}, {"a": 1},
     {"a": 1, "c": 2, "b": 3},
     "(root): Additional properties are not allowed ('b', 'c' were unexpected)"),
    ("items", {"items": {"type": "number"}}, [1, 2.5], [1, 2.5, None],
     "2: None is not of type 'number'"),
    ("prefix-items", {"prefixItems": [{"type": "number"}, {"type": "integer"}]},
     [0.5, 2, "anything"], [0.5, 1.5], "1: 1.5 is not of type 'integer'"),
    ("min-items", {"minItems": 2}, [1, 2], [1], "(root): [1] is too short"),
    ("min-items-one", {"minItems": 1}, [1], [], "(root): [] should be non-empty"),
    ("max-items", {"maxItems": 2}, [1, 2], [1, 2, 3],
     "(root): [1, 2, 3] is too long"),
    ("minimum", {"minimum": 64}, 64, 63,
     "(root): 63 is less than the minimum of 64"),
    ("exclusive-minimum", {"exclusiveMinimum": 0}, 1e-300, 0.0,
     "(root): 0.0 is less than or equal to the minimum of 0"),
    ("maximum", {"maximum": 10000}, 10000.0, 10001,
     "(root): 10001 is greater than the maximum of 10000"),
    ("enum", {"enum": ["exponential", "constant"]}, "constant", "sampled",
     "(root): 'sampled' is not one of ['exponential', 'constant']"),
    ("one-of", {"oneOf": [{"type": "string"}, {"type": "integer"}]}, 3, 2.5,
     "(root): 2.5 is not valid under exactly one of the given schemas"),
    ("nested-path",
     {"properties": {"a": {"items": {"properties": {"b": {"minimum": 1}}}}}},
     {"a": [{"b": 1}]}, {"a": [{"b": 1}, {"b": 0}]},
     "a/1/b: 0 is less than the minimum of 1"),
]


@pytest.mark.parametrize("schema,good,bad,expected",
                         [row[1:] for row in KEYWORD_TABLE],
                         ids=[row[0] for row in KEYWORD_TABLE])
def test_keyword_passes_and_fails(schema, good, bad, expected):
    assert validate_config(good, schema, "test") is good
    assert error_of(bad, schema) == expected


def test_the_table_covers_every_keyword_the_schemas_use():
    def keywords(schema):
        subs = [*schema.get("properties", {}).values(),
                *schema.get("prefixItems", []), *schema.get("oneOf", [])]
        if "items" in schema:
            subs.append(schema["items"])
        return set(schema).union(*map(keywords, subs))

    used = set().union(*(keywords(getattr(schemas, name))
                         for name in schemas.__all__ if name.endswith("_SCHEMA")))
    assert used <= KEYWORDS
    tabled = set().union(*(keywords(row[1]) for row in KEYWORD_TABLE))
    assert tabled == KEYWORDS


# (schema, document, passes): the reading of JSON types
TYPE_TABLE = [
    ({"type": "integer"}, 3.0, True),
    ({"type": "integer"}, 1e300, True),
    ({"type": "integer"}, 10**400, True),
    ({"type": "integer"}, True, False),
    ({"type": "number"}, True, False),
    ({"type": "number"}, 3, True),
    ({"type": "boolean"}, 1, False),
    ({"enum": [0, 0.5]}, 0.0, True),
    ({"enum": [0, 0.5]}, True, False),
    ({"enum": [0, 0.5]}, False, False),
    ({"enum": [True]}, 1, False),
    ({"enum": ["a"]}, ["a"], False),
    # each keyword applies only to values of its own type
    ({"minimum": 5}, "abc", True),
    ({"minimum": 5}, True, True),
    ({"exclusiveMinimum": 0}, [], True),
    ({"maximum": 5}, "abcdef", True),
    ({"minItems": 3}, "ab", True),
    ({"maxItems": 0}, {"a": 1}, True),
    ({"required": ["a"]}, [], True),
    ({"additionalProperties": False}, [1], True),
    ({"properties": {"0": {"type": "string"}}}, [1], True),
    ({"items": {"type": "string"}}, {"a": 1}, True),
    ({"prefixItems": [{"type": "string"}]}, {"0": 1}, True),
]


@pytest.mark.parametrize("schema,doc,passes", TYPE_TABLE, ids=[
    f"{json.dumps(schema, separators=(',', ':'))}-{doc!r:.20}"
    for schema, doc, _ in TYPE_TABLE])
def test_json_types_read_as_json_schema_reads_them(schema, doc, passes):
    if passes:
        assert validate_config(doc, schema, "test") is doc
    else:
        assert error_of(doc, schema).startswith("(root): ")


@pytest.mark.parametrize("source", [
    {"circle": CIRCLE},
    {"file": "listing.json"},
    {"entries": [[0.0, 1], [1.5, 2]], "symmetric": False, "omitted_abs_min": 2.0},
], ids=["circle", "file", "listing"])
def test_each_spectrum_source_passes(source):
    assert validate_config(source, SPECTRUM_SOURCE_SCHEMA, "test") is source


# (source, "<path>: <message>") for a spectrum source valid under no branch
@pytest.mark.parametrize("source,expected", [
    ({"circle": {**CIRCLE, "length": -1.0}},
     "circle/length: -1.0 is less than or equal to the minimum of 0"),
    ({"circle": {**CIRCLE, "delta": 1}}, "circle/delta: 1 is not one of [0, 0.5]"),
    ({"file": 3}, "file: 3 is not of type 'string'"),
    ({"file": "a.json", "extra": 1},
     "(root): Additional properties are not allowed ('extra' was unexpected)"),
    # the deepest error of the branch whose required names are held
    ({"entries": [[[0.0, 1]]], "symmetric": True},
     "entries/0/0: [0.0, 1] is not of type 'number'"),
    ({"entries": [[0.0, 0.5]], "symmetric": True},
     "entries/0/1: 0.5 is not of type 'integer'"),
    # no branch's, or two branches', required names are held
    ({}, "(root): {} is not valid under exactly one of the given schemas"),
    ({"entries": [[0.0, 1]]}, "(root): {'entries': [[0.0, 1]]} is not valid "
     "under exactly one of the given schemas"),
    ({"circle": CIRCLE, "file": "a.json"},
     f"(root): {{'circle': {CIRCLE!r}, 'file': 'a.json'}} is not valid under "
     "exactly one of the given schemas"),
], ids=["negative-length", "bad-delta", "file-not-text", "file-extra-key",
        "nested-entry", "fractional-multiplicity", "empty", "no-symmetric",
        "circle-and-file"])
def test_spectrum_source_reports_its_held_branch(source, expected):
    assert error_of(source, SPECTRUM_SOURCE_SCHEMA) == expected


def test_negative_circle_length_is_reported_at_its_config_path():
    doc = {"profile": {"kind": "exponential", "m": 2, "domain_length": 1.0},
           "count": 1, "spectrum": {"circle": {**CIRCLE, "length": -1.0}}}
    assert error_of(doc, SPECTRUM_CONFIG_SCHEMA) == (
        "spectrum/circle/length: -1.0 is less than or equal to the minimum of 0")


def test_two_valid_branches_fail_one_of():
    schema = {"oneOf": [{"type": "number"}, {"type": "integer"}]}
    assert validate_config(1.5, schema, "test") == 1.5
    assert error_of(3, schema) == (
        "(root): 3 is not valid under exactly one of the given schemas")


def test_the_shallowest_error_is_reported():
    doc = {"profile": {"kind": "exponential", "m": 1, "domain_length": 1.0},
           "spectrum": {"circle": CIRCLE}}
    assert error_of(doc, SPECTRUM_CONFIG_SCHEMA) == (
        "(root): 'count' is a required property")


@pytest.mark.parametrize("config", sorted(p.stem for p in CONFIGS.glob("*.json")))
def test_sample_config_passes(config):
    doc = json.loads((CONFIGS / f"{config}.json").read_text(encoding="utf-8"))
    schema = _HANDLERS[config.split("_")[0]][1]
    assert validate_config(doc, schema, config) is doc
