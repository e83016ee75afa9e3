"""JSON Schemas for configuration files and on-disk documents.

Every CLI subcommand validates its ``--config`` document against the schema
here before touching any numerics, so malformed input fails fast with exit
code 2.  The same profile/spectrum fragments describe the standalone JSON
files the package reads and writes.

The schemas are plain data, read by a small interpreter in this module of the
JSON Schema keywords they use: ``type`` (object, array, string, boolean,
number, integer), ``required``, ``properties``, ``additionalProperties:
false``, ``items``, ``prefixItems``, ``minItems``, ``maxItems``, ``minimum``,
``exclusiveMinimum``, ``maximum``, ``enum`` and ``oneOf``.  JSON types are
read as JSON Schema reads them: 3.0 is an integer, a bool is neither a number
nor an integer (nor equal to 0 or 1 in an ``enum``), and each keyword applies
only to values of its own type.
"""

from __future__ import annotations

from .errors import (MAX_SOBOLEV_ORDER, MAX_TERMS, MIN_SPLINE_ORDER,
                     UsageError, is_integer, is_number)

__all__ = [
    "PROFILE_SCHEMA", "SPECTRUM_DOC_SCHEMA", "SPECTRUM_SOURCE_SCHEMA",
    "SPECTRUM_CONFIG_SCHEMA", "BRACKET_CONFIG_SCHEMA",
    "STRETCH_CONFIG_SCHEMA", "VARY_CONFIG_SCHEMA", "FLOW_CONFIG_SCHEMA",
    "CERTIFY_CONFIG_SCHEMA", "validate_config",
]

_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_NONNEG_INT = {"type": "integer", "minimum": 0}
_POS_INT = {"type": "integer", "minimum": 1}
_COUNT = {"type": "integer", "minimum": 1, "maximum": MAX_TERMS}
_ORDER = {"type": "integer", "minimum": 0, "maximum": MAX_SOBOLEV_ORDER}
_DELTA = {"enum": [0, 0.5]}
# a spline of order k needs more than k knots
_SAMPLES = {"type": "array", "minItems": MIN_SPLINE_ORDER + 1}

PROFILE_SCHEMA = {
    "type": "object",
    "required": ["kind", "domain_length"],
    "additionalProperties": False,
    "properties": {
        "kind": {"enum": ["exponential", "constant", "sampled"]},
        "domain_length": _POSITIVE,
        "m": {"type": "integer", "minimum": 2},
        "c": _POSITIVE,
        "knots": {**_SAMPLES, "items": {"type": "number"}},
        "values": {**_SAMPLES, "items": _POSITIVE},
        "order": {"type": "integer", "minimum": MIN_SPLINE_ORDER},
    },
}

SPECTRUM_DOC_SCHEMA = {
    "type": "object",
    "required": ["entries", "symmetric"],
    "additionalProperties": False,
    "properties": {
        "entries": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "array",
                "minItems": 2,
                "maxItems": 2,
                "prefixItems": [{"type": "number"}, _POS_INT],
            },
        },
        "symmetric": {"type": "boolean"},
        "omitted_abs_min": _POSITIVE,
    },
}

SPECTRUM_SOURCE_SCHEMA = {
    "type": "object",
    "oneOf": [
        {"required": ["circle"],
         "properties": {"circle": {
             "type": "object",
             "required": ["length", "delta", "truncation"],
             "additionalProperties": False,
             "properties": {"length": _POSITIVE, "delta": _DELTA,
                            "truncation": {"type": "integer", "minimum": 0,
                                           "maximum": MAX_TERMS}}}},
         "additionalProperties": False},
        {"required": ["file"],
         "properties": {"file": {"type": "string"}},
         "additionalProperties": False},
        SPECTRUM_DOC_SCHEMA,
    ],
}

SPECTRUM_CONFIG_SCHEMA = {
    "type": "object",
    "required": ["profile", "spectrum", "count"],
    "additionalProperties": False,
    "properties": {
        "profile": PROFILE_SCHEMA,
        "spectrum": SPECTRUM_SOURCE_SCHEMA,
        "count": _POS_INT,
        "t": _POSITIVE,
        "m": {"type": "integer", "minimum": 2},
        "mesh": {"type": "integer", "minimum": 64},
        "strict_truncation": {"type": "boolean"},
    },
}

BRACKET_CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "cases": _COUNT,
        "j_count": _POS_INT,
        "mesh": {"type": "integer", "minimum": 64},
    },
}

STRETCH_CONFIG_SCHEMA = {
    "type": "object",
    "required": ["m", "t_values", "spectrum"],
    "additionalProperties": False,
    "properties": {
        "m": {"type": "integer", "minimum": 2},
        "t_values": {"type": "array", "items": _POSITIVE, "minItems": 2},
        "spectrum": SPECTRUM_SOURCE_SCHEMA,
        "mesh": {"type": "integer", "minimum": 64},
        "tolerance": _POSITIVE,
        "norm_ks": {"type": "array", "items": _ORDER, "minItems": 1},
        "growth": {
            "type": "object",
            "required": ["k_values", "t_values"],
            "additionalProperties": False,
            "properties": {
                "k_values": {"type": "array", "items": _ORDER,
                             "minItems": 1},
                "t_values": {"type": "array", "items": _POSITIVE,
                             "minItems": 4},
            },
        },
    },
}

VARY_CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "n_grid": {"type": "integer", "minimum": 16},
        "delta": _DELTA,
        "modes": _COUNT,
        "perturbations": _COUNT,
        "h_fd": _POSITIVE,
        "kappa_degree": _COUNT,
        "kappa_scale": _POSITIVE,
        "f_offset": _POSITIVE,
        "f_scale": {"type": "number", "minimum": 0},
        "rel_tol": _POSITIVE,
    },
}

FLOW_CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "delta": _DELTA,
        "n_grid": {"type": "integer", "minimum": 16},
        "steps": _NONNEG_INT,
        "epsilon": _POSITIVE,
    },
}

CERTIFY_CONFIG_SCHEMA = {
    "type": "object",
    "required": ["m"],
    "additionalProperties": False,
    "properties": {"m": _POS_INT},
}


_TYPES = {"object": lambda x: isinstance(x, dict),
          "array": lambda x: isinstance(x, list),
          "string": lambda x: isinstance(x, str),
          "boolean": lambda x: isinstance(x, bool),
          "number": is_number, "integer": is_integer}


def _errors(doc, schema: dict, path: tuple):
    """Yield (path, message) for each keyword of ``schema`` that ``doc``
    breaks, in the usual JSON Schema wording; a value of the wrong type
    yields only its type error."""
    kind = schema.get("type")
    if kind is not None and not _TYPES[kind](doc):
        yield path, f"{doc!r} is not of type {kind!r}"
        return
    enum = schema.get("enum")
    if enum is not None and not any(      # True is neither 1 nor 1.0 here
            doc == e and isinstance(doc, bool) == isinstance(e, bool)
            for e in enum):
        yield path, f"{doc!r} is not one of {enum!r}"
    if is_number(doc):
        if "minimum" in schema and doc < schema["minimum"]:
            yield path, (f"{doc!r} is less than the minimum of "
                         f"{schema['minimum']!r}")
        if "exclusiveMinimum" in schema and doc <= schema["exclusiveMinimum"]:
            yield path, (f"{doc!r} is less than or equal to the minimum of "
                         f"{schema['exclusiveMinimum']!r}")
        if "maximum" in schema and doc > schema["maximum"]:
            yield path, (f"{doc!r} is greater than the maximum of "
                         f"{schema['maximum']!r}")
    if isinstance(doc, dict):
        for name in schema.get("required", ()):
            if name not in doc:
                yield path, f"{name!r} is a required property"
        properties = schema.get("properties", {})
        extras = sorted((key for key in doc if key not in properties), key=str)
        if schema.get("additionalProperties", True) is False and extras:
            verb = "was" if len(extras) == 1 else "were"
            yield path, (f"Additional properties are not allowed "
                         f"({', '.join(map(repr, extras))} {verb} unexpected)")
        for name, sub in properties.items():
            if name in doc:
                yield from _errors(doc[name], sub, path + (name,))
    if isinstance(doc, list):
        low, high = schema.get("minItems", 0), schema.get("maxItems", len(doc))
        if len(doc) < low:
            yield path, f"{doc!r} " + ("should be non-empty" if low == 1
                                       else "is too short")
        if len(doc) > high:
            yield path, f"{doc!r} " + ("is expected to be empty" if high == 0
                                       else "is too long")
        prefix = schema.get("prefixItems", [])
        for index, (item, sub) in enumerate(zip(doc, prefix)):
            yield from _errors(item, sub, path + (index,))
        if "items" in schema:
            for index in range(len(prefix), len(doc)):
                yield from _errors(doc[index], schema["items"], path + (index,))
    if "oneOf" in schema:
        failures = [list(_errors(doc, sub, path)) for sub in schema["oneOf"]]
        passed = failures.count([])
        # with no branch passing, the deepest error of the one branch whose
        # required names the document holds says what is wrong
        held = [errors for errors, sub in zip(failures, schema["oneOf"])
                if isinstance(doc, dict)
                and set(sub.get("required", ())) <= doc.keys()]
        if passed == 0 and len(held) == 1:
            yield max(held[0], key=lambda error: len(error[0]))
        elif passed != 1:
            yield path, (f"{doc!r} is not valid under exactly one of the given "
                         "schemas")


def validate_config(doc: dict, schema: dict, label: str) -> dict:
    """Return ``doc`` if it is valid under ``schema``; otherwise raise
    :class:`UsageError` naming the shallowest error and its location."""
    error = min(_errors(doc, schema, ()), key=lambda e: len(e[0]), default=None)
    if error is not None:
        where = "/".join(map(str, error[0])) or "(root)"
        raise UsageError(f"invalid {label} config at {where}: {error[1]}")
    return doc
