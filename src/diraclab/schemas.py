"""JSON Schemas for configuration files and on-disk documents.

Every CLI subcommand validates its ``--config`` document against the schema
here before touching any numerics, so malformed input fails fast with exit
code 2.  The same profile/spectrum fragments describe the standalone JSON
files the package reads and writes.
"""

from __future__ import annotations

import jsonschema

from .errors import UsageError

__all__ = [
    "PROFILE_SCHEMA", "SPECTRUM_DOC_SCHEMA", "SPECTRUM_SOURCE_SCHEMA",
    "SPECTRUM_CONFIG_SCHEMA", "BRACKET_CONFIG_SCHEMA",
    "STRETCH_CONFIG_SCHEMA", "VARY_CONFIG_SCHEMA", "FLOW_CONFIG_SCHEMA",
    "CERTIFY_CONFIG_SCHEMA", "validate_config",
]

_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_NONNEG_INT = {"type": "integer", "minimum": 0}
_POS_INT = {"type": "integer", "minimum": 1}
_DELTA = {"enum": [0, 0.5]}

PROFILE_SCHEMA = {
    "type": "object",
    "required": ["kind", "domain_length"],
    "additionalProperties": False,
    "properties": {
        "kind": {"enum": ["exponential", "constant", "sampled"]},
        "domain_length": _POSITIVE,
        "m": {"type": "integer", "minimum": 2},
        "c": _POSITIVE,
        "knots": {"type": "array", "items": {"type": "number"}, "minItems": 2},
        "values": {"type": "array", "items": _POSITIVE, "minItems": 2},
        "order": _POS_INT,
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
                            "truncation": _NONNEG_INT}}},
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
        "cases": _POS_INT,
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
        "norm_ks": {"type": "array", "items": _NONNEG_INT, "minItems": 1},
        "growth": {
            "type": "object",
            "required": ["k_values", "t_values"],
            "additionalProperties": False,
            "properties": {
                "k_values": {"type": "array", "items": _NONNEG_INT,
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
        "modes": _POS_INT,
        "perturbations": _POS_INT,
        "h_fd": _POSITIVE,
        "kappa_degree": _POS_INT,
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


def validate_config(doc: dict, schema: dict, label: str) -> dict:
    """Validate ``doc`` against ``schema``; raise :class:`UsageError` on
    failure with a short pointer to the offending location."""
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as exc:
        where = "/".join(str(part) for part in exc.absolute_path) or "(root)"
        raise UsageError(f"invalid {label} config at {where}: {exc.message}")
    return doc
