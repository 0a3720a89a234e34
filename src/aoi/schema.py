"""Published JSON schema for the machine-readable CLI output.

Every ``aoi <command> --json`` invocation prints a single object that
validates against :data:`CLI_RESULT_SCHEMA` (draft-07).  Successful runs
carry ``result``; domain failures carry ``error`` (the error class name,
suitable for branching) and ``message``.
"""

CLI_RESULT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "aoi CLI JSON output",
    "type": "object",
    "additionalProperties": False,
    "required": ["command"],
    "properties": {
        "command": {
            "type": "string",
            "enum": ["simulate", "exact", "bound", "sweep",
                     "check-properties", "kpmf"],
        },
        "inputs": {"type": "object"},
        "result": {"type": "object"},
        "error": {
            "type": "string",
            "enum": ["DivergentAge", "ZeroSuccessProbability",
                     "TruncationNotReached"],
        },
        "message": {"type": "string"},
    },
    "oneOf": [
        {"required": ["result"], "not": {"required": ["error"]}},
        {"required": ["error", "message"], "not": {"required": ["result"]}},
    ],
    "allOf": [
        {
            "if": {"properties": {"command": {"enum": ["simulate", "exact"]}},
                   "required": ["command", "result"]},
            "then": {"properties": {"result": {
                "type": "object",
                "required": ["value", "ci_half_width", "cycles_used", "method"],
                "properties": {
                    "value": {"type": "number"},
                    "ci_half_width": {"type": "number", "minimum": 0},
                    "cycles_used": {"type": "integer", "minimum": 0},
                    "method": {"enum": ["simulation", "lattice",
                                        "closed_form"]},
                },
            }}},
        },
        {
            "if": {"properties": {"command": {"const": "bound"}},
                   "required": ["command", "result"]},
            "then": {"properties": {"result": {
                "type": "object",
                "required": ["value", "kind", "applicability", "half_width"],
                "properties": {
                    "value": {"type": "number"},
                    "kind": {"type": "string"},
                    "half_width": {"type": "number", "minimum": 0},
                    "applicability": {
                        "enum": ["Unconditional", "RequiresDMRLandNBUE",
                                 "ReversedUnderIMRL", "PremiseNotMet"]},
                },
            }}},
        },
        {
            "if": {"properties": {"command": {"const": "kpmf"}},
                   "required": ["command", "result"]},
            "then": {"properties": {"result": {
                "type": "object",
                "required": ["pmf", "tail_mass"],
                "properties": {
                    "pmf": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["k", "probability", "ci"],
                            "properties": {
                                "k": {"type": "integer", "minimum": 1},
                                "probability": {"type": "number"},
                                "ci": {"type": "number", "minimum": 0},
                            },
                        },
                    },
                    "tail_mass": {"type": "number"},
                    "tail_mass_ci": {"type": "number", "minimum": 0},
                },
            }}},
        },
        {
            "if": {"properties": {"command": {"const": "check-properties"}},
                   "required": ["command", "result"]},
            "then": {"properties": {"result": {
                "type": "object",
                "required": ["verdict", "nbue", "mean"],
                "properties": {
                    "verdict": {"enum": ["DMRL", "IMRL", "ConstantMRL"]},
                    "nbue": {"type": "boolean"},
                    "mean": {"type": "number"},
                },
            }}},
        },
        {
            "if": {"properties": {"command": {"const": "sweep"}},
                   "required": ["command", "result"]},
            "then": {"properties": {"result": {
                "type": "object",
                "required": ["rows"],
                "properties": {
                    "rows": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["param", "estimator", "value", "ci",
                                         "applicability"],
                            "properties": {
                                "param": {"type": "number"},
                                "estimator": {"type": "string"},
                                "value": {"type": ["number", "null"]},
                                "ci": {"type": ["number", "null"]},
                                "applicability": {"type": "string"},
                            },
                        },
                    },
                    "csv": {"type": "string"},
                    "chart": {"type": "string"},
                },
            }}},
        },
    ],
}
