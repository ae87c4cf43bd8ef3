"""The dataclass-driven config loader against the JSON-schema loader it replaced.

The reference below is the earlier code path, copied: the file was
checked with jsonschema against CONFIG_SCHEMA, merged over DEFAULTS (a
None value kept the default) and passed to the dataclasses, whose checks
the schema already implied.
"""

import json
import math

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from simulstream.session import SessionConfig, config_from_dict, config_to_dict

jsonschema = pytest.importorskip("jsonschema")

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "pre_decision_ms": {"type": ["number", "null"], "exclusiveMinimum": 0},
        "emission_rate_l": {"type": "integer", "minimum": 1},
        "unit_ms": {"type": "number", "exclusiveMinimum": 0},
        "units_per_token": {"type": "integer", "minimum": 1},
        "compute": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "per_decision_ms": {"type": "number", "minimum": 0},
                "per_unit_ms": {"type": "number", "minimum": 0},
            },
        },
        "policy": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["waitk", "offline", "vmma"]},
                "k": {"type": "integer", "minimum": 1},
                "lam": {"type": "number", "exclusiveMinimum": 0},
                "scorer": {"enum": ["oracle", "constant"]},
                "scorer_value": {"type": "number"},
                "seed": {"type": "integer"},
            },
        },
    },
}

SCORER_VALUE = CONFIG_SCHEMA["properties"]["policy"]["properties"]["scorer_value"]

DEFAULTS = {
    "pre_decision_ms": None,
    "emission_rate_l": 1,
    "unit_ms": 20.0,
    "units_per_token": 5,
    "compute": {"per_decision_ms": 0.0, "per_unit_ms": 0.0},
    "policy": {
        "kind": "waitk",
        "k": 1,
        "lam": 0.5,
        "scorer": "oracle",
        "scorer_value": 0.5,
        "seed": 0,
    },
}


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        elif value is not None:
            out[key] = value
    return out


# what jsonschema.validate(d, CONFIG_SCHEMA) uses, without checking the schema on every call
VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


def reference_load(d):
    """The merged settings the earlier loader built from d, or None if it rejected d."""
    try:
        VALIDATOR.validate(d)
    except jsonschema.ValidationError:
        return None
    return _merge(DEFAULTS, d)


# the time settings, in ms, that the engine counts in whole microseconds
MS_SETTINGS = {"pre_decision_ms", "unit_ms", "per_decision_ms", "per_unit_ms"}


def allowed_new_rejection(d: dict, schema: dict = CONFIG_SCHEMA) -> bool:
    """d (accepted by the reference) holds a non-finite number, an
    integral float in an integer field, a policy.scorer_value outside
    (0, 1) or a nonzero time setting that rounds to 0 us: the only values
    the reference took that the dataclasses may refuse."""
    for key, value in d.items():
        sub = schema["properties"][key]
        if isinstance(value, dict):
            if allowed_new_rejection(value, sub):
                return True
        elif sub is SCORER_VALUE and not 0 < value < 1:
            return True
        elif key in MS_SETTINGS and value and abs(value) < 1 and round(value * 1000) == 0:
            return True
        elif isinstance(value, float):
            if not math.isfinite(value) or sub.get("type") == "integer":
                return True
    return False


def _numbers(lo, hi):
    return st.floats(lo, hi) | st.integers(math.ceil(lo), math.floor(hi))


VALID = st.fixed_dictionaries(
    {},
    optional={
        "pre_decision_ms": st.none() | _numbers(1e-3, 1e3),
        "emission_rate_l": st.integers(1, 20),
        "unit_ms": _numbers(1e-3, 100.0),
        "units_per_token": st.integers(1, 10),
        "compute": st.fixed_dictionaries(
            {},
            optional={
                "per_decision_ms": _numbers(0.0, 50.0),
                "per_unit_ms": _numbers(0.0, 50.0),
            },
        ),
        "policy": st.fixed_dictionaries(
            {},
            optional={
                "kind": st.sampled_from(["waitk", "offline", "vmma"]),
                "k": st.integers(1, 40),
                "lam": _numbers(1e-3, 10.0),
                "scorer": st.sampled_from(["oracle", "constant"]),
                "scorer_value": _numbers(-5.0, 5.0),
                "seed": st.integers(-10, 1 << 40),
            },
        ),
    },
)

# wrong types, bools, out-of-range and non-finite numbers, integral
# floats, near-miss strings and nested containers
JUNK = st.one_of(
    st.booleans(),
    st.none(),
    st.integers(-3, 3),
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 0.5, -1.5, 1e-300, 1e308]),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["waitk", "vmma", "oracle", "constant", "fixed_cost", "psychic", ""]),
    st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.sampled_from(["kind", "k", "bogus"]), st.integers(0, 3), max_size=2),
)

# where a mutation lands: the whole dict, every key of the schema, and unknown keys
SCHEMA_KEYS = CONFIG_SCHEMA["properties"]
PATHS = (
    [()]
    + [(key,) for key in SCHEMA_KEYS]
    + [(key, name) for key in ("policy", "compute") for name in SCHEMA_KEYS[key]["properties"]]
    + [("bogus",), ("policy", "bogus"), ("compute", "bogus")]
)


@st.composite
def config_dicts(draw):
    d = draw(VALID)
    for _ in range(draw(st.integers(0, 2))):
        path, value = draw(st.sampled_from(PATHS)), draw(JUNK)
        if not path:
            d = value
            continue
        node = d
        for key in path[:-1]:
            node = node.setdefault(key, {}) if isinstance(node, dict) else None
        if isinstance(node, dict):
            node[path[-1]] = value
    return d


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(config_dicts())
@example({})
@example({"emission_rate_l": 2.0})
@example({"unit_ms": math.nan})
@example({"policy": {"k": True}})
@example({"policy": {"kind": "offline", "lam": 1}, "pre_decision_ms": None})
@example({"unit_ms": 1e-300, "compute": {"per_unit_ms": 0.0005}})
def test_loader_matches_schema_reference(d):
    expected = reference_load(d)
    try:
        got = config_from_dict(d)
    except ValueError as exc:
        assert " at $" in str(exc)  # every rejection names its location
        got = None
    verdict = {True: "rejects", False: "accepts"}
    event(f"reference {verdict[expected is None]}, loader {verdict[got is None]}")
    if expected is None:
        assert got is None
    elif got is None:
        assert allowed_new_rejection(d)
    else:
        assert isinstance(got, SessionConfig)
        # same values of the same types: json.dumps writes 2 and 2.0 apart
        assert json.dumps(config_to_dict(got), sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )
