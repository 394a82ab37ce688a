"""The JSON readers: a malformed document raises InvalidInputError, never
another exception, and no value is truncated or half-read."""

import copy

import pytest

from levymult.exceptions import InvalidInputError
from levymult.measures import JumpModulator, measure_from_dict, modulator_from_dict
from levymult.scenarios import scenario_from_dict
from levymult.symbols import symbol_from_dict

DISCRETE = {"kind": "discrete",
            "atoms": [{"z": [1.0], "w": 1.0}, {"z": [-1.0], "w": 1.0}]}
STABLE = {"kind": "stable", "alpha": 1.0, "epsilon": 0.5, "outer_radius": 4.0,
          "atoms": [{"z": [1.0], "w": 1.0}, {"z": [-1.0], "w": 1.0}]}
SCENARIO = {"name": "walk", "measure": DISCRETE,
            "modulator": {"kind": "constant", "value": 1.0},
            "sizes": [8], "h": 1.0, "f": [1.0, [0.0, 1.0]] + [0.0] * 6,
            "x0": 2, "window": [0.0, 1.0], "checkpoints": [0.5]}

VALID = [
    (measure_from_dict, DISCRETE),
    (measure_from_dict, STABLE),
    (modulator_from_dict, {"kind": "constant", "value": [0.5, 0.5]}),
    (modulator_from_dict, {"kind": "axis", "j": 1}),
    (modulator_from_dict, {"kind": "per_axis", "coefficients": [1.0, [0.0, 1.0]]}),
    (modulator_from_dict, {"kind": "sign_pattern", "signs": [1, -1]}),
    (modulator_from_dict, {"kind": "table",
                           "entries": [{"z": [1.0], "value": 1.0}]}),
    (symbol_from_dict, {"kind": "constant", "value": [0.5, 0.0], "d": 2}),
    (symbol_from_dict, {"kind": "power", "alpha": 1.0, "j": 1, "d": 2}),
    (symbol_from_dict, {"kind": "riesz_pair", "j": 1, "k": 2, "d": 2}),
    (symbol_from_dict, {"kind": "riesz_combo", "coefficients": [1.0, [0.0, 1.0]]}),
    (symbol_from_dict, {"kind": "first_order_riesz", "j": 2, "d": 2}),
    (symbol_from_dict, {"kind": "finite_time", "s": -1.0, "measure": DISCRETE,
                        "modulator": {"kind": "axis", "j": 1}}),
    (symbol_from_dict, {"kind": "product", "factors": [
        {"kind": "riesz2", "j": 1, "d": 2}, {"kind": "beurling_ahlfors"}]}),
    (scenario_from_dict, SCENARIO),
]
BAD_VALUES = [None, [], [0.5], [0.5, 0, 3], "x", {}, 1.7, True]


def _fields(doc, path=()):
    """Every path to a field of ``doc``, nested fields included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _fields(value, path + (key,))


def _replaced(doc, path, value):
    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


@pytest.mark.parametrize("reader, doc", VALID,
                         ids=[f"{r.__name__}-{d.get('kind', 'scenario')}"
                              for r, d in VALID])
def test_reader_parses_or_raises_invalid_input(reader, doc):
    reader(doc)
    for path in _fields(doc):
        for value in BAD_VALUES:
            try:
                reader(_replaced(doc, path, value))
            except InvalidInputError:
                pass
            except Exception as exc:  # any other type is a failure
                pytest.fail(f"{path} = {value!r} raised {type(exc).__name__}: {exc}")


SYM, SCN = "malformed symbol document", "malformed scenario document"
REJECTED = [
    (symbol_from_dict, {"kind": "constant", "value": [0.5]}, SYM),
    (symbol_from_dict, {"kind": "constant", "value": [0.5, 0, 3]}, SYM),
    (symbol_from_dict, {"kind": "riesz_combo", "coefficients": [[0.5]]}, SYM),
    (symbol_from_dict, {"kind": "riesz_combo", "coefficients": [[0.5, 0, 3]]},
     SYM),
    (scenario_from_dict, {**SCENARIO, "f": [[0.5]] + [0.0] * 7}, SCN),
    (scenario_from_dict, {**SCENARIO, "f": [[1, 2, 3]] + [0.0] * 7}, SCN),
    (scenario_from_dict, {**SCENARIO, "window": [0]}, SCN),
    (scenario_from_dict, {**SCENARIO, "window": [0.0, 1.0, 2.0]}, SCN),
    (symbol_from_dict, {"kind": "riesz2", "j": 1.7, "d": 2}, SYM),
    (symbol_from_dict, {"kind": "riesz2", "j": 1, "d": 2.9}, SYM),
    (modulator_from_dict, {"kind": "axis", "j": 1.5}, "axis modulator: 1.5 is not"),
    (modulator_from_dict, {"kind": "axis", "j": "1"}, "axis modulator: '1' is not"),
    (symbol_from_dict, {"kind": "power", "alpha": 1.0, "j": True, "d": 2},
     SYM),
    (modulator_from_dict, {"kind": "sign_pattern", "signs": [1.5, -1.5]},
     "sign_pattern modulator: 1.5 is not"),
    (scenario_from_dict, {**SCENARIO, "sizes": [8.9]}, SCN),
    (scenario_from_dict, {**SCENARIO, "x0": 2.5}, SCN),
]
REJECTED_IDS = ["constant_short", "constant_long", "combo_short", "combo_long",
                "f_short", "f_long", "window_short", "window_long", "riesz2_j",
                "riesz2_d", "axis_j_float", "axis_j_text", "power_j_bool",
                "signs_float", "sizes_float", "x0_float"]


@pytest.mark.parametrize("reader, doc, message", REJECTED, ids=REJECTED_IDS)
def test_malformed_value_is_rejected_not_truncated(reader, doc, message):
    with pytest.raises(InvalidInputError, match=message):
        reader(doc)


def test_integral_numbers_are_read_as_integers():
    assert modulator_from_dict({"kind": "axis", "j": 2.0}).payload["j"] == 2
    sym = symbol_from_dict({"kind": "riesz_pair", "j": 1.0, "k": 2, "d": 2.0})
    assert (sym.j, sym.k, sym.dimension) == (1, 2, 2)
    assert all(type(v) is int for v in (sym.j, sym.k, sym.dimension))


@pytest.mark.parametrize("make", [
    lambda: JumpModulator.axis_indicator(1.5),
    lambda: JumpModulator.axis_indicator(True),
    lambda: JumpModulator.sign_pattern([1.5, -1.5]),
    lambda: JumpModulator.sign_pattern([True, -1]),
    lambda: JumpModulator.sign_pattern([2, -2]),
], ids=["axis_float", "axis_bool", "signs_float", "signs_bool", "signs_two"])
def test_modulator_constructors_refuse_non_integers(make):
    """The constructors hold the integer rule, so library callers get it too."""
    with pytest.raises(InvalidInputError, match="is not an integer|must be"):
        make()


def test_modulator_constructors_store_integers():
    assert JumpModulator.axis_indicator(2.0).payload["j"] == 2
    signs = JumpModulator.sign_pattern([1.0, -1]).payload["signs"]
    assert signs == [1, -1] and all(type(s) is int for s in signs)
