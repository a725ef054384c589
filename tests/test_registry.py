"""The residual reductions: bitwise the formulas they stand for."""

import math

import numpy as np
import pytest

from statgeo import registry as reg


def formula_rel(lhs, rhs):
    L = np.asarray(lhs, float)
    R = np.asarray(rhs, float)
    r = np.abs(L - R) / (1.0 + np.abs(L) + np.abs(R))
    return float(np.max(r)) if r.size else 0.0


def formula_abs(a):
    a = np.asarray(a, float)
    return float(np.max(np.abs(a))) if a.size else 0.0


def same(x, y):
    """Equal as doubles, sign of zero included; NaN equals NaN."""
    assert type(x) is float and type(y) is float
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


rng = np.random.default_rng(3)
A = rng.standard_normal((7, 3, 3)) * 10.0 ** rng.integers(-8, 8, (7, 3, 3))
B = A + rng.standard_normal((7, 3, 3)) * 1e-9
WITH_NAN = A.copy()
WITH_NAN[2, 1, 0] = np.nan

PAIRS = {
    "random": (A, rng.standard_normal((7, 3, 3))),
    "close": (A, B),
    "equal": (A, A.copy()),
    "broadcast-tail": (A, rng.standard_normal((3, 3))),
    "broadcast-both": (rng.standard_normal((3,)), rng.standard_normal((7, 1, 3))),
    "scalar-array": (2.0, A),
    "0-d": (np.array(1.5), np.array(-0.25)),
    "floats": (1.5, -0.25),
    "empty": (np.zeros((0, 3)), np.zeros((0, 3))),
    "empty-broadcast": (np.zeros((0, 3)), np.zeros(3)),
    "zeros": (np.zeros((4, 3)), np.zeros((4, 3))),
    "negative-zeros": (-np.zeros((4, 3)), np.zeros((4, 3))),
    "nan": (WITH_NAN, A),
    "inf": (np.array([1.0, np.inf]), np.array([1.0, 2.0])),
    "ints": ([[1, 2], [3, 4]], [[1, 2], [3, 5]]),
}


@pytest.mark.parametrize("pair", PAIRS.values(), ids=list(PAIRS))
def test_rel_residual_is_the_formula_bitwise(pair):
    lhs, rhs = pair
    with np.errstate(invalid="ignore"):  # inf / inf in the "inf" case
        assert same(reg.rel_residual(lhs, rhs), formula_rel(lhs, rhs))
        assert same(reg.rel_residual(rhs, lhs), formula_rel(rhs, lhs))


ARRAYS = {
    "random": A,
    "negative-max": -np.abs(A),
    "0-d": np.array(-2.5),
    "float": -0.75,
    "empty": np.zeros((0, 4)),
    "zeros": np.zeros((5, 2)),
    "negative-zeros": -np.zeros((5, 2)),
    "0-d-negative-zero": np.array(-0.0),
    "nan": WITH_NAN,
    "only-nan": np.array([np.nan]),
    "inf": np.array([-np.inf, 1.0]),
    "ints": [[-3, 2], [1, 0]],
}


@pytest.mark.parametrize("a", ARRAYS.values(), ids=list(ARRAYS))
def test_abs_max_is_the_formula_bitwise(a):
    assert same(reg.abs_max(a), formula_abs(a))


def test_zero_residuals_print_without_a_sign():
    for r in (reg.abs_max(-np.zeros(3)), reg.rel_residual(-np.zeros(3), np.zeros(3))):
        assert f"{r:.3e}" == "0.000e+00"


def test_reductions_leave_their_inputs_alone():
    lhs, rhs = A.copy(), B.copy()
    reg.rel_residual(lhs, rhs)
    reg.abs_max(lhs)
    assert np.array_equal(lhs, A) and np.array_equal(rhs, B)
