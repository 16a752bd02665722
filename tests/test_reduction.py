"""Properties of CG's inner product `simm._dot` over random fields."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from maxglm.simm import _dot

# |x| <= 1e150 keeps every product and every sum of up to 8*8*3*2 of them finite
VALUES = st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False)
TINY = math.ulp(0.0)  # a product's rounding error below the normal range


@st.composite
def operand_pairs(draw):
    """Two equally shaped 2-D scalar or 3-D vector fields, possibly as views."""
    nx, ny = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    shape = draw(st.sampled_from([(nx, ny), (nx, ny, 3)]))
    layout = draw(st.sampled_from(["contiguous", "strided", "transposed", "component"]))
    if layout == "strided":  # every other row of a twice-as-tall array
        full = (2 * nx,) + shape[1:]
    elif layout == "component":  # one component of a vector field
        full = (nx, ny, 3)
    else:
        full = shape
    pair = []
    for _ in range(2):
        a = draw(arrays(np.float64, full, elements=VALUES))
        if layout == "strided":
            a = a[::2]
        elif layout == "transposed":
            a = a.T
        elif layout == "component":
            a = a[..., 1]
        pair.append(a)
    return pair


@settings(deadline=None)
@given(operand_pairs())
def test_dot_is_symmetric_bitwise(pair):
    a, b = pair
    assert math.copysign(1.0, _dot(a, b)) == math.copysign(1.0, _dot(b, a))
    assert _dot(a, b) == _dot(b, a)


@settings(deadline=None)
@given(operand_pairs())
def test_dot_of_a_field_with_itself_is_nonnegative(pair):
    for a in pair:
        assert _dot(a, a) >= 0.0


@settings(deadline=None)
@given(operand_pairs())
def test_dot_agrees_with_exactly_rounded_sum(pair):
    """Within n*eps*sum|a_i b_i| of math.fsum over the products."""
    a, b = pair
    products = [x * y for x, y in zip(a.ravel().tolist(), b.ravel().tolist())]
    n = len(products)
    bound = n * np.finfo(float).eps * math.fsum(abs(p) for p in products) + n * TINY
    assert abs(_dot(a, b) - math.fsum(products)) <= bound


@settings(deadline=None)
@given(operand_pairs())
def test_dot_of_a_view_equals_dot_of_its_copy(pair):
    a, b = pair
    got = _dot(a, b)
    assert isinstance(got, float)
    assert got == _dot(np.ascontiguousarray(a), np.ascontiguousarray(b))
