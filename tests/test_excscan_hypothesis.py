"""Differential test of value_table against eval_p1, with Hypothesis.

Kept apart from test_excscan.py so that the other scan tests do not
depend on Hypothesis being installed.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from excov.excscan import value_table  # noqa: E402
from excov.gf import make_extension, make_field  # noqa: E402
from excov.projmap import P1Point, Poly, RationalMap, eval_p1  # noqa: E402


# both sides of the int8/int16 digit, int16/int32 work and int32 product
# widths of the earlier digit engine
BOUNDARY_PRIMES = (61, 67, 127, 131, 32749, 32771, 46337, 46349)


@st.composite
def maps_and_points(draw, p):
    """A sparse polynomial or rational map over F_{p^k}, a t with
    p^(kt) <= 2*10^5, and sample slots of P1(F_{p^(kt)})."""
    n_max = max(n for n in (1, 2, 3) if p**n <= 2 * 10**5)
    k = draw(st.integers(1, n_max))
    t = draw(st.integers(1, n_max // k))
    ctx = make_field(p, k)

    def sparse_poly():
        coeffs = [ctx.zero()] * 41
        for e in draw(st.lists(st.integers(0, 40), min_size=1, max_size=5, unique=True)):
            coeffs[e] = ctx.from_index(draw(st.integers(1, ctx.order - 1)))
        return Poly(ctx, coeffs)

    num = sparse_poly()
    f = RationalMap(num, sparse_poly()) if draw(st.booleans()) else RationalMap(num)
    size = ctx.order**t + 1
    points = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=30))
    return f, t, points + [size - 1]


@pytest.mark.parametrize("p", BOUNDARY_PRIMES)
@settings(derandomize=True, max_examples=20, deadline=None)
@given(data=st.data())
def test_value_table_matches_eval_p1_across_width_boundaries(p, data):
    f, t, points = data.draw(maps_and_points(p))
    K = make_extension(f.ctx, t)
    tab = value_table(f, t)
    for i in points:
        x = P1Point.infinity(K) if i == K.order else P1Point.of(K.from_index(i))
        assert tab[i] == eval_p1(f, x).index(), (f, t, i)
