"""Differential tests of value_table against eval_p1, with Hypothesis.

Kept apart from test_excscan.py so that the other scan tests do not
depend on Hypothesis being installed.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from excov._batch import BatchField  # noqa: E402
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


# towers where x -> x**(p**d) has long orbits, so value_table evaluates once
# per orbit and writes out up to kt rotations of each value
SMALL_PRIMES = (2, 3, 5, 7)


@st.composite
def tower_maps_and_points(draw, p):
    """A map over F_{p^k} whose coefficients lie in a subfield F_{p^e}, a t
    with kt <= 11 and p^(kt) <= 2*10^5, and sample slots of P1(F_{p^(kt)})
    that include points of F_{p^k}, whose Frobenius orbits are short.

    Factors x^n - a^n, a in F_{p^e}, put zeros and poles on every
    conjugate of a times an n-th root of unity.
    """
    kts = [(k, t) for k in range(1, 12) for t in range(1, 11 // k + 1) if p ** (k * t) <= 2 * 10**5]
    k, t = draw(st.sampled_from(kts))
    e = draw(st.sampled_from([e for e in range(1, k + 1) if k % e == 0]))
    ctx = make_field(p, k)

    def coeff():
        # the norm to F_{p^e} of a nonzero element of F_{p^k}
        x = ctx.from_index(draw(st.integers(1, ctx.order - 1)))
        return x ** ((ctx.order - 1) // (p**e - 1))

    def sparse_poly():
        coeffs = [ctx.zero()] * 31
        for n in draw(st.lists(st.integers(0, 30), min_size=1, max_size=5, unique=True)):
            coeffs[n] = coeff()
        return Poly(ctx, coeffs)

    def vanishing():
        n = draw(st.integers(1, 8))
        return Poly(ctx, [-(coeff() ** n)] + [ctx.zero()] * (n - 1) + [ctx.one()])

    num = sparse_poly() * vanishing() if draw(st.booleans()) else sparse_poly()
    den = None
    if draw(st.booleans()):
        den = vanishing() * sparse_poly() if draw(st.booleans()) else vanishing()
    f = RationalMap(num) if den is None else RationalMap(num, den)
    K = make_extension(ctx, t)
    size = K.order + 1
    drawn = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=20))
    subfield = [K.embed(ctx.from_index(i)).index for i in range(min(ctx.order, 12))]
    return f, t, drawn + subfield + [size - 1]


@pytest.mark.parametrize("p", SMALL_PRIMES)
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_value_table_per_orbit_matches_every_log_and_eval_p1(p, data):
    f, t, points = data.draw(tower_maps_and_points(p))
    K = make_extension(f.ctx, t)
    tab = value_table(f, t)
    # the same table with every log evaluated (r = 1), a second oracle
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BatchField, "_frobenius_step", lambda self, lcs: self.D)
        assert np.array_equal(tab, value_table(f, t)), (f, t)
    for i in points:
        x = P1Point.infinity(K) if i == K.order else P1Point.of(K.from_index(i))
        assert tab[i] == eval_p1(f, x).index(), (f, t, i)
