"""Maps on the projective line: families, composition, decomposition."""

import functools
import math
import random
import time

import numpy as np
import pytest

from excov.errors import CapExceededError, ValidationError, field_cap_scope
from excov.gf import _is_prime, make_extension, make_field
from excov.projmap import (
    P1Point,
    Poly,
    RationalMap,
    affine_conjugate,
    chebyshev,
    chebyshev_twist,
    compose,
    cyclic,
    decompose_tame_poly,
    dickson,
    eval_p1,
    parse_map_spec,
    redei,
)

F3 = make_field(3, 1)
F5 = make_field(5, 1)
F7 = make_field(7, 1)


def coeff_indices(r: RationalMap) -> list[int]:
    return [c.index for c in r.as_poly().coeffs]


# -- polynomial ring basics ----------------------------------------------------


def test_poly_divmod_roundtrip():
    f = Poly(F7, [3, 0, 1, 5, 2])
    g = Poly(F7, [1, 4, 1])
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.degree < g.degree


def test_poly_gcd_of_product():
    a = Poly(F5, [1, 1])      # x + 1
    b = Poly(F5, [2, 0, 1])   # x^2 + 2
    c = Poly(F5, [3, 1])      # x + 3
    g = (a * b).gcd(b * c)
    assert g == b.monic()


def test_poly_mul_matches_schoolbook_on_extension():
    ctx = make_field(3, 2)
    a = Poly(ctx, [ctx.from_index(i) for i in (2, 5, 7)])
    b = Poly(ctx, [ctx.from_index(i) for i in (4, 3)])
    prod = a * b
    for i in range(3):
        x = ctx.from_index(i * 2 + 1)
        assert prod(x) == a(x) * b(x)


def trimmed(cs):
    cs = list(cs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return cs


def school_mul(ctx, a, b):
    if not a or not b:
        return []
    out = [ctx.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return trimmed(out)


def school_divmod(ctx, a, b):
    inv = b[-1].inverse()
    quot = [ctx.zero()] * max(0, len(a) - len(b) + 1)
    rem = list(a)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + len(b) - 1] * inv
        quot[k] = c
        for i, y in enumerate(b):
            rem[k + i] = rem[k + i] - c * y
    return trimmed(quot), trimmed(rem[: len(b) - 1])


def school_gcd(ctx, a, b):
    while b:
        a, b = b, school_divmod(ctx, a, b)[1]
    return [c * a[-1].inverse() for c in a] if a else []


# prime, one-step and two-step towers, in characteristics 2, 3 and 7
POLY_FIELDS = [
    make_field(7, 1),
    make_field(3, 2),
    make_field(3, 3),
    make_field(2, 4),
    make_extension(make_field(3, 2), 2),
]


@pytest.mark.parametrize("ctx", POLY_FIELDS, ids=repr)
def test_poly_arithmetic_matches_schoolbook(ctx):
    # lengths 0 (zero), 1 (constants) to 6, so prime-field products take
    # both the loop and the convolution
    rng = random.Random(ctx.order)

    def coeffs(n):
        # about a third of the coefficients below the leading one are 0
        inner = [rng.randrange(ctx.order) if rng.random() < 2 / 3 else 0 for _ in range(n - 1)]
        return [ctx.from_index(i) for i in inner + [rng.randrange(1, ctx.order)]] if n else []

    for la in range(7):
        for lb in range(7):
            for _ in range(3):
                a, b = coeffs(la), coeffs(lb)
                A, B = Poly(ctx, a), Poly(ctx, b)
                # sparse round trip: only the nonzero terms are held
                assert list(A.coeffs) == a and A.degree == la - 1
                assert A.terms == tuple((e, c) for e, c in enumerate(a) if not c.is_zero())
                padded = Poly(ctx, a + [ctx.zero()] * 2)  # trailing zeros
                assert padded == A and hash(padded) == hash(A) and repr(padded) == repr(A)
                x = ctx.from_index(rng.randrange(ctx.order))  # against Horner on a
                assert A(x) == functools.reduce(lambda acc, c: acc * x + c, reversed(a), ctx.zero())
                assert list((A * B).coeffs) == school_mul(ctx, a, b)
                assert list(A.gcd(B).coeffs) == school_gcd(ctx, a, b)
                if not b:
                    with pytest.raises(ValidationError):
                        divmod(A, B)
                    continue
                q, r = divmod(A, B)
                assert (list(q.coeffs), list(r.coeffs)) == school_divmod(ctx, a, b)


K9 = make_field(3, 2)
E9 = make_extension(K9, 2)


@pytest.mark.parametrize(
    "ctx, dense, degree, text",
    [
        (F7, [0, 3, 0, 0, 1, 0, 0], 4, "Poly(x^4 + 3*x)"),  # interior and trailing zeros
        (F7, [6, 0, 0, 2], 3, "Poly(2*x^3 + 6)"),
        (F7, [], -1, "Poly(0)"),
        (F7, [0, 0, 0], -1, "Poly(0)"),
        (F7, [5], 0, "Poly(5)"),
        # coefficients from the subfield F_9 of F_81, and from F_3 under both
        (E9, [K9.from_index(5), 0, K9.one()], 2, f"Poly(x^2 + {E9.embed(K9.from_index(5)).index})"),
        (E9, [F3.from_int(2), F3.one()], 1, f"Poly(x + {E9.embed(F3.from_int(2)).index})"),
    ],
)
def test_sparse_poly_keeps_the_dense_view(ctx, dense, degree, text):
    p = Poly(ctx, dense)
    lifted = [ctx.from_int(c) if isinstance(c, int) else ctx.embed(c) for c in dense]
    while lifted and lifted[-1].is_zero():
        lifted.pop()
    assert p.coeffs == tuple(lifted) and p.degree == degree and repr(p) == text
    assert p.indices() == [c.index for c in lifted]
    assert [p.coeff(i) for i in range(-1, degree + 3)] == (
        [ctx.zero()] + lifted + [ctx.zero()] * 2
    )
    same = Poly(ctx, lifted)
    assert same == p and hash(same) == hash(p)
    assert all(not c.is_zero() and c.ctx == ctx for _, c in p.terms)


def test_numpy_integer_coefficients_lift_like_ints():
    assert dickson(F5, 5, np.int64(2)) == dickson(F5, 5, 2)
    assert Poly(F5, [np.int64(1), np.int32(0), np.int64(7)]) == Poly(F5, [1, 0, 7])
    assert Poly(F5, [1, 2]) * np.int64(3) == Poly(F5, [3, 6])


@pytest.mark.parametrize("bad", ["2", 2.0, None, [2]])
def test_coefficients_neither_int_nor_field_element_are_rejected(bad):
    for build in (lambda: Poly(F5, [1, bad]), lambda: dickson(F5, 5, bad)):
        with pytest.raises(ValidationError, match="neither an integer nor a field element"):
            build()


def test_prime_field_products_stay_exact_past_int64():
    # (-1 - x - ... - x^(n-1))^2 has coefficients 1, 2, .., n, .., 2, 1.  In
    # an integer convolution the largest is a sum of n products (p-1)^2, which
    # at n = 4 passes 2^63 once p > 1518500250; the loop must take over there
    edge = math.isqrt(2 ** 61 - 1) + 1  # (edge - 1)^2 < 2^61 <= edge^2
    below = next(p for p in range(edge, 0, -1) if _is_prime(p))
    above = next(p for p in range(edge + 1, 2 * edge) if _is_prime(p))
    with field_cap_scope(2 ** 32):
        for p in (below, above, 2147483659):
            F = make_field(p, 1)
            for n in range(1, 7):
                a = Poly(F, [p - 1] * n)
                want = [min(k + 1, 2 * n - 1 - k) for k in range(2 * n - 1)]
                assert [c.index for c in (a * a).coeffs] == want, (p, n)


def test_poly_eval_lifts_into_extension():
    f = Poly(F3, [1, 0, 1])  # x^2 + 1
    K = make_extension(F3, 2)
    x = K.gen()
    assert f(x) == x * x + K.one()


# -- evaluation conventions ------------------------------------------------------


def test_polynomial_fixes_infinity():
    f = cyclic(F5, 2)
    assert eval_p1(f, P1Point.infinity(F5)).is_infinity


def test_one_over_x_swaps_zero_and_infinity():
    inv = RationalMap(Poly(F5, [1]), Poly(F5, [0, 1]))
    assert eval_p1(inv, 0).is_infinity
    v = eval_p1(inv, P1Point.infinity(F5))
    assert not v.is_infinity and v.value.is_zero()


def test_denominator_root_maps_to_infinity():
    f = RationalMap(Poly(F3, [1, 0, 1]), Poly(F3, [1, 1]))
    assert eval_p1(f, 2).is_infinity  # den(2) = 0, num(2) = 2


def test_equal_degrees_at_infinity_take_leading_ratio():
    f = RationalMap(Poly(F7, [1, 0, 3]), Poly(F7, [0, 5, 2]))
    v = eval_p1(f, P1Point.infinity(F7))
    assert v.value == F7.from_int(3) / F7.from_int(2)


def test_reduction_cancels_common_factor():
    x_plus_1 = Poly(F5, [1, 1])
    f = RationalMap(x_plus_1 * Poly(F5, [0, 1]), x_plus_1 * Poly(F5, [1, 0, 1]))
    assert f.degree == 2
    assert f.den.lead == F5.one()


# -- composition ----------------------------------------------------------------


def test_compose_power_maps():
    f = compose(cyclic(F5, 2), cyclic(F5, 3))
    assert f == cyclic(F5, 6)


def test_compose_inversion_is_identity():
    inv = RationalMap(Poly(F5, [1]), Poly(F5, [0, 1]))
    assert compose(inv, inv) == RationalMap(Poly(F5, [0, 1]))


def test_compose_degree_multiplies_for_rational_inner():
    inv = RationalMap(Poly(F7, [1]), Poly(F7, [0, 1]))
    f = RationalMap(Poly(F7, [1, 2, 0, 1]), Poly(F7, [3, 1]))
    assert compose(f, inv).degree == f.degree
    assert compose(inv, f).degree == f.degree


def test_eval_commutes_with_compose_on_small_p1():
    for t in (1, 2, 3):
        K = make_extension(F3, t)
        f = RationalMap(Poly(F3, [1, 0, 2]), Poly(F3, [2, 1]))
        g = RationalMap(Poly(F3, [0, 1, 1]), Poly(F3, [1, 1]))
        fg = compose(f, g)
        points = [P1Point.of(K.from_index(i)) for i in range(K.order)]
        points.append(P1Point.infinity(K))
        for pt in points:
            assert eval_p1(fg, pt) == eval_p1(f, eval_p1(g, pt))


# -- families ---------------------------------------------------------------------


def test_dickson_known_coefficients():
    assert coeff_indices(dickson(F7, 3, 1)) == [0, 4, 0, 1]  # x^3 - 3x


def test_dickson_zero_parameter_is_power_map():
    assert dickson(F5, 4, 0) == cyclic(F5, 4)


def test_dickson_functional_equation_exhaustive_small():
    for q, n in ((5, 6), (7, 5), (9, 7)):
        ctx = make_field(*( (3, 2) if q == 9 else (q, 1) ))
        K = make_extension(ctx, 2)
        for ai in range(1, ctx.order):
            a = ctx.from_index(ai)
            d = dickson(ctx, n, a).as_poly()
            for wi in range(1, K.order, 3):
                w = K.from_index(wi)
                lhs = d(w + K.embed(a) / w)
                assert lhs == w**n + (K.embed(a) / w) ** n


def test_chebyshev_three_is_classical():
    # T_3 = 4x^3 - 3x
    assert coeff_indices(chebyshev(F7, 3)) == [0, 4, 0, 4]


def test_chebyshev_twist_literal():
    # over F_5 with parameter a: 4*a^{-1} x^3 - 3x
    a = F5.from_int(2)
    tw = chebyshev_twist(F5, 3, a)
    ainv = a.inverse()
    want = Poly(F5, [F5.zero(), F5.from_int(-3), F5.zero(), F5.from_int(4) * ainv])
    assert tw.as_poly() == want


def test_dickson_chebyshev_bridge():
    # D_{n,a}(2x)/2 = a^((n-1)/2) * twisted T_{n,a}
    for q in (5, 7, 13):
        ctx = make_field(q, 1)
        half = ctx.from_int(2).inverse()
        for n in (3, 5, 7, 9):
            for ai in range(1, q):
                a = ctx.from_index(ai)
                d_star = affine_conjugate(dickson(ctx, n, a), (half, 0))
                scale = a ** ((n - 1) // 2)
                want = chebyshev_twist(ctx, n, a).as_poly() * scale
                assert d_star == RationalMap(want)


def test_twist_semigroup_law():
    a = F7.from_int(3)
    lhs = compose(chebyshev_twist(F7, 3, a), chebyshev_twist(F7, 5, a))
    assert lhs == chebyshev_twist(F7, 15, a)


def test_dickson_parameter_twisting_composition():
    # the exact law moves the parameter: D_m(D_n(x,a), a^n) = D_{mn}(x,a)
    for ai in range(1, 5):
        a = F5.from_index(ai)
        m, n = 3, 7
        lhs = compose(dickson(F5, m, a**n), dickson(F5, n, a))
        assert lhs == dickson(F5, m * n, a)


def test_dickson_semigroup_at_unit_parameters():
    # fixed-parameter composition closes only when a^n = a
    for av in (1, -1):
        a = F5.from_int(av)
        assert compose(dickson(F5, 3, a), dickson(F5, 7, a)) == dickson(F5, 21, a)


def test_twist_inverse_law_on_base_field():
    # n*m = 1 mod q^2-1 makes the twists mutually inverse on F_q
    q = 7
    ctx = make_field(q, 1)
    n = 5
    m = pow(n, -1, q * q - 1)
    a = ctx.from_int(3)
    comp = compose(chebyshev_twist(ctx, m, a), chebyshev_twist(ctx, n, a)).as_poly()
    for i in range(q):
        x = ctx.from_index(i)
        assert comp(x) == x


def test_redei_degree_and_infinity():
    a = F7.from_int(3)  # non-square mod 7
    r = redei(F7, 5, a)
    assert r.degree == 5
    assert eval_p1(r, P1Point.infinity(F7)).is_infinity


def test_redei_matches_conjugated_power_map():
    # independent oracle: build (x-u)/(x+u) over F_{q^2}, push x^n through it
    q = 11
    ctx = make_field(q, 1)
    a = ctx.from_int(2)  # 2 is a non-square mod 11
    assert a ** ((q - 1) // 2) != ctx.one()
    K = make_extension(ctx, 2)
    u = next(
        K.from_index(i)
        for i in range(K.order)
        if K.from_index(i) * K.from_index(i) == K.embed(a)
    )
    n = 7
    r = redei(ctx, n, a)
    for xi in range(q):
        x = K.embed(ctx.from_index(xi))
        m = (x - u) / (x + u) if not (x + u).is_zero() else None
        got = eval_p1(r, ctx.from_index(xi))
        if m is None:
            continue
        y = m**n
        # invert M: y = (z-u)/(z+u)  =>  z = u(1+y)/(1-y)
        if (K.one() - y).is_zero():
            assert got.is_infinity
        else:
            z = u * (K.one() + y) / (K.one() - y)
            assert not got.is_infinity and K.embed(got.value) == z


def test_redei_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        redei(F7, 4, 3)  # even degree
    with pytest.raises(ValidationError):
        redei(F7, 5, 2)  # 2 is a square mod 7
    with pytest.raises(ValidationError):
        redei(F7, 5, 0)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31])
def test_family_coefficients_match_closed_forms(p):
    # the running products against math.comb, with a a non-square
    ctx = make_field(p, 1)
    a = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) != 1)
    for n in range(1, 61):
        for b in (1, a):
            want = [0] * (n + 1)
            for i in range(n // 2 + 1):
                want[n - 2 * i] = n * math.comb(n - i, i) // (n - i) * (-b) ** i
            assert dickson(ctx, n, b) == RationalMap(Poly(ctx, want)), (n, b)
        if n % 2:
            top = [math.comb(n, j) * a ** (j // 2) * (j % 2 == 0) for j in range(n + 1)]
            bottom = [math.comb(n, j) * a ** (j // 2) * (j % 2) for j in range(n + 1)]
            closed = RationalMap(Poly(ctx, top[::-1]), Poly(ctx, bottom[::-1]))
            assert redei(ctx, n, a) == closed, n


def dense_dickson(ctx, n, a):
    """D_n(x, a) as a dense coefficient list, as the families were once built."""
    a = ctx.from_int(a) if isinstance(a, int) else a
    out = [ctx.zero()] * (n + 1)
    for i in range(n // 2 + 1):
        out[n - 2 * i] = ctx.from_int(n * math.comb(n - i, i) // (n - i)) * (-a) ** i
    return out


def dense_chebyshev(ctx, n):
    two = ctx.from_int(2)
    return [c * two**i * two.inverse() for i, c in enumerate(dense_dickson(ctx, n, 1))]


def dense_twist(ctx, n, a):
    ainv = ctx.from_int(a).inverse()
    return [c * ainv ** ((j - 1) // 2) if j % 2 else ctx.zero()
            for j, c in enumerate(dense_chebyshev(ctx, n))]


@pytest.mark.parametrize("ctx", [F3, F5, F7, K9], ids=repr)
def test_family_terms_match_their_dense_builds(ctx):
    a = next(i for i in range(1, ctx.p) if pow(i, (ctx.p - 1) // 2, ctx.p) != 1)
    for n in range(1, 31):
        assert cyclic(ctx, n) == RationalMap(Poly(ctx, [0] * n + [1])), n
        assert cyclic(ctx, n).num.terms == ((n, ctx.one()),)
        assert dickson(ctx, n, a) == RationalMap(Poly(ctx, dense_dickson(ctx, n, a))), n
        assert chebyshev(ctx, n) == RationalMap(Poly(ctx, dense_chebyshev(ctx, n))), n
        if n % 2:
            want = RationalMap(Poly(ctx, dense_twist(ctx, n, a)))
            assert chebyshev_twist(ctx, n, a) == want, n


def redei_parts(ctx, n, a):
    """A and B of (x+u)^n = A(x) + u*B(x) with u^2 = a, dense."""
    A, B = [ctx.zero()] * (n + 1), [ctx.zero()] * (n + 1)
    for j in range(n + 1):
        (B if j % 2 else A)[n - j] = ctx.from_int(math.comb(n, j)) * a ** (j // 2)
    return Poly(ctx, A), Poly(ctx, B)


@pytest.mark.parametrize("ctx", [F3, F5, F7, K9], ids=repr)
def test_redei_equals_its_gcd_reduced_quotient(ctx):
    # redei takes no gcd; the reference does, and finds A and B coprime
    nonsquares = [
        ctx.from_index(i) for i in range(1, ctx.order)
        if ctx.from_index(i) ** ((ctx.order - 1) // 2) != ctx.one()
    ]
    assert len(nonsquares) == (ctx.order - 1) // 2
    for n in range(1, 16, 2):
        for a in nonsquares:
            A, B = redei_parts(ctx, n, a)
            assert A.gcd(B).degree == 0
            assert redei(ctx, n, a) == RationalMap(A, B), (n, a)


def stepped_dickson(ctx, n, a):
    """D_n(x, a) by exact integer stepping, as the family was built before
    Lucas's theorem: each n/(n-i) * C(n-i, i) from the one before."""
    a = ctx.from_int(a) if isinstance(a, int) else a
    terms = []  # from the top down
    c, power = 1, ctx.one()
    for i in range(n // 2 + 1):
        if i:
            c = c * (n - 2 * i + 2) * (n - 2 * i + 1) // (i * (n - i))
            power = power * -a
        terms.append((n - 2 * i, ctx.from_int(c) * power))
    return RationalMap(Poly._of_terms(ctx, reversed(terms)))


def stepped_redei(ctx, n, a):
    """The Redei map by exact stepping of C(n, j), as built before Lucas's
    theorem, made monic below like ``redei``."""
    a = ctx.from_int(a) if isinstance(a, int) else a
    A, B = [], []  # terms, from the top down
    c, power = 1, ctx.one()  # C(n, j) and a**(j // 2)
    for j in range(n + 1):
        (B if j % 2 else A).append((n - j, ctx.from_int(c) * power))
        if j % 2:
            power = power * a
        c = c * (n - j) // (j + 1)
    f = object.__new__(RationalMap)
    f._normalise(Poly._of_terms(ctx, A[::-1]), Poly._of_terms(ctx, B[::-1]))
    return f


def lucas_degrees(p, rng):
    """Every n <= 120, the n <= 5000 next to powers of p, and a sample of
    the rest: the digit patterns where Lucas's theorem and the stepping
    could part."""
    ns = set(range(1, 121))
    for k in range(2, 8):
        ns |= {n for n in (p**k - 1, p**k, p**k + 1, 2 * p**k - 1) if n <= 5000}
    ns |= {5000, 4999} | {rng.randrange(121, 5001) for _ in range(8)}
    return sorted(ns)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_lucas_families_match_exact_stepping(p):
    ctx = make_field(p, 1)
    rng = random.Random(p)
    a = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) != 1)  # a non-square
    for n in lucas_degrees(p, rng):
        for b in (1, a, 0):
            assert dickson(ctx, n, b).num.terms == stepped_dickson(ctx, n, b).num.terms, (n, b)
        if n % 2:
            got, want = redei(ctx, n, a), stepped_redei(ctx, n, a)
            assert (got.num.terms, got.den.terms) == (want.num.terms, want.den.terms), n


def test_lucas_families_match_exact_stepping_over_f9():
    # parameters outside the prime field, whose powers are read mod 8
    a = next(c for c in map(K9.from_index, range(3, 9)) if c**4 != K9.one())  # a non-square
    for n in [*range(1, 40), 80, 81, 82, 242, 243, 244, 1001]:
        assert dickson(K9, n, a).num.terms == stepped_dickson(K9, n, a).num.terms, n
        if n % 2:
            got, want = redei(K9, n, a), stepped_redei(K9, n, a)
            assert (got.num.terms, got.den.terms) == (want.num.terms, want.den.terms), n


def test_families_of_degree_180001_build_in_budget():
    # 7.97 s and 13.4 s with exact stepping; the terms against it are
    # checked above up to n = 5000, and here against math.comb at a few i
    n = 180001
    start = time.perf_counter()
    f = dickson(F3, n, 1)
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    g = redei(F5, n, 2)
    assert time.perf_counter() - start < 1.0
    assert len(f.num.terms) == 3072
    assert len(g.num.terms) + len(g.den.terms) == 144
    coeffs = dict(f.num.terms)
    for i in (0, 1, 2, 3, 4, 10, 100, 729, 6561, 59049, n // 2):
        c = (math.comb(n - i, i) + (math.comb(n - i - 1, i - 1) if i else 0)) * (-1) ** i % 3
        assert coeffs.get(n - 2 * i, F3.zero()) == F3.from_int(c), i


def test_redei_of_degree_20001_builds_in_budget():
    start = time.perf_counter()
    f = redei(F5, 20001, 2)
    assert time.perf_counter() - start < 2.0
    assert f.degree == 20001 and f.den.lead == F5.one()


FAMILIES = {
    "cyclic": lambda n: cyclic(F7, n),
    "dickson": lambda n: dickson(F7, n, 1),
    "chebyshev": lambda n: chebyshev(F7, n),
    "chebyshev_twist": lambda n: chebyshev_twist(F7, n, 3),
    "redei": lambda n: redei(F7, n, 3),  # 3 is a non-square mod 7
}


@pytest.mark.parametrize("family", FAMILIES)
def test_family_map_degree_is_capped(family):
    # the degree is checked before any coefficient is built
    build = FAMILIES[family]
    with field_cap_scope(101):
        assert build(101).degree == 101
        for n in (103, 10**12 + 1):
            with pytest.raises(CapExceededError, match="map degree"):
                build(n)


def test_families_reject_even_characteristic():
    F4 = make_field(2, 2)
    for fam in (lambda: dickson(F4, 3, 1), lambda: chebyshev(F4, 3), lambda: redei(F4, 3, 1)):
        with pytest.raises(ValidationError):
            fam()


# -- equivalences ------------------------------------------------------------------


def test_affine_identity_conjugation():
    f = cyclic(F5, 2)
    assert affine_conjugate(f, (1, 0)) == f


def test_affine_conjugation_preserves_degree():
    f = cyclic(F5, 3)
    g = affine_conjugate(f, (1, 1), (1, 1))  # both sides x+1
    assert g.degree == 3
    x = F5.from_int(2)
    assert g.as_poly()(x) == (x + 1) ** 3 + 1


# -- decomposition ------------------------------------------------------------------


def test_decompose_power_sum():
    f = Poly(F5, [1, 0, 0, 0, 0, 0, 1])  # x^6 + 1
    found = decompose_tame_poly(f)
    pairs = {(g.degree, h.degree) for g, h in found}
    assert pairs == {(2, 3), (3, 2)}
    for g, h in found:
        assert g.compose(h) == f
        assert h.coeff(0).is_zero() and h.lead == F5.one()


def test_decompose_dickson_fifteen():
    a = F7.from_int(2)
    f = dickson(F7, 15, a).as_poly()
    found = decompose_tame_poly(f)
    inner = {h for _, h in found}
    assert dickson(F7, 3, a).as_poly() in inner
    assert dickson(F7, 5, a).as_poly() in inner
    for g, h in found:
        assert g.compose(h) == f


def test_decompose_rejects_wild():
    with pytest.raises(ValidationError):
        decompose_tame_poly(Poly(F5, [0, 0, 0, 0, 0, 1]))  # x^5 over F_5


def test_indecomposable_prime_degree():
    assert decompose_tame_poly(Poly(F5, [1, 2, 0, 1])) == []


# -- map spec strings ----------------------------------------------------------------


def test_parse_named_families():
    assert parse_map_spec(F5, "cyclic:4") == cyclic(F5, 4)
    assert parse_map_spec(F7, "dickson:3,1") == dickson(F7, 3, 1)
    assert parse_map_spec(F7, "cheb:3") == chebyshev(F7, 3)
    assert parse_map_spec(F7, "cheb:3,3") == chebyshev_twist(F7, 3, 3)
    assert parse_map_spec(F7, "redei:5,3") == redei(F7, 5, 3)


def test_parse_poly_and_rat():
    assert parse_map_spec(F5, "poly:1,0,2") == RationalMap(Poly(F5, [1, 0, 2]))
    got = parse_map_spec(F5, "rat:1,0,1/2,1")
    assert got == RationalMap(Poly(F5, [1, 0, 1]), Poly(F5, [2, 1]))


def test_parse_errors_carry_columns():
    with pytest.raises(ValidationError, match="column 1"):
        parse_map_spec(F5, "nope:3")
    with pytest.raises(ValidationError, match="column 6"):
        parse_map_spec(F5, "poly:x")
    with pytest.raises(ValidationError, match="column"):
        parse_map_spec(F5, "poly:9")  # index outside F_5
    with pytest.raises(ValidationError, match="column"):
        parse_map_spec(F5, "rat:1,2")  # missing denominator
