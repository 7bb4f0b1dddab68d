"""Maps on the projective line: families, composition, decomposition."""

import math
import random

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
                assert list((A * B).coeffs) == school_mul(ctx, a, b)
                assert list(A.gcd(B).coeffs) == school_gcd(ctx, a, b)
                if not b:
                    with pytest.raises(ValidationError):
                        divmod(A, B)
                    continue
                q, r = divmod(A, B)
                assert (list(q.coeffs), list(r.coeffs)) == school_divmod(ctx, a, b)


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
