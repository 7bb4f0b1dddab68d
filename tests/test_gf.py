"""Field-tower construction and scalar arithmetic."""

import itertools
import random
import re

import numpy as np
import pytest

from excov import gf
from excov._batch import BatchField
from excov.errors import (
    CapExceededError,
    ValidationError,
    check_field_cap,
    check_power_cap,
    field_cap_scope,
)
from excov.gf import (
    FieldElem,
    _basis,
    _element_matrices,
    _is_prime,
    _prime_factors,
    _prime_list,
    make_extension,
    make_field,
    parse_field_spec,
)


def elements(ctx):
    """Every element of ctx in index order, 0 first."""
    return [ctx.from_index(i) for i in range(ctx.order)]


def brute_least_irreducible(p, k):
    """Oracle: least monic degree-k polynomial over F_p with no proper
    monic divisor, coefficient vectors ranked as little-endian integers."""

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        return tuple(out)

    def monics(deg):
        for tail in itertools.product(*[range(p)] * deg):
            yield tuple(tail) + (1,)

    for idx in range(p ** k):
        coeffs = []
        rem = idx
        for _ in range(k):
            coeffs.append(rem % p)
            rem //= p
        cand = tuple(coeffs) + (1,)
        products = set()
        for d in range(1, k // 2 + 1):
            for a in monics(d):
                for b in monics(k - d):
                    products.add(poly_mul(a, b))
        if cand not in products:
            return cand
    raise AssertionError("no irreducible found")


def test_prime_field_modulus_is_x():
    f2 = make_field(2, 1)
    assert f2.modulus == (0, 1)
    assert [e.index for e in elements(f2)] == [0, 1]


def test_unique_quadratic_over_f2():
    f4 = make_field(2, 2)
    assert f4.modulus == (1, 1, 1)  # x^2 + x + 1


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (2, 4), (3, 3), (7, 2)])
def test_least_modulus_matches_brute_force(p, k):
    assert make_field(p, k).modulus == brute_least_irreducible(p, k)


def brute_least_relative_modulus(base, t):
    """Oracle: least monic degree-t polynomial over base with no proper monic
    divisor, products of every pair of monic factors formed in scalar
    arithmetic; coefficients as element indices, low-to-high."""
    elems = elements(base)

    def poly_mul(a, b):
        out = [base.zero()] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
        return tuple(e.index for e in out)

    def monics(deg):
        for tail in itertools.product(elems, repeat=deg):
            yield tail + (base.one(),)

    products = {
        poly_mul(a, b)
        for d in range(1, t // 2 + 1)
        for a in monics(d)
        for b in monics(t - d)
    }
    q = base.order
    for idx in range(q**t):
        cand = tuple(idx // q**j % q for j in range(t)) + (1,)
        if cand not in products:
            return cand
    raise AssertionError("no irreducible found")


@pytest.mark.parametrize("q,t", [(4, 2), (4, 3), (4, 4), (9, 2), (9, 3), (9, 4)])
def test_least_relative_modulus_matches_brute_force(q, t):
    base = parse_field_spec(str(q))
    ctx = make_extension(base, t)
    got = tuple(FieldElem(base, c).index for c in ctx.modulus)
    assert got == brute_least_relative_modulus(base, t)


def least_quadratic_index(p):
    """Oracle for odd p: least index c0 + c1*p of an irreducible
    x^2 + c1 x + c0, one whose discriminant is a non-square (Euler)."""
    idx = 0
    while pow((idx // p) ** 2 - 4 * (idx % p), (p - 1) // 2, p) in (0, 1):
        idx += 1
    return idx


def assert_matrices_match_scalar_products(ctx, rng, dtype=None):
    """Element and basis matrices, applied to random x, give e * x."""
    idx = [0, 1, ctx.order - 1] + [rng.randrange(ctx.order) for _ in range(20)]
    idx += [ctx.p**k for k in range(ctx.k)]
    mats = _element_matrices(ctx, idx)
    assert np.array_equal(mats[-ctx.k :], _basis(ctx))
    if dtype is not None:
        mats = mats.astype(dtype)
    for i, M in zip(idx, mats):
        e = ctx.from_index(i)
        for _ in range(4):
            x = ctx.from_index(rng.randrange(ctx.order))
            row = np.array(x.prime_coeffs(), dtype=mats.dtype) @ M % ctx.p
            assert tuple(int(c) for c in row) == (e * x).prime_coeffs(), (i, x)


MATRIX_FIELDS = [
    make_field(7, 1),  # D = 1
    make_field(65537, 1),  # D = 1, products past 2**31
    make_field(3, 5),
    make_field(2, 8),
    make_extension(make_field(2, 2), 3),  # two-level towers
    make_extension(make_field(3, 2), 3),
    make_extension(make_field(5, 2), 2),
    make_extension(make_extension(make_field(2, 2), 2), 2),  # three levels
]


def tower_id(ctx):
    """p, then the relative degree of each step up: 2/2/3 is F_64 over F_4."""
    degrees = []
    while ctx.base is not None:
        degrees.append(ctx.rel_degree)
        ctx = ctx.base
    return "/".join(map(str, [ctx.p] + degrees[::-1]))


@pytest.mark.parametrize("ctx", MATRIX_FIELDS, ids=tower_id)
def test_element_matrices_match_scalar_products(ctx):
    assert_matrices_match_scalar_products(ctx, random.Random(ctx.order))


def test_element_matrices_are_exact_in_float64_at_the_widest_table_field():
    # the largest F_{p^2} BatchField accepts, (Q - 1)**2 < 2**63: _batch runs
    # its matrices in float64, exact while D * (p - 1)**2 < 2**53
    p = 55109
    assert (p * p - 1) ** 2 >= 2**63
    while not (_is_prime(p) and (p * p - 1) ** 2 < 2**63):
        p -= 1
    with field_cap_scope(2**32):
        ctx = make_field(p, 2)
    assert 2 * (p - 1) ** 2 < 2**53
    idx = least_quadratic_index(p)
    assert ctx.modulus == (idx % p, idx // p, 1)
    assert_matrices_match_scalar_products(ctx, random.Random(p), np.float64)
    g, m = BatchField(ctx).generator(), ctx.order - 1
    assert all(g ** (m // r) != ctx.one() for r in _prime_factors(m))


@pytest.mark.parametrize("p", [2**31 - 1, 2147483659])
def test_quadratic_extension_across_the_int64_product_edge(p):
    # 2 * (p - 1)**2 fits int64 at 2**31 - 1 and not at the next prime, where
    # the engine's products go to Python integers
    assert (2 * (p - 1) ** 2 < 2**63) == (p < 2**31)
    with field_cap_scope(2**64):
        ctx = make_field(p, 2)
    idx = least_quadratic_index(p)
    assert ctx.modulus == (idx % p, idx // p, 1)
    assert_matrices_match_scalar_products(ctx, random.Random(p))


def test_f9_modulus_value():
    assert make_field(3, 2).modulus == (1, 0, 1)  # x^2 + 1


def test_make_field_rejects_bad_args():
    with pytest.raises(ValidationError):
        make_field(4, 1)
    with pytest.raises(ValidationError):
        make_field(3, 0)


def test_identity_extension_returns_same_object():
    f3 = make_field(3, 1)
    assert make_extension(f3, 1) is f3


def test_extension_frobenius_fixes_exactly_base():
    f3 = make_field(3, 1)
    f9 = make_extension(f3, 2)
    fixed = [e for e in elements(f9) if e ** 3 == e]
    assert len(fixed) == 3
    assert set(fixed) == {f9.embed(e) for e in elements(f3)}


def test_degree_two_tower_over_f4():
    f4 = make_field(2, 2)
    f64 = make_extension(f4, 3)
    assert f64.order == 64
    assert f64.k == 6 and f64.base is f4  # chain degrees multiply
    fixed = [e for e in elements(f64) if e ** 4 == e]
    assert len(fixed) == 4
    assert set(fixed) == {f64.embed(e) for e in elements(f4)}


def test_enumerate_starts_at_zero_and_counts():
    f4 = make_field(2, 2)
    elems = elements(f4)
    assert len(elems) == 4
    assert elems[0].is_zero()
    assert len(set(elems)) == 4


def test_product_of_nonzero_elements_is_minus_one():
    f9 = make_field(3, 2)
    acc = f9.one()
    for e in elements(f9):
        if not e.is_zero():
            acc = acc * e
    assert acc == -f9.one()


@pytest.mark.parametrize(
    "p,k",
    [(2, 12), (3, 7), (5, 5), (7, 4), (11, 3), (13, 2), (61, 1)],
)
def test_nonzero_elements_have_multiplicative_order(p, k):
    # a^(q-1) = 1 exhaustively, q <= 4096
    ctx = make_field(p, k)
    q = ctx.order
    assert q <= 4096
    one = ctx.one()
    for e in elements(ctx):
        if not e.is_zero():
            assert e ** (q - 1) == one


@pytest.mark.parametrize("p,k,t", [(3, 1, 3), (5, 1, 2), (2, 2, 2), (3, 2, 2)])
def test_field_axioms_on_samples(p, k, t):
    base = make_field(p, k)
    ctx = make_extension(base, t)
    elems = elements(ctx)
    sample = elems[:: max(1, len(elems) // 17)]
    one = ctx.one()
    for a in sample:
        if not a.is_zero():
            assert a * a.inverse() == one
        for b in sample:
            assert a * b == b * a
            for c in sample[:5]:
                assert (a + b) * c == a * c + b * c
                assert (a * b) * c == a * (b * c)


def test_power_edge_cases():
    assert [gf._power(3, e, int.__mul__, 1) for e in range(9)] == [3 ** e for e in range(9)]
    for ctx in (make_field(7, 1), make_field(3, 3)):
        one = ctx.one()
        assert ctx.zero() ** 0 == one
        assert ctx.gen() ** 0 == one
        x = ctx.from_index(5)
        assert x ** -2 == (x * x).inverse()


def test_embedding_respects_arithmetic():
    f3 = make_field(3, 1)
    f9 = make_extension(f3, 2)
    for a in elements(f3):
        for b in elements(f3):
            assert f9.embed(a * b) == f9.embed(a) * f9.embed(b)
            assert f9.embed(a + b) == f9.embed(a) + f9.embed(b)


def test_mixed_tower_arithmetic_coerces_upward():
    f3 = make_field(3, 1)
    f9 = make_extension(f3, 2)
    a = f3.from_int(2)
    b = f9.gen()
    assert a * b == f9.embed(a) * b


def test_index_roundtrip_and_prime_coeffs():
    f27 = make_field(3, 3)
    for i in range(27):
        e = f27.from_index(i)
        assert e.index == i
        assert e.prime_coeffs() == (i % 3, i // 3 % 3, i // 9)  # little-endian rank


def test_parse_field_spec_and_element():
    ctx = parse_field_spec("3^2")
    assert ctx.order == 9
    assert parse_field_spec("7").order == 7
    with pytest.raises(ValidationError):
        parse_field_spec("3^x")


def test_parse_field_spec_accepts_plain_prime_powers():
    ctx = parse_field_spec("9")
    assert (ctx.p, ctx.k) == (3, 2)
    assert parse_field_spec(" 3^2 ") is ctx
    assert parse_field_spec("128").order == 128
    with pytest.raises(ValidationError, match="not a prime power"):
        parse_field_spec("12")
    with pytest.raises(ValidationError, match="at least 2"):
        parse_field_spec("1")
    with pytest.raises(ValidationError, match="p\\^k or an integer"):
        parse_field_spec("nine")


def test_parse_field_spec_reads_long_parts_by_their_length():
    long = "1" * 5000  # past Python's int() limit on digit strings
    cases = (
        (f"2^{long}", "2^<5000-digit integer>"),
        (long, "<5000-digit integer>"),
        (f"{long}^3", "<5000-digit integer>^3"),
    )
    for spec, size in cases:
        with pytest.raises(CapExceededError, match=f"size {re.escape(size)} exceeds"):
            parse_field_spec(spec)
    # leading zeros do not count, and a short p or k is still validated
    assert parse_field_spec("3^" + "0" * 5000 + "2").order == 9
    for spec in (f"1^{long}", f"{long}^0"):
        with pytest.raises(ValidationError, match="p >= 2 and k >= 1"):
            parse_field_spec(spec)


def test_cap_is_checked_before_trial_division(monkeypatch):
    # an over-cap order is refused without factoring it or testing p
    def trial_division(n):
        raise AssertionError(f"trial division of {n} ran before the cap check")

    monkeypatch.setattr(gf, "_is_prime", trial_division)
    monkeypatch.setattr(gf, "_prime_factors", trial_division)
    monkeypatch.setenv("EXCOV_CAP", str(2**24))
    for spec in ("100000000000031", "100000000000031^1", "100000000000032", "4^20"):
        with pytest.raises(CapExceededError):
            parse_field_spec(spec)
    with pytest.raises(CapExceededError):
        make_field(100000000000031, 1)


def test_oversized_power_is_refused_with_a_short_message():
    # 2^20000 has 6,021 digits, past the integer-to-string conversion limit
    F3 = make_field(3, 1)
    for call, name in (
        (lambda: make_field(2, 20000), "2^20000"),
        (lambda: make_extension(F3, 20000), "3^20000"),
        (lambda: make_field(2, 10 ** 3000), "2^<9966-bit integer>"),
        (lambda: check_field_cap(10 ** 5000), "<16610-bit integer>"),
    ):
        with pytest.raises(CapExceededError) as exc:
            call()
        assert name in str(exc.value) and len(str(exc.value)) < 80


def test_power_cap_refuses_exactly_past_the_cap(monkeypatch):
    monkeypatch.setenv("EXCOV_CAP", "81")
    check_power_cap(3, 4)
    check_power_cap(9, 2)
    for base, exp in ((3, 5), (2, 7), (82, 1), (9, 3)):
        with pytest.raises(CapExceededError, match=f"size {base}\\^{exp} exceeds cap 81"):
            check_power_cap(base, exp)


def test_prime_list_matches_primality():
    assert _prime_list(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert _prime_list(30, lo=3)[:3] == [3, 5, 7]
    assert _prime_list(1) == []
    assert _prime_list(500, lo=100) == [n for n in range(100, 501) if _is_prime(n)]


def test_cap_enforced(monkeypatch):
    monkeypatch.setenv("EXCOV_CAP", "100")
    with pytest.raises(CapExceededError):
        make_field(2, 31)
    monkeypatch.delenv("EXCOV_CAP")


def test_cap_holds_for_fields_built_before(monkeypatch):
    # the construction is cached, the cap check is not
    ctx = make_field(3, 5)
    monkeypatch.setenv("EXCOV_CAP", "100")
    with pytest.raises(CapExceededError):
        make_field(3, 5)
    monkeypatch.delenv("EXCOV_CAP")
    assert make_field(3, 5) is ctx


def test_determinism_of_make_field():
    a = make_field(5, 3)
    b = make_field(5, 3)
    assert a.modulus == b.modulus and a is b
