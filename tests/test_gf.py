"""Field-tower construction and scalar arithmetic."""

import itertools

import pytest

from excov.errors import CapExceededError, ValidationError
from excov.gf import (
    enumerate_field,
    make_extension,
    make_field,
    parse_element,
    parse_field_spec,
)


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
    assert [e.index for e in enumerate_field(f2)] == [0, 1]


def test_unique_quadratic_over_f2():
    f4 = make_field(2, 2)
    assert f4.modulus == (1, 1, 1)  # x^2 + x + 1


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (2, 4), (3, 3), (7, 2)])
def test_least_modulus_matches_brute_force(p, k):
    assert make_field(p, k).modulus == brute_least_irreducible(p, k)


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
    fixed = [e for e in enumerate_field(f9) if e.frobenius() == e]
    assert len(fixed) == 3
    assert set(fixed) == {f9.embed(e) for e in enumerate_field(f3)}


def test_degree_two_tower_over_f4():
    f4 = make_field(2, 2)
    f64 = make_extension(f4, 3)
    assert f64.order == 64
    assert f64.k == 6 and f64.base is f4  # chain degrees multiply
    fixed = [e for e in enumerate_field(f64) if e ** 4 == e]
    assert len(fixed) == 4
    assert set(fixed) == {f64.embed(e) for e in enumerate_field(f4)}


def test_enumerate_starts_at_zero_and_counts():
    f4 = make_field(2, 2)
    elems = list(enumerate_field(f4))
    assert len(elems) == 4
    assert elems[0].is_zero()
    assert len(set(elems)) == 4


def test_product_of_nonzero_elements_is_minus_one():
    f9 = make_field(3, 2)
    acc = f9.one()
    for e in enumerate_field(f9):
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
    for e in enumerate_field(ctx):
        if not e.is_zero():
            assert e ** (q - 1) == one


@pytest.mark.parametrize("p,k,t", [(3, 1, 3), (5, 1, 2), (2, 2, 2), (3, 2, 2)])
def test_field_axioms_on_samples(p, k, t):
    base = make_field(p, k)
    ctx = make_extension(base, t)
    elems = list(enumerate_field(ctx))
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


def test_embedding_respects_arithmetic():
    f3 = make_field(3, 1)
    f9 = make_extension(f3, 2)
    for a in enumerate_field(f3):
        for b in enumerate_field(f3):
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
        assert f27.from_prime_coeffs(e.prime_coeffs()) == e


def test_parse_field_spec_and_element():
    ctx = parse_field_spec("3^2")
    assert ctx.order == 9
    assert parse_field_spec("7").order == 7
    e = parse_element(ctx, "1,2")
    assert e.prime_coeffs() == (1, 2)
    with pytest.raises(ValidationError):
        parse_field_spec("3^x")
    with pytest.raises(ValidationError):
        parse_element(ctx, "1,q")


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
