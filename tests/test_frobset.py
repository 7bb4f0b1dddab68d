"""Progression-set arithmetic: closure, normalization, fitting."""

import math
import random

import pytest

from excov.errors import ValidationError
from excov.frobset import (
    FrobeniusSet,
    _unit_closure,
    fit_from_samples,
    from_residues,
    intersect,
    union,
)


def brute_members(s: FrobeniusSet, upto: int) -> set[int]:
    return {t for t in range(1, upto + 1) if s.contains(t)}


def unit_closure_oracle(d, residues):
    """Every product of a residue with a unit of Z/d."""
    units = [u for u in range(1, d + 1) if math.gcd(u, d) == 1]
    return frozenset((r % d) * u % d for r in residues for u in units)


def test_unit_closure_matches_unit_products():
    rng = random.Random(17)
    for d in range(1, 121):
        subsets = [set(), set(range(d)), {0}, {d - 1}]
        subsets += [set(rng.sample(range(d), rng.randrange(1, min(d, 6) + 1))) for _ in range(6)]
        subsets.append({r + d * rng.randrange(-3, 4) for r in subsets[-1]})  # outside 0..d-1
        for residues in subsets:
            assert _unit_closure(d, residues) == unit_closure_oracle(d, residues), (d, residues)
            # from_residues skips the constructor's checks; they must hold
            fs = from_residues(d, residues)
            assert FrobeniusSet(fs.modulus, fs.residues) == fs


def test_unit_closure_of_two_mod_twelve():
    s = from_residues(12, {2})
    assert s.modulus == 12
    assert s.residues == frozenset({2, 10})


def test_orbit_of_one_is_unit_group():
    s = from_residues(5, {1})
    assert s.residues == frozenset({1, 2, 3, 4})


def test_closure_can_collapse_the_modulus():
    # closing {1} under units mod 8 gives every odd class
    s = from_residues(8, {1})
    assert s == from_residues(2, {1})


def test_full_set_normalizes_to_modulus_one():
    s = from_residues(6, range(6))
    assert s.modulus == 1
    assert s.residues == frozenset({0})
    assert all(s.contains(t) for t in range(1, 20))


def test_empty_set_normalizes_to_modulus_one():
    s = from_residues(9, [])
    assert s.modulus == 1
    assert s.is_empty()
    assert not any(s.contains(t) for t in range(1, 20))


def test_modulus_minimization():
    # {1,3,5,7,9,11} mod 12 is just the odd numbers
    s = from_residues(12, {1, 3, 5, 7, 9, 11})
    assert s.modulus == 2
    assert s.residues == frozenset({1})


def test_constructor_rejects_unnormalized_values():
    with pytest.raises(ValidationError):
        FrobeniusSet(12, frozenset({2}))  # not unit-closed
    with pytest.raises(ValidationError):
        FrobeniusSet(4, frozenset({1, 3}))  # reduces to mod 2
    with pytest.raises(ValidationError):
        FrobeniusSet(0, frozenset())
    with pytest.raises(ValidationError):
        FrobeniusSet(4, frozenset({5}))


def test_contains_matches_residue_arithmetic():
    s = from_residues(12, {2})
    assert s.contains(22)
    assert 22 in s
    assert not s.contains(3)
    with pytest.raises(ValidationError):
        s.contains(0)


def test_intersection_against_brute_force():
    a = from_residues(4, {1, 2, 3})
    b = from_residues(2, {1})
    got = intersect(a, b)
    assert got == from_residues(4, {1, 3})
    horizon = 4 * math.lcm(a.modulus, b.modulus)
    assert brute_members(got, horizon) == brute_members(a, horizon) & brute_members(
        b, horizon
    )


def test_union_against_brute_force():
    a = from_residues(4, {2})
    b = from_residues(3, {1})
    got = union(a, b)
    horizon = 4 * math.lcm(a.modulus, b.modulus)
    assert brute_members(got, horizon) == brute_members(a, horizon) | brute_members(
        b, horizon
    )


def test_intersect_idempotent():
    a = from_residues(4, {1})
    assert intersect(a, a) == a


def test_fit_recovers_any_valid_set():
    pool = [
        from_residues(1, {0}),
        from_residues(1, []),
        from_residues(2, {1}),
        from_residues(4, {1, 2, 3}),
        from_residues(12, {2}),
        from_residues(5, {1, 4}),
    ]
    for s in pool:
        samples = [s.contains(t) for t in range(1, 2 * 12 + 1)]
        assert fit_from_samples(samples, 12) == s


def test_fit_of_power_map_pattern():
    # bijectivity of x^5 over F_3: gcd(5, 3^t - 1) = 1 iff t not divisible by 4
    samples = [math.gcd(5, 3**t - 1) == 1 for t in range(1, 13)]
    got = fit_from_samples(samples, 6)
    assert got == from_residues(4, {1, 2, 3})


def test_fit_alternating_pattern():
    samples = [t % 2 == 1 for t in range(1, 11)]
    assert fit_from_samples(samples, 5) == from_residues(2, {1})


def test_fit_returns_none_when_nothing_reproduces():
    # membership at t=1 only: {1} mod d is never unit-closed for d <= 4
    # unless the pattern repeats, and it does not within the window
    samples = [True] + [False] * 9
    assert fit_from_samples(samples, 4) is None


def test_fit_requires_enough_samples():
    with pytest.raises(ValidationError):
        fit_from_samples([True] * 10, 6)


def test_json_shape():
    s = from_residues(12, {2})
    assert s.to_json_dict() == {"modulus": 12, "residues": [2, 10]}
