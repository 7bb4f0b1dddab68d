import math
import random

import pytest

from excov.errors import CapExceededError, ValidationError
from excov.gf import make_field
from excov.grouptheory import (
    MonodromyData,
    Perm,
    _orbit_labels,
    block_swap,
    cyclic_cover_model,
    dickson_cover_model,
    fiber_tensor,
    group_from_gens,
)
from excov.pencil import (
    kf_cross_check,
    pencil_scan,
    stable_component_count,
)
from excov.projmap import Poly


def poly(p, coeffs):
    return Poly(make_field(p, 1), coeffs)


def naive_report(p, coeffs):
    """Everything recomputed the slow way, straight from the definitions."""

    def f(x):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        return acc

    sqrt_count = [0] * p  # square roots of each residue
    for y in range(p):
        sqrt_count[y * y % p] += 1

    e = []
    for lam in range(p):
        pts = sum(sqrt_count[(f(x) + lam) % p] for x in range(p))
        e.append(pts - p)
    n_f = sum(
        1 for x in range(p) for y in range(p) if x != y and f(x) == f(y)
    )
    return e, sum(v * v for v in e), n_f


def test_identity_on_the_spec_examples():
    r = pencil_scan(poly(5, [0, 1]))
    assert r.n_f == 0 and r.w == 0 and r.k_f_estimate == 0

    r = pencil_scan(poly(5, [0, 0, 1]))
    assert r.n_f == 4 and r.w == 20

    r = pencil_scan(poly(7, [0, 0, 0, 1]))
    assert r.n_f == 12 and r.w == 84


def test_against_naive_enumeration():
    cases = (
        (3, [0, 0, 1]),
        (3, [2, 1, 0, 1]),
        (5, [1, 2, 3]),
        (7, [0, 3, 0, 1]),
        (11, [2, 0, 0, 0, 1]),
        (13, [1, 1, 1, 1]),
        (503, [7, 0, 400, 1, 0, 3]),
    )
    for p, coeffs in cases:
        r = pencil_scan(poly(p, coeffs))
        e, w, n_f = naive_report(p, coeffs)
        assert list(r.e_values) == e
        assert r.w == w and r.n_f == n_f
        assert r.identity_ok


def test_identity_holds_for_random_polys():
    rng = random.Random(99)
    primes = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101]
    for _ in range(60):
        p = rng.choice(primes)
        deg = rng.randint(1, 6)
        coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
        r = pencil_scan(poly(p, coeffs))
        assert r.w == r.p * r.n_f


def test_power_map_collision_counts():
    # x^n collides along y = zeta x, so N_f = (gcd(n, p-1) - 1) * (p - 1)
    for p in (7, 11, 13, 31):
        for n in (2, 3, 5):
            coeffs = [0] * n + [1]
            r = pencil_scan(poly(p, coeffs))
            k = math.gcd(n, p - 1) - 1
            assert r.n_f == k * (p - 1)
            assert r.k_f_estimate == k


def test_bijective_maps_have_zero_estimate():
    # gcd(5, 7-1) = 1: the quintic permutes F_7
    r = pencil_scan(poly(7, [0, 0, 0, 0, 0, 1]))
    assert r.n_f == 0 and r.k_f_estimate == 0 and r.deviation == 0


def test_validation(monkeypatch):
    with pytest.raises(ValidationError):
        pencil_scan(poly(5, [3]))  # constant
    with pytest.raises(ValidationError):
        pencil_scan(Poly(make_field(2, 1), [0, 1]))
    with pytest.raises(ValidationError):
        pencil_scan(Poly(make_field(5, 2), [0, 1]))  # not a prime field
    # the correlation costs p^2, checked against the field cap
    monkeypatch.setenv("EXCOV_CAP", "600000")
    assert 773 ** 2 <= 600000 < 787 ** 2  # consecutive primes
    assert pencil_scan(poly(773, [0, 0, 1])).identity_ok
    with pytest.raises(CapExceededError):
        pencil_scan(poly(787, [0, 0, 1]))


def test_stable_components_power_map():
    # components y = zeta x survive exactly when zeta lives downstairs
    for n, q in ((5, 11), (5, 7), (3, 7), (4, 7)):
        model = cyclic_cover_model(n, q)
        assert stable_component_count(model) == math.gcd(n, q - 1) - 1


def test_stable_components_follow_tau_not_geometry():
    # same geometric group, different tau: the count must move
    assert stable_component_count(cyclic_cover_model(5, 11)) == 4
    assert stable_component_count(cyclic_cover_model(5, 12)) == 0


def component_oracle(model):
    """stable_component_count from the diagonal action on all n^2 pairs:
    the off-diagonal orbits that tau's pair action does not move."""
    gens = list(model.group.generators)
    n = model.group.degree
    labels = _orbit_labels([g.images for g in fiber_tensor(gens, gens)], n * n)
    tau_pair = fiber_tensor([model.tau], [model.tau])[0]
    moved = {labels[x] for x, y in enumerate(tau_pair.images) if labels[y] != labels[x]}
    off_diagonal = {labels[x] for x in range(n * n) if x // n != x % n}
    return len(off_diagonal - moved)


def block_sum(a, b):
    return Perm(a.images + tuple(v + a.degree for v in b.images))


def random_model(rng):
    """A seeded cyclic or Dickson cover model, or two on disjoint blocks:
    their direct product, or one action twice with tau kept or swapping
    the blocks.  The last two are intransitive."""

    def one():
        n = rng.randrange(1, 12)
        q = rng.choice([q for q in range(2, 30) if math.gcd(n, q) == 1])
        if n >= 3 and n % 2 and rng.random() < 0.5:
            return dickson_cover_model(n, q)
        return cyclic_cover_model(n, q)

    A = one()
    shape = rng.choice(("one", "product", "twice"))
    if shape == "one":
        return A
    n = A.group.degree
    if shape == "twice":
        gens = [block_sum(g, g) for g in A.group.generators]
        tau = block_sum(A.tau, A.tau)
        if rng.random() < 0.5:
            tau = tau * block_swap(n)
    else:
        B = one()
        one_a, one_b = Perm.identity(n), Perm.identity(B.group.degree)
        gens = [block_sum(g, one_b) for g in A.group.generators]
        gens += [block_sum(one_a, g) for g in B.group.generators]
        tau = block_sum(A.tau, B.tau)
    return MonodromyData(group_from_gens(gens), tau)


def test_stable_components_match_pair_action_on_random_models():
    rng = random.Random(20)
    counts = set()
    for _ in range(400):
        model = random_model(rng)
        got = stable_component_count(model)
        assert got == component_oracle(model), (
            [g.images for g in model.group.generators],
            model.tau.images,
        )
        counts.add(got)
    assert len(counts) > 5  # not all zero or all one value


def test_cross_check_split_case():
    # 11 = 1 mod 5: all four collision components are rational
    out = kf_cross_check(poly(11, [0, 0, 0, 0, 0, 1]), cyclic_cover_model(5, 11))
    assert out.model_count == 4
    assert out.report.k_f_estimate == 4
    assert out.ok


def test_cross_check_inert_case():
    # ord(7 mod 5) = 4: nothing survives, and N_f is small
    out = kf_cross_check(poly(7, [0, 0, 0, 0, 0, 1]), cyclic_cover_model(5, 7))
    assert out.model_count == 0
    assert out.report.n_f == 0
    assert out.ok


def test_cross_check_degree_one():
    out = kf_cross_check(poly(13, [4, 1]), cyclic_cover_model(1, 13))
    assert out.model_count == 0 and out.report.k_f_estimate == 0
    assert out.ok


def test_cross_check_dickson_model():
    # reflections identify zeta with 1/zeta; over q = 3, t = 1 nothing is stable
    f5 = make_field(3, 1)
    # Dickson quintic with a = 1 over F_3: x^5 + x^3 + x  (low to high: 0,1,0,1,0,1)
    f = Poly(f5, [0, 1, 0, 1, 0, 1])
    out = kf_cross_check(f, dickson_cover_model(5, 3))
    assert out.ok


def test_report_json_shape():
    doc = pencil_scan(poly(5, [0, 0, 1])).to_json_dict()
    assert doc["p"] == 5 and doc["n_f"] == 4 and doc["w"] == 20
    assert doc["coeffs"] == [0, 0, 1]
    assert len(doc["e_values"]) == 5
