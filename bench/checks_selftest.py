"""Tests of the benchmark's own reference rules and failure accounting.

    python3 -m pytest bench/checks_selftest.py

Each closed-form rule in checks.py is compared with brute force over
plain integers on small prime fields (and F_{p^2} for the even-degree
Redei case), and the small counting helpers with cases worked by hand.
The last tests show that a wrong output or a raising operation is counted
as a failed operation while the round goes on to its end.  The file name
keeps it out of the repository's default test collection.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

PRIMES = (3, 5, 7, 11, 13, 17, 19)


def _is_perm_of_line(images: list[int], size: int) -> bool:
    return sorted(images) == list(range(size))


def _nonsquare(p: int) -> int:
    return next(a for a in range(2, p) if checks.legendre(a, p) == -1)


# -- brute force over F_p and F_{p^2}; infinity is the index p (or p^2) ------------


def _power_images(n: int, p: int) -> list[int]:
    return [pow(x, n, p) for x in range(p)] + [p]


def _dickson_values(n: int, a: int, p: int) -> list[int]:
    """D_n(x, a) by D_0 = 2, D_1 = x, D_k = x D_{k-1} - a D_{k-2}."""
    out = []
    for x in range(p):
        d0, d1 = 2 % p, x
        for _ in range(n - 1):
            d0, d1 = d1, (x * d1 - a * d0) % p
        out.append(d1 if n else d0)
    return out


class Fp2:
    """F_p[w] / (w^2 - a) for a non-square a; elements are pairs (c0, c1)."""

    def __init__(self, p: int):
        self.p, self.a = p, _nonsquare(p)

    def mul(self, x, y):
        p, a = self.p, self.a
        return ((x[0] * y[0] + a * x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p)

    def inv(self, x):
        p, a = self.p, self.a
        norm = (x[0] * x[0] - a * x[1] * x[1]) % p
        ni = pow(norm, p - 2, p)
        return (x[0] * ni % p, -x[1] * ni % p)

    def elements(self):
        return [(c0, c1) for c1 in range(self.p) for c0 in range(self.p)]

    def index(self, x) -> int:
        return x[0] + self.p * x[1]


def _redei_parts(n: int, a: int, p: int) -> tuple[list[int], list[int]]:
    """(x + u)^n = A(x) + u B(x) with u^2 = a; coefficients low to high."""
    A, B = [0] * (n + 1), [0] * (n + 1)
    for j in range(n + 1):
        c = math.comb(n, j) % p
        if j % 2 == 0:
            A[n - j] = c * pow(a, j // 2, p) % p
        else:
            B[n - j] = c * pow(a, (j - 1) // 2, p) % p
    return A, B


def _redei_images_t1(n: int, p: int) -> list[int]:
    a = _nonsquare(p)
    A, B = _redei_parts(n, a, p)
    out = []
    for num, den in zip(checks.poly_values(A, p), checks.poly_values(B, p)):
        out.append(p if den == 0 else num * pow(den, p - 2, p) % p)
    return out + [p]  # deg A = n > deg B, so infinity is fixed


def _redei_images_t2(n: int, p: int) -> list[int]:
    F = Fp2(p)
    A, B = _redei_parts(n, _nonsquare(p), p)
    Q = p * p
    out = []
    for x in F.elements():
        num, den = (0, 0), (0, 0)
        for c in reversed(A):
            num = F.mul(num, x)
            num = ((num[0] + c) % p, num[1])
        for c in reversed(B):
            den = F.mul(den, x)
            den = ((den[0] + c) % p, den[1])
        out.append(Q if den == (0, 0) else F.index(F.mul(num, F.inv(den))))
    return out + [Q]


def _perm_order(images: list[int]) -> int:
    order = 1
    for length in _cycle_lengths(images):
        order = math.lcm(order, length)
    return order


def _cycle_lengths(images: list[int]) -> list[int]:
    seen, out = set(), []
    for s in range(len(images)):
        if s in seen:
            continue
        x, n = s, 0
        while x not in seen:
            seen.add(x)
            x, n = images[x], n + 1
        out.append(n)
    return out


# -- closed-form rules against brute force ------------------------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_power_rule_fibers_and_period(p):
    for n in range(1, 3 * p):
        images = _power_images(n, p)
        assert checks.power_bijective(n, p) == _is_perm_of_line(images, p + 1)
        fibers: dict[int, int] = {}
        for v in range(p + 1):
            k = images.count(v)
            fibers[k] = fibers.get(k, 0) + 1
        assert checks.power_fibers(n, p) == fibers
        if checks.power_bijective(n, p):
            assert checks.power_period(n, p) == _perm_order(images)


@pytest.mark.parametrize("p", PRIMES)
def test_dickson_rule(p):
    for n in range(1, 2 * p + 3):
        for a in range(1, p):
            values = _dickson_values(n, a, p) + [p]
            assert checks.dickson_bijective(n, p) == _is_perm_of_line(values, p + 1), (n, a)


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
def test_redei_rule_odd_and_even_degree(p):
    for n in range(1, 14, 2):
        assert checks.redei_bijective(n, p, 1) == _is_perm_of_line(_redei_images_t1(n, p), p + 1)
        assert checks.redei_bijective(n, p, 2) == _is_perm_of_line(
            _redei_images_t2(n, p), p * p + 1
        ), (n, p)


def test_composition_rule_is_both_factors():
    # x^3 after D_5(x, 1) over F_p, against the product of the two rules
    for p in PRIMES:
        inner = _dickson_values(5, 1, p)
        images = [pow(v, 3, p) for v in inner] + [p]
        want = checks.power_bijective(3, p) and checks.dickson_bijective(5, p)
        assert _is_perm_of_line(images, p + 1) == want


def test_mult_order_and_gl2_order():
    assert checks.mult_order(2, 7) == 3
    assert checks.mult_order(3, 7) == 6
    assert checks.mult_order(5, 1) == 1
    with pytest.raises(ValueError):
        checks.mult_order(2, 6)
    # |GL_2(F_3)| = 48 and |GL_2(Z/9)| = 3^4 * 48
    assert checks.gl2_order(3, 1) == 48
    assert checks.gl2_order(3, 2) == 81 * 48
    count = sum(
        1 for a in range(9) for b in range(9) for c in range(9) for d in range(9)
        if (a * d - b * c) % 3
    )
    assert count == checks.gl2_order(3, 2)


def test_mul_orbit_count():
    # 2 has order 4 mod 5: one orbit; order 3 mod 7: two orbits;
    # mod 9 the orbits of 2 are the units and {3, 6}
    assert checks.mul_orbit_count(5, 2) == 1
    assert checks.mul_orbit_count(7, 2) == 2
    assert checks.mul_orbit_count(9, 2) == 2
    for n in range(2, 30):
        for q in range(2, 12):
            if math.gcd(n, q) == 1:
                images = [0] + [c * q % n for c in range(1, n)]
                assert checks.mul_orbit_count(n, q) == checks.cycle_count(images) - 1


def test_orbit_genus_and_products():
    # dihedral triple of degree 3 (reflections and a 3-cycle): genus 0
    r1, r2 = (2, 1, 0), (0, 2, 1)
    rot = tuple(r2[r1[x]] for x in range(3))  # r1 then r2
    inv = tuple(sorted(range(3), key=lambda x: rot[x]))
    assert checks.product_is_one([r1, r2, inv])
    assert not checks.product_is_one([r1, r2, rot])
    assert checks.is_transitive([r1, r2, inv])
    assert checks.rh_genus([r1, r2, inv]) == 0
    # an n-cycle and its inverse: genus 0
    cyc = tuple((i + 1) % 6 for i in range(6))
    back = tuple((i - 1) % 6 for i in range(6))
    assert checks.rh_genus([cyc, back]) == 0
    # four transpositions of two letters: the elliptic double cover, genus 1
    swap = (1, 0)
    assert checks.rh_genus([swap] * 4) == 1
    assert not checks.is_transitive([(0, 1, 2), (1, 0, 2)])
    assert checks.cycle_count((1, 0, 2, 4, 3)) == 3


def test_collision_count_and_pencil_identity():
    # x^2 over F_5 takes values 0, 1, 4, 4, 1: N_f = 2 + 2
    assert checks.poly_values([0, 0, 1], 5) == [0, 1, 4, 4, 1]
    assert checks.collision_count([0, 0, 1], 5) == 4
    for p in (7, 11, 13):
        for coeffs in ([1, 2, 0, 1], [0, 3, 1], [2, 0, 0, 0, 1]):
            values = checks.poly_values(coeffs, p)
            w = sum(sum(checks.legendre(v + lam, p) for v in values) ** 2 for lam in range(p))
            assert w == p * checks.collision_count(coeffs, p)


def test_curve_trace_and_isogeny_rule():
    ogg = (0, -1, 0, 1, 0)
    for ell in (5, 7, 11, 13, 17):
        # with a1 = a3 = 0, #E = ell + 1 + sum of Legendre symbols of the cubic
        chi = sum(checks.legendre(x**3 - x**2 + x, ell) for x in range(ell))
        assert checks.curve_trace(ogg, ell) == -chi
        assert abs(checks.curve_trace(ogg, ell)) <= 2 * math.isqrt(ell) + 1
    # s_1 = a, s_2 = a^2 - 2 ell; bijective iff 1 - s_t + ell^t and
    # 1 + s_t + ell^t are both nonzero mod p
    assert not checks.isogeny_bijective(1, 5, 5, 1)  # 1 - 1 + 5 = 5
    assert not checks.isogeny_bijective(2, 7, 5, 1)  # 1 + 2 + 7 = 10
    assert checks.isogeny_bijective(1, 7, 5, 1)  # 7 and 9
    assert not checks.isogeny_bijective(1, 5, 5, 2)  # s_2 = -9: 1 + 9 + 25 = 35
    assert checks.isogeny_bijective(1, 7, 5, 2)  # s_2 = -13: 63 and 37


def test_tower_depth_and_series_checks():
    assert checks.tower_depth(3, 600_000, 12) == 12
    assert checks.tower_depth(9, 600_000, 12) == 6
    assert checks.tower_depth(5, 2**22, 24) == 9
    assert checks.tower_depth(4194301, 2**22, 24) == 1
    assert checks.check_series([True, False], [True, False], "x") == []
    assert checks.check_series([True, True], [True, False], "x")
    assert checks.check_series([True], [True, False], "x")
    assert checks.check_fit((2, {1}), [True, False, True], "x") == []
    assert checks.check_fit((2, {1}), [True, True, True], "x")
    assert checks.check_fit(None, [True, True], "x") == []
    assert checks.check_fibers({1: 4}, 3, "x") == []
    assert checks.check_fibers({0: 1, 2: 1, 1: 2}, 3, "x") == []
    assert checks.check_fibers({1: 3}, 3, "x")


def test_check_scan_on_a_brute_force_power_map():
    for p in (7, 11, 13):
        for n in (2, 3, 5):
            images = _power_images(n, p)
            fibers: dict[int, int] = {}
            for v in range(p + 1):
                k = images.count(v)
                fibers[k] = fibers.get(k, 0) + 1
            bijective = _is_perm_of_line(images, p + 1)
            period = _perm_order(images) if bijective else None
            rule = lambda t: checks.power_bijective(n, p**t)  # noqa: E731
            records = [(1, bijective, fibers, period)]
            assert checks.check_scan("x", p, 1, rule, 1, records, None, n) == []
            assert checks.check_scan("x", p, 1, rule, 2, records, None, n)
            wrong = [(1, not bijective, fibers, period)]
            assert checks.check_scan("x", p, 1, rule, 1, wrong, None, n)
            if bijective:
                assert checks.check_scan("x", p, 1, rule, 1, [(1, True, fibers, period + 1)], None, n)


# -- failure accounting -----------------------------------------------------------------


def _structural_ops():
    return workloads.operations("structural", workloads.inputs("structural", 1))


def test_wrong_output_is_a_failed_operation_not_an_abort():
    ops = _structural_ops()
    component = next(op for op in ops if op.name.startswith("component"))
    n = int(component.name.split("[")[1].split(",")[0])
    good = workloads.Op("good", component.call, component.check)
    wrong = workloads.Op("wrong", lambda: (n - 1, 0), component.check)
    raising = workloads.Op("raising", lambda: 1 // 0, component.check)
    malformed = workloads.Op("malformed", lambda: None, ops[0].check)
    result = worker.run_round([good, wrong, raising, malformed, good])
    assert [row[0] for row in result["ops"]] == ["good", "wrong", "raising", "malformed", "good"]
    assert [row[2] for row in result["ops"]] == [True, False, False, False, True]
    assert "ZeroDivisionError" in result["ops"][2][4][0]


def _round(oks: list[bool], known: list[bool], factor: float = 1.0) -> dict:
    ops = [[f"op{i}", 1.0 + i, ok, kf, []] for i, (ok, kf) in enumerate(zip(oks, known))]
    samples = [(speed.REF_PY_MS * factor, speed.REF_NP_MS * factor)] * len(ops)
    return {
        "first_op": 0.0, "wall_s": 1.0, "setup_s": 0.2, "peak_rss_mb": 50.0,
        "ops": ops, "speed": samples, "factor": factor,
    }


def test_summary_counts_known_faults_as_failed_but_correct():
    args = argparse.Namespace(workload="big-field", seed=1, trace=0)
    specs = workloads.inputs("big-field", 1)
    known = [spec[2] for spec in specs]
    # every known fault fails; the run stays correct
    rounds = [_round([not k for k in known], known)] * 2
    out = run.summarize(args, rounds, True)
    assert out["correct"] is True
    assert out["attempted"] == 2 * len(specs)
    assert out["failed"] == 2 * sum(known)
    assert set(out["metrics"]) == set(run.END_TO_END_UNITS)
    # a failure outside the known faults makes the run incorrect
    oks = [not k for k in known]
    oks[known.index(False)] = False
    out = run.summarize(args, [_round(oks, known)], True)
    assert out["correct"] is False and out["failed"] == sum(known) + 1
    # an unfinished round counts in full as failed
    out = run.summarize(args, [], False)
    assert out["correct"] is False and out["attempted"] == out["failed"] == len(specs)


def test_times_are_divided_by_the_round_speed_factor():
    args = argparse.Namespace(workload="structural", seed=1, trace=0)
    n = len(workloads.inputs("structural", 1))
    oks = [True] * n
    base = run.summarize(args, [_round(oks, [False] * n)], True)["metrics"]
    slow = run.summarize(args, [_round(oks, [False] * n, factor=2.0)], True)["metrics"]
    assert slow["wall_s"]["value"] == pytest.approx(base["wall_s"]["value"] / 2)
    assert slow["op_p50_ms"]["value"] == pytest.approx(base["op_p50_ms"]["value"] / 2)
    assert slow["peak_rss_mb"] == base["peak_rss_mb"]


def test_speed_factors_are_one_at_the_reference_times():
    ref = (speed.REF_PY_MS, speed.REF_NP_MS)
    assert speed.factor([ref] * 3) == pytest.approx(1.0)
    assert speed.factor([(2 * ref[0], 2 * ref[1])]) == pytest.approx(2.0)
    # a sample 4x slow in a round at the reference speed counts 2x
    factors = speed.op_factors([ref, ref, (4 * ref[0], 4 * ref[1])])
    assert factors == pytest.approx([1.0, 1.0, 2.0])
    # with exponent 0.5 the same sample counts sqrt(2)
    assert speed.op_factors([ref, ref, (4 * ref[0], 4 * ref[1])], 0.5) == pytest.approx([1.0, 1.0, 2**0.5])


def test_inputs_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.inputs(name, 7) == workloads.inputs(name, 7)
        assert len(workloads.inputs(name, 7)) == len(workloads.inputs(name, 8))
    assert workloads.inputs("tower-sweep", 7) != workloads.inputs("tower-sweep", 8)
    # the overflow scans of big-field are the same under every seed
    faults = lambda s: [x for x in workloads.inputs("big-field", s) if x[2]]  # noqa: E731
    assert faults(1) == faults(2)
