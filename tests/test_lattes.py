from fractions import Fraction
from typing import Optional

import numpy as np
import pytest

from excov.errors import CapExceededError, ValidationError
from excov.excscan import value_table
from excov.frobset import fit_from_samples
from excov.gf import FieldElem, _power, make_extension, make_field
from excov.lattes import (
    EllipticCurveF,
    EllipticCurveQ,
    _division_polys,
    base_change,
    lattes_map,
    median_value_check,
    ogg_curve,
    oit_predict,
    oit_scan,
    reduce_curve,
    trace_power_sum,
)
from excov.projmap import P1Point, Poly, RationalMap, compose, eval_p1


def curve(ell, a, b):
    ctx = make_field(ell, 1)
    return EllipticCurveF(ctx, ctx.from_int(a), ctx.from_int(b))


# the chord-and-tangent group law: the oracle for the x-line maps
Point = Optional[tuple[FieldElem, FieldElem]]


def rhs(e: EllipticCurveF, x: FieldElem) -> FieldElem:
    return x ** 3 + e.a * x + e.b


def points(e: EllipticCurveF) -> list[Point]:
    """All rational points, by trying every y at every x; None stands for
    the point at infinity."""
    pts: list[Point] = [None]
    for i in range(e.ctx.order):
        x = e.ctx.from_index(i)
        v = rhs(e, x)
        for j in range(e.ctx.order):
            y = e.ctx.from_index(j)
            if y * y == v:
                pts.append((x, y))
    return pts


def ec_add(e: EllipticCurveF, p: Point, q: Point) -> Point:
    if p is None:
        return q
    if q is None:
        return p
    x1, y1 = p
    x2, y2 = q
    if x1 == x2 and y1 == -y2:
        return None
    if p == q:
        lam = (e.ctx.from_int(3) * x1 * x1 + e.a) / (e.ctx.from_int(2) * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - x1 - x2
    return (x3, lam * (x1 - x3) - y1)


def ec_mul(e: EllipticCurveF, m: int, p: Point) -> Point:
    if m < 0:
        p = None if p is None else (p[0], -p[1])
        m = -m
    return _power(p, m, lambda u, v: ec_add(e, u, v), None)


# -- rational model -----------------------------------------------------------------


def test_builtin_curve_invariants():
    e = ogg_curve()
    assert e.j == Fraction(2 ** 11, 3)
    assert e.discriminant == -(2 ** 4) * 3


def test_builtin_curve_good_reduction_set():
    e = ogg_curve()
    assert not e.has_good_reduction(2)
    assert not e.has_good_reduction(3)
    for ell in (5, 7, 11, 13, 101):
        assert e.has_good_reduction(ell)


def test_singular_model_rejected():
    with pytest.raises(ValidationError):
        EllipticCurveQ(0, 0, 0, 0, 0)


# -- reductions ---------------------------------------------------------------------


def test_reduction_count_against_naive_enumeration():
    e = ogg_curve()
    for ell in (5, 7, 11, 13):
        red = reduce_curve(e, ell)
        naive = 1
        for x in range(ell):
            for y in range(ell):
                xe, ye = red.ctx.from_int(x), red.ctx.from_int(y)
                if ye * ye == rhs(red, xe):
                    naive += 1
        assert red.n_points == naive
        assert red.trace == ell + 1 - naive
    for ell in (5, 7, 11):  # F_{ell^2}, counted by points over x and y
        red = reduce_curve(e, ell)
        big = base_change(red, make_extension(red.ctx, 2))
        assert big.n_points == len(points(big))
        assert big.trace == ell * ell + 1 - big.n_points


def test_reduction_guards():
    e = ogg_curve()
    with pytest.raises(ValidationError):
        reduce_curve(e, 3)
    with pytest.raises(ValidationError):
        reduce_curve(e, 2)


def test_weil_bound_every_reduction_up_to_101():
    e = ogg_curve()
    for ell in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101):
        red = reduce_curve(e, ell)
        assert red.trace ** 2 <= 4 * ell


def test_singular_reduction_detected():
    ctx = make_field(5, 1)
    with pytest.raises(ValidationError, match="singular"):
        EllipticCurveF(ctx, ctx.from_int(0), ctx.from_int(0))


def test_small_characteristic_rejected():
    ctx = make_field(3, 1)
    with pytest.raises(ValidationError):
        EllipticCurveF(ctx, ctx.from_int(1), ctx.from_int(1))


# -- point arithmetic ----------------------------------------------------------------


def test_point_arithmetic_basics():
    e = curve(7, 1, 3)
    pts = points(e)
    assert len(pts) == e.n_points
    p = pts[1]
    assert ec_add(e, p, None) == p
    assert ec_add(e, p, (p[0], -p[1])) is None
    assert ec_mul(e, 0, p) is None
    assert ec_mul(e, 0, None) is None
    assert ec_mul(e, -1, p) == (p[0], -p[1])
    assert ec_mul(e, e.n_points, p) is None  # group order kills everything


def test_point_addition_associative_sample():
    e = curve(11, 2, 5)
    pts = [q for q in points(e) if q is not None][:5]
    for p in pts:
        for q in pts:
            for r in pts:
                assert ec_add(e, ec_add(e, p, q), r) == ec_add(e, p, ec_add(e, q, r))


# -- division polynomials and the x-line map ------------------------------------------


def test_division_poly_seeds():
    e = curve(7, 1, 3)
    ctx = e.ctx
    a, b = 1, 3
    w = _division_polys(e, 3)
    assert w[1] == Poly(ctx, [1])
    assert w[2] == Poly(ctx, [1])  # the 2y factor is split off
    assert w[3] == Poly(ctx, [-(a * a), 12 * b, 6 * a, 0, 3])


def test_duplication_formula():
    e = curve(7, 1, 3)
    ctx = e.ctx
    a, b = 1, 3
    want = RationalMap(
        Poly(ctx, [a * a, -8 * b, -2 * a, 0, 1]),
        Poly(ctx, [4 * b, 4 * a, 0, 4]),
    )
    assert lattes_map(e, 2) == want


def test_multiplication_map_degree_and_oracle():
    for ell, a, b in ((7, 1, 3), (11, 2, 5)):
        e = curve(ell, a, b)
        for m in (2, 3, 4, 5):
            fm = lattes_map(e, m)
            assert fm.degree == m * m
            for p in points(e):
                if p is None:
                    continue
                q = ec_mul(e, m, p)
                want = (
                    P1Point.infinity(e.ctx) if q is None else P1Point.of(q[0])
                )
                assert eval_p1(fm, p[0]).index() == want.index()


def test_multiplication_maps_compose():
    e = curve(7, 1, 3)
    f2, f3, f6 = lattes_map(e, 2), lattes_map(e, 3), lattes_map(e, 6)
    assert f6 == compose(f2, f3)
    assert f6 == compose(f3, f2)


def test_multiplication_map_guards():
    e = curve(7, 1, 3)
    with pytest.raises(ValidationError):
        lattes_map(e, 1)
    with pytest.raises(ValidationError):
        lattes_map(e, 7)  # the characteristic


# -- trace recursion -------------------------------------------------------------------


def test_power_sum_recursion_matches_eigenvalues():
    # with integer eigenvalue pairs r+s = a, rs = ell the sums are exact
    for (r, s) in ((2, 3), (-1, 4), (5, -2)):
        a, ell = r + s, r * s
        for t in range(0, 7):
            assert trace_power_sum(a, ell, t) == r ** t + s ** t


def test_extension_counts_from_power_sums():
    e = ogg_curve()
    for ell in (5, 7, 13):
        red = reduce_curve(e, ell)
        ext = make_extension(red.ctx, 2)
        big = base_change(red, ext)
        assert big.n_points == ell ** 2 + 1 - trace_power_sum(red.trace, ell, 2)


# -- permutation prediction -------------------------------------------------------------


def test_predict_rejects_bad_arguments():
    with pytest.raises(ValidationError):
        oit_predict(0, 7, 3, 1)
    with pytest.raises(ValidationError):
        oit_predict(0, 7, 5, 0)


def test_predict_false_when_fixed_points_forced():
    # a = 0 and ell = p - 1 mod p makes 1 + s_1 + ell vanish
    assert not oit_predict(0, 19, 5, 1)
    assert not oit_predict(0, 29, 5, 1)


def test_nonresidue_discriminant_implies_predict_true():
    p = 5
    for ell in (7, 11, 13, 17, 19, 23):
        for a in range(-4, 5):
            if a * a > 4 * ell:
                continue
            disc = a * a - 4 * ell
            if pow(disc % p, (p - 1) // 2, p) == p - 1:
                assert oit_predict(a, ell, p, 1)


def test_scan_matches_brute_force_at_t1():
    rep = oit_scan(ogg_curve(), 5, 60, 1)
    assert rep.rows and rep.all_match
    for row in rep.rows:
        cell = row.cells[0]
        if row.disc_nonresidue:
            assert cell.bijective
    assert any("equals p" in n for n in rep.notices)
    assert any("bad reduction" in n for n in rep.notices)


def test_scan_matches_brute_force_at_t2():
    rep = oit_scan(ogg_curve(), 5, 13, 2)
    assert rep.all_match
    for row in rep.rows:
        assert [c.t for c in row.cells] == [1, 2]


def test_scan_respects_cap(monkeypatch):
    monkeypatch.setenv("EXCOV_CAP", "60")
    rep = oit_scan(ogg_curve(), 5, 20, 3)
    assert any("field cap" in n for n in rep.notices)
    for row in rep.rows:
        assert row.cells  # t = 1 always fits under this cap
        assert all(row.ell ** c.t <= 60 for c in row.cells)


def _frobenius_matrix_order(a, ell, p):
    m = ((a % p, (-ell) % p), (1, 0))
    cur = m
    for order in range(1, 2 * p * p):
        if cur == ((1, 0), (0, 1)):
            return order
        cur = (
            (
                (cur[0][0] * m[0][0] + cur[0][1] * m[1][0]) % p,
                (cur[0][0] * m[0][1] + cur[0][1] * m[1][1]) % p,
            ),
            (
                (cur[1][0] * m[0][0] + cur[1][1] * m[1][0]) % p,
                (cur[1][0] * m[0][1] + cur[1][1] * m[1][1]) % p,
            ),
        )
    raise AssertionError("matrix order not found")


def test_predict_is_unit_closed_in_t():
    # membership must be a union of unit-closed residue classes modulo the
    # order of the Frobenius matrix class
    for ell in (7, 11, 13, 17, 19):
        red = reduce_curve(ogg_curve(), ell)
        d = _frobenius_matrix_order(red.trace, ell, 5)
        samples = [oit_predict(red.trace, ell, 5, t) for t in range(1, 2 * d + 1)]
        fitted = fit_from_samples(samples, d)
        assert fitted is not None
        for t in range(1, 3 * d):
            assert (t in fitted) == oit_predict(red.trace, ell, 5, t)


def _p1_image(f, ctx):
    """eval_p1 at every point of P1(ctx), in value_table slot order."""
    pts = [P1Point.of(ctx.from_index(i)) for i in range(ctx.order)]
    return [eval_p1(f, x).index() for x in pts + [P1Point.infinity(ctx)]]


@pytest.mark.parametrize("m", [2, 3])
def test_oit_cells_of_small_multiplication_maps_match_eval_p1(m):
    # the first two curves have m-torsion x-coordinates, poles of the map,
    # in F_ell; [3] permutes P1 over F_11 and F_121 on the third
    for (ell, a, b), poles in (((7, 1, 3), True), ((11, 1, 0), True), ((11, 2, 5), False)):
        e = curve(ell, a, b)
        fm = lattes_map(e, m)
        for t in (1, 2):
            K = make_extension(e.ctx, t)
            tab = value_table(fm, t)
            want = _p1_image(fm, K)
            assert tab.tolist() == want
            assert K.order in want[:-1] or not poles
            bijective = bool((np.bincount(tab) == 1).all())
            assert bijective == (len(set(want)) == K.order + 1)


def test_oit_cells_match_eval_p1_enumeration():
    rep = oit_scan(ogg_curve(), 5, 13, 2)
    for row in rep.rows:
        fm = lattes_map(reduce_curve(ogg_curve(), row.ell), 5)
        for cell in row.cells:
            K = make_extension(fm.ctx, cell.t)
            assert cell.bijective == (len(set(_p1_image(fm, K))) == K.order + 1)


def test_report_json_shape():
    rep = oit_scan(ogg_curve(), 5, 11, 1)
    doc = rep.to_json_dict()
    assert doc["p"] == 5 and doc["all_match"] is True
    assert {"ell", "a_ell", "disc_nonresidue", "cells"} <= set(doc["rows"][0])


# -- median counts ----------------------------------------------------------------------


def test_median_counts_supersingular_prime():
    red = reduce_curve(ogg_curve(), 7)
    assert red.trace == 0
    assert median_value_check(red, 6) == [1, 3, 5]


def test_median_counts_ordinary_prime():
    red = reduce_curve(ogg_curve(), 5)
    assert median_value_check(red, 6) == []


def test_median_cap(monkeypatch):
    monkeypatch.setenv("EXCOV_CAP", "100")
    red = reduce_curve(ogg_curve(), 7)
    with pytest.raises(CapExceededError):
        median_value_check(red, 4)
