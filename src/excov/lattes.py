"""Elliptic curves, multiplication-by-m on the x-line, and prime scans.

Quotienting an elliptic curve by inversion turns [m] into a degree-m^2
rational self-map of the projective line.  Reductions of one rational
curve then give a supply of such maps over every good prime, and whether
they permute the points of small extension fields is decided by the
Frobenius trace alone.  This module builds the maps, predicts the
permutation behaviour from the trace recursion, and checks the
prediction by brute force on value tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._batch import get_batch
from .errors import (
    InternalInvariantError,
    ValidationError,
    check_field_cap,
    check_power_cap,
)
from .excscan import exceptionality_scan
from .gf import FieldCtx, FieldElem, _prime_list, make_extension, make_field
from .projmap import Poly, RationalMap

# -- curves over the rationals ----------------------------------------------------


@dataclass(frozen=True)
class EllipticCurveQ:
    """Integral Weierstrass model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    def __post_init__(self):
        if self.discriminant == 0:
            raise ValidationError("singular model: discriminant vanishes")

    @property
    def b2(self) -> int:
        return self.a1 ** 2 + 4 * self.a2

    @property
    def b4(self) -> int:
        return 2 * self.a4 + self.a1 * self.a3

    @property
    def b6(self) -> int:
        return self.a3 ** 2 + 4 * self.a6

    @property
    def b8(self) -> int:
        return (
            self.a1 ** 2 * self.a6
            + 4 * self.a2 * self.a6
            - self.a1 * self.a3 * self.a4
            + self.a2 * self.a3 ** 2
            - self.a4 ** 2
        )

    @property
    def c4(self) -> int:
        return self.b2 ** 2 - 24 * self.b4

    @property
    def c6(self) -> int:
        return -self.b2 ** 3 + 36 * self.b2 * self.b4 - 216 * self.b6

    @property
    def discriminant(self) -> int:
        b2, b4, b6, b8 = self.b2, self.b4, self.b6, self.b8
        return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    @property
    def j(self) -> Fraction:
        return Fraction(self.c4 ** 3, self.discriminant)

    def has_good_reduction(self, ell: int) -> bool:
        # judged on the given model; fine for the built-in curve whose
        # discriminant is already minimal
        return self.discriminant % ell != 0


def _is_twelfth_power_unit(r: Fraction) -> bool:
    if r <= 0:
        return False

    def root12(n: int) -> bool:
        c = round(n ** (1 / 12.0))
        return any(k ** 12 == n for k in (c - 1, c, c + 1) if k > 0)

    return root12(r.numerator) and root12(r.denominator)


def ogg_curve() -> EllipticCurveQ:
    """The conductor-24 curve with affine model y^2 = -x^3 - x^2 - x.

    Flipping the sign of x gives the integral model y^2 = x^3 - x^2 + x.
    The stated invariants are recomputed from scratch and any mismatch is
    a construction bug, not an input error.
    """
    e = EllipticCurveQ(0, -1, 0, 1, 0)
    if e.j != Fraction(2 ** 11, 3):
        raise InternalInvariantError(f"j-invariant came out as {e.j}")
    ratio = Fraction(e.discriminant, -(2 ** 4) * 3)
    if not _is_twelfth_power_unit(ratio):
        raise InternalInvariantError(f"discriminant {e.discriminant} off by {ratio}")
    return e


# -- curves over finite fields ------------------------------------------------------


@dataclass(frozen=True)
class EllipticCurveF:
    """Short Weierstrass curve y^2 = x^3 + a x + b over a field of char > 3.

    The point count is taken on construction by summing the quadratic
    character over the x-line, and the trace it yields must land inside
    the Weil interval; a violation means the arithmetic itself is broken.
    """

    ctx: FieldCtx
    a: FieldElem
    b: FieldElem
    n_points: int = field(init=False, compare=False)
    trace: int = field(init=False, compare=False)

    def __post_init__(self):
        if self.ctx.p <= 3:
            raise ValidationError("characteristic 2 and 3 models are unsupported")
        four = self.ctx.from_int(4)
        twenty7 = self.ctx.from_int(27)
        if (four * self.a ** 3 + twenty7 * self.b ** 2).is_zero():
            raise ValidationError("singular reduction: 4a^3 + 27b^2 = 0")
        check_field_cap(self.ctx.order, "curve point count")
        # infinity, then 1 + chi(x^3 + ax + b) points per x.  On the label
        # table chi is 0 at label m (a zero) and (-1)**label otherwise, and
        # m is even, so the sum of chi is q - zeros - 2 * odd labels
        q = self.ctx.order
        labels = get_batch(self.ctx).eval_sparse([(0, self.b), (1, self.a), (3, 1)])[:q]
        zeros = int(np.count_nonzero(labels == q - 1))
        count = 2 * q + 1 - zeros - 2 * int(np.count_nonzero(labels & 1))
        object.__setattr__(self, "n_points", count)
        object.__setattr__(self, "trace", self.ctx.order + 1 - count)
        if self.trace ** 2 > 4 * self.ctx.order:
            raise InternalInvariantError(
                f"trace {self.trace} violates the Weil bound over order {self.ctx.order}"
            )


def reduce_curve(e: EllipticCurveQ, ell: int) -> EllipticCurveF:
    """Short Weierstrass reduction mod a good prime ell > 3."""
    if ell <= 3:
        raise ValidationError("reduction only at primes ell > 3")
    ctx = make_field(ell, 1)
    if not e.has_good_reduction(ell):
        raise ValidationError(f"bad reduction at {ell}")
    # complete the square and cube: y^2 = x^3 - 27 c4 x - 54 c6 rescaled
    inv48 = ctx.from_int(48).inverse()
    inv864 = ctx.from_int(864).inverse()
    a = -ctx.from_int(e.c4) * inv48
    b = -ctx.from_int(e.c6) * inv864
    return EllipticCurveF(ctx, a, b)


def base_change(e: EllipticCurveF, ext: FieldCtx) -> EllipticCurveF:
    return EllipticCurveF(ext, ext.embed(e.a), ext.embed(e.b))


# -- division polynomials and the induced x-line map ---------------------------------


def _division_polys(e: EllipticCurveF, m: int) -> list[Poly]:
    """w[0..m] with w[i] the i-th division polynomial, even ones div by 2y.

    With that normalization both parities satisfy the same doubling rule
    and the odd rule only needs 16 f^2 patched in on the even side
    (f = x^3 + ax + b, since (2y)^2 = 4f).
    """
    ctx = e.ctx
    a, b = e.a, e.b
    f = Poly(ctx, [b, a, 0, 1])
    w = [Poly(ctx, [0]), Poly(ctx, [1]), Poly(ctx, [1])]
    if m >= 3:
        w.append(
            Poly(ctx, [-(a * a), b * ctx.from_int(12), a * ctx.from_int(6), 0, ctx.from_int(3)])
        )
    if m >= 4:
        aa, bb = a, b
        c0 = -(bb * bb) * ctx.from_int(16) - aa ** 3 * ctx.from_int(2)
        w.append(
            Poly(
                ctx,
                [
                    c0,
                    -(aa * bb) * ctx.from_int(8),
                    -(aa * aa) * ctx.from_int(10),
                    bb * ctx.from_int(40),
                    aa * ctx.from_int(10),
                    0,
                    ctx.from_int(2),
                ],
            )
        )
    f2x16 = (f * f) * ctx.from_int(16)
    for i in range(5, m + 1):
        k = i // 2
        if i % 2:
            if k % 2 == 0:
                w.append(w[k + 2] * w[k] * w[k] * w[k] * f2x16 - w[k - 1] * w[k + 1] * w[k + 1] * w[k + 1])
            else:
                w.append(w[k + 2] * w[k] * w[k] * w[k] - w[k - 1] * w[k + 1] * w[k + 1] * w[k + 1] * f2x16)
        else:
            w.append(w[k] * (w[k + 2] * w[k - 1] * w[k - 1] - w[k - 2] * w[k + 1] * w[k + 1]))
    return w


def lattes_map(e: EllipticCurveF, m: int) -> RationalMap:
    """x-coordinate action of multiplication by m, a degree m^2 map of the line."""
    if m < 2:
        raise ValidationError("need m >= 2")
    if m % e.ctx.p == 0:
        raise ValidationError("multiplication by the characteristic is unsupported")
    check_field_cap(m * m, "map degree")
    ctx = e.ctx
    w = _division_polys(e, m + 1)
    x = Poly(ctx, [0, 1])
    f4 = Poly(ctx, [e.b, e.a, 0, 1]) * ctx.from_int(4)
    if m % 2:
        num = x * w[m] * w[m] - f4 * w[m - 1] * w[m + 1]
        den = w[m] * w[m]
    else:
        num = x * f4 * w[m] * w[m] - w[m - 1] * w[m + 1]
        den = f4 * w[m] * w[m]
    out = RationalMap(num, den)
    if out.degree != m * m:
        raise InternalInvariantError(
            f"x-line multiplication map came out with degree {out.degree}, wanted {m * m}"
        )
    return out


# -- trace recursion and permutation prediction --------------------------------------


def trace_power_sum(a_ell: int, ell: int, t: int) -> int:
    """Sum of t-th powers of the Frobenius eigenvalues, as an exact integer."""
    if t < 0:
        raise ValidationError("need t >= 0")
    s0, s1 = 2, a_ell
    if t == 0:
        return s0
    for _ in range(t - 1):
        s0, s1 = s1, a_ell * s1 - ell * s0
    return s1


def oit_predict(a_ell: int, ell: int, p: int, t: int) -> bool:
    """Does the degree-p^2 x-line map permute the line over the t-th extension?

    True iff neither 1 - s_t + ell^t nor 1 + s_t + ell^t vanishes mod p:
    those are the fixed-point counts of the two relevant affine cosets on
    the p-torsion quotient, and a permutation requires both to be nonzero.
    """
    if p <= 3:
        raise ValidationError("need p > 3")
    if t < 1:
        raise ValidationError("need t >= 1")
    s = trace_power_sum(a_ell, ell, t)
    lt = ell ** t
    return (1 - s + lt) % p != 0 and (1 + s + lt) % p != 0


@dataclass(frozen=True)
class OitCell:
    t: int
    predicted: bool
    bijective: bool

    @property
    def match(self) -> bool:
        return self.predicted == self.bijective


@dataclass(frozen=True)
class OitRow:
    ell: int
    a_ell: int
    disc_nonresidue: bool  # a_ell^2 - 4 ell has no square root mod p
    cells: tuple[OitCell, ...]

    def to_json_dict(self) -> dict:
        return {
            "ell": self.ell,
            "a_ell": self.a_ell,
            "disc_nonresidue": self.disc_nonresidue,
            "cells": [
                {
                    "t": c.t,
                    "predicted": c.predicted,
                    "bijective": c.bijective,
                    "match": c.match,
                }
                for c in self.cells
            ],
        }


@dataclass(frozen=True)
class OitReport:
    p: int
    ell_max: int
    t_max: int
    rows: tuple[OitRow, ...]
    notices: tuple[str, ...]

    @property
    def all_match(self) -> bool:
        return all(c.match for r in self.rows for c in r.cells)

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "ell_max": self.ell_max,
            "t_max": self.t_max,
            "all_match": self.all_match,
            "rows": [r.to_json_dict() for r in self.rows],
            "notices": list(self.notices),
        }


def oit_scan(e: EllipticCurveQ, p: int, ell_max: int, t_max: int) -> OitReport:
    """Prediction vs brute force for every good prime up to ell_max.

    Mismatches are recorded in the cells, not raised: the scan is the
    measurement.  Primes of bad reduction and ell = p are skipped with a
    notice; extension sizes beyond the cap truncate a row with a notice.
    """
    if t_max < 1:
        raise ValidationError("need t_max >= 1")
    rows = []
    notices = []
    for ell in _prime_list(ell_max):
        if ell <= 3 or not e.has_good_reduction(ell):
            notices.append(f"skip ell={ell}: bad reduction")
            continue
        if ell == p:
            notices.append(f"skip ell={ell}: equals p")
            continue
        red = reduce_curve(e, ell)
        a = red.trace
        marker = pow((a * a - 4 * ell) % p, (p - 1) // 2, p) == p - 1
        scan = exceptionality_scan(lattes_map(red, p), t_max, desc="", with_periods=False)
        if scan.t_reached < t_max:
            notices.append(f"ell={ell}: stopped at t={scan.t_reached + 1} by the field cap")
        cells = tuple(OitCell(r.t, oit_predict(a, ell, p, r.t), r.bijective) for r in scan.records)
        rows.append(OitRow(ell=ell, a_ell=a, disc_nonresidue=marker, cells=cells))
    return OitReport(p, ell_max, t_max, tuple(rows), tuple(notices))


def median_value_check(e: EllipticCurveF, t_max: int) -> list[int]:
    """Extension degrees t <= t_max where the point count is exactly q^t + 1.

    Counts come from the trace recursion; for t <= 2 they are re-derived
    from character sums, which also re-asserts the Weil bound there.
    """
    if t_max < 1:
        raise ValidationError("need t_max >= 1")
    q = e.ctx.order
    out = []
    for t in range(1, t_max + 1):
        check_power_cap(q, t, "extension count")
        s = trace_power_sum(e.trace, q, t)
        if t <= 2:
            big = e if t == 1 else base_change(e, make_extension(e.ctx, t))
            if big.n_points != q ** t + 1 - s:
                raise InternalInvariantError(
                    f"trace recursion disagrees with enumeration at t={t}"
                )
        if s == 0:
            out.append(t)
    return out
