"""Empirical bijectivity scans of self-maps over extension towers.

Each scan evaluates a map on every point of the projective line over
F_{q^t}, records bijectivity, surjectivity, the multiset profile of values,
and the order of the induced permutation, then fits the bijective t's to a
unit-closed progression set.  Range and fiber-multiset comparisons for map
pairs live here too.

Every table here is in log coordinates (``_batch``): with g the field's
generator and m = q^t - 1, the unit g^j is label j, 0 is label m and
infinity label q^t, and slot j holds the label of f(g^j), slot m that of
f(0) and slot q^t that of f(infinity).  This is the same map conjugated
by a relabelling of P1, so its fibers, its bijectivity and, when it
permutes, its cycle lengths are those in index order; and two maps
relabelled alike keep equal or unequal value sets and multisets.  For
x^n or x^a/x^b the table is j -> n*j mod m, evaluated at every point
without a generator or a table; a coefficient other than 1 builds exp
and log, and a sum of two or more terms zech too.  ``value_table`` is
the one reader that wants element indices: it converts the table with
``BatchField.index_order``.

A scan of a map whose coefficients lie in F_{p^d} for a d below the
field's degree D is read off the Frobenius-orbit quotient instead: f
commutes with x -> x^(p^d), so its record is fixed by the values at the
orbit representatives, about a share d/D of the points, which
``_orbit_record`` reads through the field's cached ``orbit_lookup`` (4
bytes per point).  No Q + 1 table, ``bincount`` or whole-field period
pass is made for it.  This holds for every sum of two or more terms, and
for a single-term map (x^n, c*x^n, x^a/x^b) once r = D/d reaches
``_batch._QUOTIENT_MIN_R``.  The pair flags read both maps on one
quotient, at the lcm of their steps, and compare the preimage counts per
orbit (``_orbit_fibers``).  r = 1 fields, and single-term maps or pairs
below the threshold, keep the full table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import frobset
from ._batch import BatchField, get_batch, permutation_period
from .errors import CapExceededError, ValidationError, check_power_cap
from .frobset import FrobeniusSet
from .gf import FieldCtx, make_extension
from .projmap import P1Point, Poly, RationalMap, eval_p1

DEFAULT_FIT_DEPTH = 24


def _scan_field(f: RationalMap, t: int) -> FieldCtx:
    if t < 1:
        raise ValidationError("extension degree must be >= 1")
    check_power_cap(f.ctx.order, t, "scan")
    return make_extension(f.ctx, t)


def _poly_terms(p: Poly) -> list[tuple[int, object]]:
    return [(i, c) for i, c in enumerate(p.coeffs) if not c.is_zero()]


def value_table(f: Union[RationalMap, Poly], t: int) -> np.ndarray:
    """Value of f at every point of P1(F_{q^t}), as element indices.

    Slot i < q^t holds the image of the i-th field element; the last slot
    holds the image of infinity.  Infinity itself is encoded as q^t.
    """
    bf, tab, _ = _table(f, t)
    return bf.index_order(tab)


def _table(
    f: Union[RationalMap, Poly], t: int, orbits: bool = False, step: Optional[int] = None
) -> tuple[BatchField, np.ndarray, int]:
    """The field's ``BatchField``, the table of f in log coordinates, and
    the Frobenius step d of its evaluation (``BatchField.orbit_step``, or
    ``step`` when given).  With ``orbits`` and d < D, the table is read on
    the orbit quotient instead: the ``orbit_lookup(d)`` code of f at each
    representative, then at 0 and at infinity.  d is asked for after the
    evaluation, which builds the tables that reading the coefficients'
    logs needs."""
    if isinstance(f, Poly):
        f = RationalMap(f)
    K = _scan_field(f, t)
    bf = get_batch(K)
    num, den = _terms(f)
    if orbits:
        out = bf.eval_sparse(num, den, orbits=True, step=step)
        d = step or bf.orbit_step(num, den, orbits=True)
    else:
        out = np.empty(K.order + 1, dtype=np.int64)
        bf.eval_sparse(num, den, out=out[:-1])
        d = bf.D
    at_inf = bf.label(eval_p1(f, P1Point.infinity(K)).index())
    out[-1] = at_inf if d == bf.D else bf.orbit_lookup(d)[0][at_inf]
    return bf, out, d


def _terms(f: RationalMap) -> tuple[list, Optional[list]]:
    """The nonzero (exponent, coefficient) terms of f's numerator, and of
    its denominator unless f is a polynomial."""
    return _poly_terms(f.num), None if f.is_polynomial else _poly_terms(f.den)


@dataclass(frozen=True)
class TRecord:
    """One extension degree of a scan."""

    t: int
    bijective: bool
    surjective: bool
    value_counts: dict[int, int]  # fiber size -> how many points attain it
    period: Optional[int]  # order of the induced permutation, bijective only

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "bijective": self.bijective,
            "surjective": self.surjective,
            "value_counts": {str(k): v for k, v in sorted(self.value_counts.items())},
            "period": self.period,
        }


@dataclass(frozen=True)
class ScanReport:
    map_desc: str
    base_order: int
    t_max: int
    t_reached: int
    records: tuple[TRecord, ...]
    fitted: Optional[FrobeniusSet]
    fit_depth: int

    def to_json_dict(self) -> dict:
        return {
            "map": self.map_desc,
            "base_order": self.base_order,
            "t_max": self.t_max,
            "t_reached": self.t_reached,
            "records": [r.to_json_dict() for r in self.records],
            "fitted": self.fitted.to_json_dict() if self.fitted else "no fit",
            "fit_depth": self.fit_depth,
        }


def exceptionality_scan(
    f: Union[RationalMap, Poly],
    t_max: int,
    d_max: int = DEFAULT_FIT_DEPTH,
    desc: Optional[str] = None,
    with_periods: bool = True,
) -> ScanReport:
    """Scan t = 1..t_max, stopping early at the field cap.

    The fit depth shrinks so the sample prefix stays twice as long as the
    largest modulus tried; with fewer than two samples no fit is attempted.
    """
    if isinstance(f, Poly):
        f = RationalMap(f)
    if t_max < 1:
        raise ValidationError("t_max must be >= 1")
    records = []
    for t in range(1, t_max + 1):
        try:
            K = _scan_field(f, t)
        except CapExceededError:
            if t == 1:
                raise  # nothing scannable at all
            break
        records.append(_record(f, t, with_periods))
    t_reached = len(records)
    eff_d = min(d_max, t_reached // 2)
    fitted = None
    if eff_d >= 1:
        fitted = frobset.fit_from_samples([r.bijective for r in records], eff_d)
    return ScanReport(
        map_desc=desc if desc is not None else repr(f),
        base_order=f.ctx.order,
        t_max=t_max,
        t_reached=t_reached,
        records=tuple(records),
        fitted=fitted,
        fit_depth=eff_d,
    )


def _record(f: RationalMap, t: int, with_periods: bool) -> TRecord:
    """One t of a scan, read off the table in log coordinates, or off its
    Frobenius-orbit quotient when the table is evaluated on orbit
    representatives (``_orbit_record``).  The full table's fiber counts
    are freed before the period kernel runs, and the table on return,
    before the next t builds tables up to q times their size."""
    bf, tab, d = _table(f, t, orbits=True)
    if d < bf.D:
        return _orbit_record(bf, d, tab, t, with_periods)
    counts = np.bincount(tab, minlength=tab.shape[0])
    bij = bool(counts.max(initial=0) == 1)
    surj = bool(counts.min(initial=1) >= 1)
    hist = {int(k): int(v) for k, v in enumerate(np.bincount(counts)) if v}
    del counts
    period = permutation_period(tab) if bij and with_periods else None
    return TRecord(t, bij, surj, hist, period)


def _orbit_record(
    bf: BatchField, d: int, tab: np.ndarray, t: int, with_periods: bool
) -> TRecord:
    """The record of a map that commutes with s: x -> x**(p**d), from the
    ``orbit_lookup`` codes of its values at the orbit representatives,
    then at 0 and infinity.

    f is bijective exactly when every point has one preimage
    (``_orbit_fibers``), and then the node map is a bijection that keeps
    lengths, whose period ``permutation_period`` reads with the rotations.
    """
    size = bf.orbit_lookup(d)[1]
    r = bf.D // d
    tgt, counts = _orbit_fibers(size, r, tab)
    bij = bool(counts.max() == 1)
    surj = bool(counts.min() >= 1)
    hist = np.bincount(counts.astype(np.int64), weights=size)
    hist = {int(k): int(v) for k, v in enumerate(hist) if v}
    if not (bij and with_periods):
        return TRecord(t, bij, surj, hist, None)
    rot = tab - tgt * r
    return TRecord(t, bij, surj, hist, permutation_period(tgt, rot * (r // size), r))


def _orbit_fibers(size: np.ndarray, r: int, tab: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The node of each value in a quotient table of ``orbit_lookup``
    codes (orbit * r + rotation), and the preimages of each point per node.

    Each node (an orbit O, or 0, or infinity) goes to the node P of its
    value, and f maps O onto P, |O|/|P| points to one.  So every point of
    P has the sum over O -> P of |O|/|P| preimages: a float64 count, exact
    as it stays below Q + 1.
    """
    tgt = tab // r
    return tgt, np.bincount(tgt, weights=size // size[tgt], minlength=size.size)


def period_series(f: Union[RationalMap, Poly], t_max: int) -> list[tuple[int, int]]:
    """(t, permutation order) for every bijective t <= t_max under the cap."""
    report = exceptionality_scan(f, t_max)
    return [(r.t, r.period) for r in report.records if r.bijective]


def dp_range_test(
    f: Union[RationalMap, Poly], g: Union[RationalMap, Poly], t: int
) -> bool:
    """Are the value sets of f and g on P1(F_{q^t}) equal?"""
    return _dp_flags(f, g, t)[0]


def idp_multiset_test(
    f: Union[RationalMap, Poly], g: Union[RationalMap, Poly], t: int
) -> bool:
    """Do f and g attain every value with the same multiplicity?"""
    return _dp_flags(f, g, t)[1]


def _dp_flags(
    f: Union[RationalMap, Poly], g: Union[RationalMap, Poly], t: int
) -> tuple[bool, bool]:
    """(range equal, multiset equal) from one table per map in log
    coordinates.

    Both maps commute with x -> x**(p**d) at d the lcm of their Frobenius
    steps, so when d < D each is evaluated on that one quotient, and the
    values are compared per node: a node's points all have the same
    number of preimages (``_orbit_fibers``).  Two single-term maps stay
    on the full tables while r = D/d is below the threshold their scans
    use (``BatchField.pair_step``); there each map's values are counted
    with one ``bincount``."""
    if f.ctx != g.ctx:
        raise ValidationError("maps over different fields")
    maps = [RationalMap(h) if isinstance(h, Poly) else h for h in (f, g)]
    bf = get_batch(_scan_field(maps[0], t))
    d = bf.pair_step(*(_terms(h) for h in maps))
    if d == bf.D:
        tf = _table(f, t)[1]
        n = tf.shape[0]
        cf = np.bincount(tf, minlength=n)
        del tf
        cg = np.bincount(_table(g, t)[1], minlength=n)
    else:
        size = bf.orbit_lookup(d)[1]
        cf, cg = (_orbit_fibers(size, bf.D // d, _table(h, t, True, d)[1])[1] for h in maps)
    return bool(np.array_equal(cf > 0, cg > 0)), bool(np.array_equal(cf, cg))
