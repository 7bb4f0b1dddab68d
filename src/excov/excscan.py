"""Empirical bijectivity scans of self-maps over extension towers.

Each scan evaluates a map on every point of the projective line over
F_{q^t}, records bijectivity, surjectivity, the multiset profile of values,
and the order of the induced permutation, then fits the bijective t's to a
unit-closed progression set.  Range and fiber-multiset comparisons for map
pairs live here too.

Every table here is in log coordinates (``_batch``): with g the field's
generator and m = q^t - 1, the unit g^j is label j, 0 is label m and
infinity label q^t, and slot j holds the label of f(g^j), slot m that of
f(0) and slot q^t that of f(infinity).  ``BatchField.eval_sparse`` fills
every slot, the two ends from the labels of the constant and lead
coefficients, so a table is used here as it comes, with no value taken
through the scalar engine.  This is the same map conjugated
by a relabelling of P1, so its fibers, its bijectivity and, when it
permutes, its cycle lengths are those in index order; and two maps
relabelled alike keep equal or unequal value sets and multisets.  For
x^n or x^a/x^b the table is j -> n*j mod m, evaluated at every point
without a generator or a table.  A coefficient other than 1 has its log
read off the powers of a generator of the scan field's base, which is the
map's own field once t >= 2, so only a scan over the map's own field
(t = 1) builds exp and log for it.  A sum of two or more terms builds
zech: on the Frobenius-orbit quotient (below) from its values at the
orbit representatives, with no exp or log kept; on a full table (r = 1)
from exp and log.  ``value_table`` is the one reader that wants element
indices: it converts the table with ``BatchField.index_order``.

A scan of a map whose coefficients lie in F_{p^d} for a d below the
field's degree D is read off the Frobenius-orbit quotient instead: f
commutes with x -> x^(p^d), so its record is fixed by the values at the
orbit representatives, about a share d/D of the points, given as their
codes in the field's cached ``orbit_lookup`` (4 bytes per point).  No
Q + 1 table, ``bincount`` or whole-field period pass is made for it.
This holds for every sum of two or more terms, and for a single-term map
(x^n, c*x^n, x^a/x^b) once r = D/d reaches ``_batch._QUOTIENT_MIN_R``
(``BatchField.orbit_step``).  The pair flags read both maps on one
quotient, at the lcm of their steps.  A full table is the r = 1 case of
the quotient, whose nodes are the points: one fiber count (``_fibers``)
serves the record and the pair flags either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import frobset
from ._batch import get_batch, permutation_period
from .errors import CapExceededError, ValidationError, check_power_cap
from .frobset import FrobeniusSet
from .gf import FieldCtx, make_extension
from .projmap import Poly, RationalMap

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
    if isinstance(f, Poly):
        f = RationalMap(f)
    bf = get_batch(_scan_field(f, t))
    return bf.index_order(bf.eval_sparse(*_terms(f)))


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
    if d_max < 0:
        raise ValidationError("d_max must be >= 0")
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
    """One t of a scan, read off the table of f on the step
    ``BatchField.orbit_step`` gives it: every point when that is D, else
    the Frobenius-orbit quotient, where f maps nodes to nodes.

    f is bijective exactly when every point has one preimage
    (``_fibers``): when the histogram of preimage counts is {1: Q + 1}.
    It is surjective when the histogram has no count 0.  Both flags are
    read off the histogram, with no further pass over the counts.  When
    f is bijective the node map is a bijection that keeps lengths, whose
    period ``permutation_period`` reads with the rotations: each node's
    rotation, tab mod r, scaled from Z/|O| to Z/r by r // |O|, in one
    int8 array (1 byte per node, r <= 31), which the kernel reads as it
    is.  The fiber counts are freed before the period kernel runs, and
    the table on return, before the next t builds tables up to q times
    their size."""
    bf = get_batch(_scan_field(f, t))
    d = bf.orbit_step(_terms(f))
    tab = bf.eval_sparse(*_terms(f), step=d)
    r = bf.D // d
    size = None if r == 1 else bf.orbit_lookup(d)[1]
    tgt, counts = _fibers(size, r, tab)
    # counts are int64 over the points: copy=False keeps them uncopied there
    hist = np.bincount(counts.astype(np.int64, copy=False), weights=size)
    del counts
    hist = {int(k): int(v) for k, v in enumerate(hist) if v}
    bij = hist == {1: bf.order + 1}
    surj = 0 not in hist
    if not (bij and with_periods):
        return TRecord(t, bij, surj, hist, None)
    if size is None:
        return TRecord(t, bij, surj, hist, permutation_period(tab))
    rot = np.remainder(tab, r, out=np.empty(tab.shape, dtype=np.int8), casting="unsafe")
    rot *= r // size
    return TRecord(t, bij, surj, hist, permutation_period(tgt, rot, r))


def _fibers(
    size: Optional[np.ndarray], r: int, tab: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The node of each value, and the preimages of each point per node.

    With ``size`` None, tab is a table over every point and the nodes are
    the points: tab itself, and one ``bincount``.  Else tab holds
    ``orbit_lookup`` codes (orbit * r + rotation) and size the orbit
    lengths.  Each node (an orbit O, or 0, or infinity) goes to the node P
    of its value, and f maps O onto P, |O|/|P| points to one.  So every
    point of P has the sum over O -> P of |O|/|P| preimages: a float64
    count, exact as it stays below Q + 1.
    """
    if size is None:
        return tab, np.bincount(tab, minlength=tab.shape[0])
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
    steps (``BatchField.orbit_step``), so each is read on that one
    quotient, or on the full table when d = D, and the values are compared
    per node: a node's points all have the same number of preimages
    (``_fibers``).  The first map's table is freed before the second's is
    built."""
    if f.ctx != g.ctx:
        raise ValidationError("maps over different fields")
    maps = [RationalMap(h) if isinstance(h, Poly) else h for h in (f, g)]
    bf = get_batch(_scan_field(maps[0], t))
    d = bf.orbit_step(*(_terms(h) for h in maps))
    r = bf.D // d
    size = None if r == 1 else bf.orbit_lookup(d)[1]
    cf, cg = (_fibers(size, r, bf.eval_sparse(*_terms(h), step=d))[1] for h in maps)
    return bool(np.array_equal(cf > 0, cg > 0)), bool(np.array_equal(cf, cg))
