"""Empirical bijectivity scans of self-maps over extension towers.

Each scan evaluates a map on every point of the projective line over
F_{q^t}, records bijectivity, surjectivity, the multiset profile of values,
and the order of the induced permutation, then fits the bijective t's to a
unit-closed progression set.  Range and fiber-multiset comparisons for map
pairs live here too.
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
    if isinstance(f, Poly):
        f = RationalMap(f)
    K = _scan_field(f, t)
    Q = K.order
    out = np.empty(Q + 1, dtype=np.int64)
    den = None if f.is_polynomial else _poly_terms(f.den)
    get_batch(K).eval_sparse(_poly_terms(f.num), den, out=out[:Q])
    out[Q] = eval_p1(f, P1Point.infinity(K)).index()
    return out


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

    def bijective_ts(self) -> list[int]:
        return [r.t for r in self.records if r.bijective]

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
    """One t of a scan.  Its fiber counts are freed before the period
    kernel runs, and its value table on return, before the next t builds
    tables up to q times their size."""
    tab = value_table(f, t)
    counts = np.bincount(tab, minlength=tab.shape[0])
    bij = bool(counts.max(initial=0) == 1)
    surj = bool(counts.min(initial=1) >= 1)
    hist = {int(k): int(v) for k, v in enumerate(np.bincount(counts)) if v}
    del counts
    period = permutation_period(tab) if bij and with_periods else None
    return TRecord(t, bij, surj, hist, period)


def period_series(f: Union[RationalMap, Poly], t_max: int) -> list[tuple[int, int]]:
    """(t, permutation order) for every bijective t <= t_max under the cap."""
    report = exceptionality_scan(f, t_max)
    return [(r.t, r.period) for r in report.records if r.bijective]


def dp_range_test(
    f: Union[RationalMap, Poly], g: Union[RationalMap, Poly], t: int
) -> bool:
    """Are the value sets of f and g on P1(F_{q^t}) equal?"""
    tf, tg = _pair_tables(f, g, t)
    n = tf.shape[0]
    return bool(
        np.array_equal(np.bincount(tf, minlength=n) > 0, np.bincount(tg, minlength=n) > 0)
    )


def idp_multiset_test(
    f: Union[RationalMap, Poly], g: Union[RationalMap, Poly], t: int
) -> bool:
    """Do f and g attain every value with the same multiplicity?"""
    tf, tg = _pair_tables(f, g, t)
    n = tf.shape[0]
    return bool(
        np.array_equal(np.bincount(tf, minlength=n), np.bincount(tg, minlength=n))
    )


def _pair_tables(f, g, t):
    if isinstance(f, Poly):
        f = RationalMap(f)
    if isinstance(g, Poly):
        g = RationalMap(g)
    if f.ctx != g.ctx:
        raise ValidationError("maps over different fields")
    return value_table(f, t), value_table(g, t)
