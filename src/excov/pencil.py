"""Hyperelliptic pencil error sums and the value-collision identity.

Attach to a polynomial f over an odd prime field the pencil of curves
y^2 = f(x) + lambda.  Each member misses its median point count by some
error E_lambda, and the sum of the squared errors collapses to a value
statistic of f itself: W = p * N_f, with N_f the number of off-diagonal
collisions f(x) = f(y).  Scaled by p, the collision count estimates how
many components of the collision curve survive over the base field, and
that estimate can be cross-checked against a translation model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._batch import get_batch
from .errors import InternalInvariantError, ValidationError, check_power_cap
from .excscan import value_table
from .grouptheory import MonodromyData, _coset_fixes
from .projmap import Poly


@dataclass(frozen=True)
class PencilReport:
    p: int
    coeffs: tuple[int, ...]  # of f, low to high, as residues
    e_values: tuple[int, ...]  # E_lambda for lambda = 0 .. p-1
    w: int
    n_f: int
    identity_ok: bool
    k_f_estimate: int
    deviation: int  # |N_f - k_f_estimate * p|

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "coeffs": list(self.coeffs),
            "e_values": list(self.e_values),
            "w": self.w,
            "n_f": self.n_f,
            "identity_ok": self.identity_ok,
            "k_f_estimate": self.k_f_estimate,
            "deviation": self.deviation,
        }


def pencil_scan(f: Poly) -> PencilReport:
    """Error sums of the pencil y^2 = f(x) + lambda over the prime field of f.

    E_lambda comes from summing the quadratic character of f(x) + lambda
    over x, W from squaring, and N_f from the value histogram of f; the
    exact identity W = p * N_f is asserted, not merely reported.
    """
    ctx = f.ctx
    p = ctx.p
    if ctx.order != p:
        raise ValidationError("pencil scans run over prime fields only")
    if p == 2:
        raise ValidationError("even characteristic has no quadratic character")
    check_power_cap(p, 2, "pencil correlation")
    if f.degree < 1:
        raise ValidationError("need deg f >= 1")

    counts = np.bincount(value_table(f, 1)[:p], minlength=p)
    n_f = int((counts * (counts - 1)).sum())
    # E_lambda = sum over v of counts[v] * chi(v + lambda): a cyclic
    # correlation, taken exactly in int64 over chi extended by p - 1 entries
    chi = get_batch(ctx).quadratic_character(np.arange(p))
    e_values = np.correlate(np.concatenate([chi, chi[:-1]]), counts).tolist()
    w = sum(e * e for e in e_values)

    if w != p * n_f:
        raise InternalInvariantError(
            f"squared error sum {w} differs from p * N_f = {p * n_f}"
        )
    k = (2 * n_f + p) // (2 * p)  # nearest integer to N_f / p
    return PencilReport(
        p=p,
        coeffs=tuple(f.indices()),
        e_values=tuple(e_values),
        w=w,
        n_f=n_f,
        identity_ok=True,
        k_f_estimate=k,
        deviation=abs(n_f - k * p),
    )


def stable_component_count(model: MonodromyData) -> int:
    """Off-diagonal orbits of the geometric group that the t=1 coset fixes.

    Orbits of the diagonal action on pairs play the role of components of
    the collision locus over the algebraic closure; only the orbits sent
    to themselves by the Frobenius element survive over the base field.
    By the twisted Burnside lemma they number the mean over G*tau of the
    off-diagonal pairs fixed, f^2 - f for an element fixing f points.
    """
    _, counts = next(_coset_fixes(model, 1 % model.d))
    f = sum(counts)
    return int((f * f - f).sum()) // model.group.order


@dataclass(frozen=True)
class KfCrossCheck:
    report: PencilReport
    model_count: int
    bound: float  # (deg f)^2 * (2 sqrt(p) + 1)
    ok: bool


def kf_cross_check(f: Poly, model: MonodromyData) -> KfCrossCheck:
    """Compare the collision estimate of f against a monodromy model.

    Passes when |N_f - model_count * p| stays inside the generous
    square-root envelope (deg f)^2 (2 sqrt p + 1); this is a sanity check
    on the model, not a certified bound.
    """
    report = pencil_scan(f)
    k_model = stable_component_count(model)
    bound = f.degree ** 2 * (2 * report.p ** 0.5 + 1)
    ok = abs(report.n_f - k_model * report.p) <= bound
    return KfCrossCheck(report=report, model_count=k_model, bound=bound, ok=ok)
