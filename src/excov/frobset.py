"""Sets of positive integers that are unions of full unit-orbit progressions.

A value is (modulus d, residues mod d) with the residue set closed under
multiplication by units of Z/d and the modulus minimal for the membership
function.  Residue 0 stands for the class of multiples of d.  These are
exactly the sets that can arise as exceptionality loci, so intersection,
union, and exact fitting from sample prefixes stay inside the class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import ValidationError


def _unit_closure(d: int, residues) -> frozenset[int]:
    """The residues mod d reached from residues by multiplying with units.

    The units of Z/d act transitively on the residues r with one value of
    gcd(r, d), so the closure is every r whose gcd with d is one of the
    gcds of the given residues: O(d) gcds, whatever the number of units.
    """
    gcds = {math.gcd(r, d) for r in residues}
    return frozenset(r for r in range(d) if math.gcd(r, d) in gcds)


def _minimal_modulus(d: int, residues: frozenset[int]) -> tuple[int, frozenset[int]]:
    """Smallest d' | d carrying the same membership function."""
    for dp in sorted(_divisors(d)):
        collapsed = {r % dp for r in residues}
        # consistent iff membership mod d only depends on the class mod dp
        if all(((r % dp) in collapsed) == (r in residues) for r in range(d)):
            return dp, frozenset(collapsed)
    return d, residues  # pragma: no cover - d itself always passes


def _divisors(n: int) -> list[int]:
    out = []
    for i in range(1, int(math.isqrt(n)) + 1):
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
    return sorted(out)


@dataclass(frozen=True)
class FrobeniusSet:
    """Unit-closed residue set with minimal modulus; immutable."""

    modulus: int
    residues: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.modulus < 1:
            raise ValidationError("modulus must be >= 1")
        bad = [r for r in self.residues if not 0 <= r < self.modulus]
        if bad:
            raise ValidationError(f"residues {bad} outside range of modulus {self.modulus}")
        closed = _unit_closure(self.modulus, set(self.residues))
        if closed != self.residues:
            raise ValidationError(
                "residues not closed under unit multiplication; build with from_residues"
            )
        d, rs = _minimal_modulus(self.modulus, self.residues)
        if d != self.modulus:
            raise ValidationError(
                f"modulus {self.modulus} not minimal (reduces to {d}); build with from_residues"
            )

    def contains(self, t: int) -> bool:
        if t < 1:
            raise ValidationError("membership is defined for positive integers")
        return (t % self.modulus) in self.residues

    __contains__ = contains

    def is_empty(self) -> bool:
        return not self.residues

    def expand(self, d: int) -> frozenset[int]:
        """Residue set modulo a multiple of the modulus."""
        if d % self.modulus != 0:
            raise ValidationError(f"{d} is not a multiple of modulus {self.modulus}")
        return frozenset(
            r for r in range(d) if (r % self.modulus) in self.residues
        )

    def to_json_dict(self) -> dict:
        return {"modulus": self.modulus, "residues": sorted(self.residues)}

    def __repr__(self) -> str:
        rs = ",".join(str(r) for r in sorted(self.residues))
        return f"FrobeniusSet({{{rs}}} mod {self.modulus})"


def from_residues(d: int, residues) -> FrobeniusSet:
    """Close under units of Z/d, then minimize the modulus."""
    if d < 1:
        raise ValidationError("modulus must be >= 1")
    return _from_closed(d, _unit_closure(d, {int(r) for r in residues}))


def _from_closed(d: int, closed: frozenset[int]) -> FrobeniusSet:
    """The set of a unit-closed residue set mod d, with its modulus minimized.

    The caller has closed the set, so the constructor's checks, which
    would close it again, are skipped.
    """
    dmin, rmin = _minimal_modulus(d, closed)
    out = object.__new__(FrobeniusSet)
    object.__setattr__(out, "modulus", dmin)
    object.__setattr__(out, "residues", rmin)
    return out


def intersect(a: FrobeniusSet, b: FrobeniusSet) -> FrobeniusSet:
    d = math.lcm(a.modulus, b.modulus)
    return from_residues(d, a.expand(d) & b.expand(d))


def union(a: FrobeniusSet, b: FrobeniusSet) -> FrobeniusSet:
    d = math.lcm(a.modulus, b.modulus)
    return from_residues(d, a.expand(d) | b.expand(d))


def fit_from_samples(
    samples: Sequence[bool], d_max: int
) -> Optional[FrobeniusSet]:
    """Least-modulus exact fit of a membership prefix, or None.

    samples[i] is membership of t = i + 1.  Requires at least 2*d_max
    samples so every residue class up to d_max is observed twice; the fit
    must reproduce the prefix exactly and be unit-closed, otherwise None.
    """
    T = len(samples)
    if d_max < 1:
        raise ValidationError("d_max must be >= 1")
    if T < 2 * d_max:
        raise ValidationError(f"need at least {2 * d_max} samples for d_max={d_max}, got {T}")
    for d in range(1, d_max + 1):
        residues = {t % d for t in range(1, T + 1) if samples[t - 1]}
        if any(((t % d) in residues) != bool(samples[t - 1]) for t in range(1, T + 1)):
            continue
        if _unit_closure(d, residues) != frozenset(residues):
            continue
        return FrobeniusSet(d, frozenset(residues))
    return None
