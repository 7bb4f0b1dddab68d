"""Error hierarchy and resource caps.

Every failure the library can produce falls into one of three buckets,
and the CLI maps each bucket to a fixed exit code: bad input (2),
a size cap exceeded (3), and an internal invariant violation (4).
Invariant violations are never downgraded or silently repaired.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

DEFAULT_FIELD_CAP = 2 ** 24

_CAP_ENV = "EXCOV_CAP"
# a cap set for one block by field_cap_scope; it wins over EXCOV_CAP
_CAP_SCOPE: ContextVar[int | None] = ContextVar("excov_field_cap", default=None)


class ExcovError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class ValidationError(ExcovError):
    """Caller supplied an argument outside an operation's domain."""

    exit_code = 2


class CapExceededError(ExcovError):
    """An enumeration or closure would exceed a configured size cap."""

    exit_code = 3


class InternalInvariantError(ExcovError):
    """A computed value contradicts something the library guarantees."""

    exit_code = 4


def field_cap() -> int:
    """Current enumeration budget: the most entries one table may hold.

    It caps field orders, p^2 for pencils and isogeny map degrees, the
    degree n of a family map (power, Dickson, Chebyshev and its twists,
    Redei), whose n + 1 coefficients are built from a short spec, the
    order * degree entries of a permutation group's closure, the
    size * r * n entries of a braid orbit of r-tuples on n letters, and the
    N^2 entries a tower on N letters needs at least.  The innermost
    ``field_cap_scope`` decides, then EXCOV_CAP, then DEFAULT_FIELD_CAP.
    """
    scoped = _CAP_SCOPE.get()
    if scoped is not None:
        return scoped
    raw = os.environ.get(_CAP_ENV)
    if raw is None:
        return DEFAULT_FIELD_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValidationError(f"{_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 2:
        raise ValidationError(f"{_CAP_ENV} must be at least 2, got {cap}")
    return cap


@contextmanager
def field_cap_scope(cap: int) -> Iterator[None]:
    """Make ``field_cap()`` return cap inside the block, leaving os.environ."""
    token = _CAP_SCOPE.set(cap)
    try:
        yield
    finally:
        _CAP_SCOPE.reset(token)


def _shown(n: int) -> str:
    """n in decimal, or its bit length once it is too long to print whole."""
    return str(n) if n.bit_length() <= 64 else f"<{n.bit_length()}-bit integer>"


def check_field_cap(size: int, what: str = "field") -> None:
    cap = field_cap()
    if size > cap:
        raise CapExceededError(f"{what} of size {_shown(size)} exceeds cap {cap}")


def check_power_cap(base: int, exp: int, what: str = "field") -> None:
    """check_field_cap(base ** exp), refusing a plainly oversized power first.

    base ** exp >= 2 ** ((bits of base - 1) * exp), so when that exponent
    reaches the bit length of the cap the power is over it and is never
    computed.  The message names the size as base^exp.
    """
    cap = field_cap()
    if (
        base >= 2 and exp >= 1 and (base.bit_length() - 1) * exp >= cap.bit_length()
    ) or base ** exp > cap:
        raise CapExceededError(
            f"{what} of size {_shown(base)}^{_shown(exp)} exceeds cap {cap}"
        )
