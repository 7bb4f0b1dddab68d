"""Vectorized arithmetic over every element of a finite field at once.

Field elements exist here only as int64 element indices: index i is the
element whose base-p digits, low first, are its prime-field coefficients
(``FieldElem.index``).  Each field F_Q gets three tables, built once from
a fixed multiplicative generator g, with m = Q - 1:

- ``exp[j]``, the index of g**j for 0 <= j < m;
- ``log``, its inverse, with ``log[0] = m`` standing for the log of zero;
- ``zech[n] = log(1 + g**n)``, Zech's logarithm, or m where 1 + g**n = 0.

Products and powers are then sums and multiples of logs mod m, and sums
follow Zech's rule a + b = a * (1 + b/a).  Adding 1 to an element changes
only its lowest base-p digit, so the "+1" step behind ``zech`` is index
arithmetic: i + 1, or i - (p - 1) when i % p == p - 1.

All index arithmetic is int64, and a product of two logs is below m**2,
so fields with m**2 >= 2**63 are refused with ``CapExceededError`` before
any table is built rather than allowed to wrap.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import CapExceededError, InternalInvariantError
from .gf import FieldCtx, FieldElem, _prime_factors
from .projmap import _lift

# rows of the exp digit table multiplied per matmul, to bound temporaries
_CHUNK = 1 << 12


class BatchField:
    """All-elements arithmetic for one field context."""

    def __init__(self, ctx: FieldCtx):
        if (ctx.order - 1) ** 2 >= 2**63:
            raise CapExceededError(
                f"field of order {ctx.order} is too large for int64 log arithmetic"
            )
        self.ctx = ctx
        self.p = ctx.p
        self.D = ctx.k
        self.order = ctx.order
        self._pack_weights = [self.p**i for i in range(self.D)]
        self._tables: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def pack(self, digits: np.ndarray) -> np.ndarray:
        """Digit rows (entries in [0, p), low first) to element indices."""
        digits = np.asarray(digits)
        out = np.zeros(digits.shape[:-1], dtype=np.int64)
        for j in range(self.D):
            out += digits[..., j].astype(np.int64) * self._pack_weights[j]
        return out

    # -- discrete-log layer ---------------------------------------------------
    #
    # Three tables per field: exp, log and zech.  Multiplication by g is
    # linear over the prime field, so the digit rows of g**j double block by
    # block with one matmul per block; they are packed to indices once and
    # freed.  log scatters exp's positions; zech gathers log at each exp
    # entry plus one, a step on the lowest base-p digit that wraps at p - 1.
    # Logs stay below m, so a product of two fits int64 once m**2 < 2**63,
    # the bound __init__ enforces.

    def generator(self) -> FieldElem:
        """A fixed multiplicative generator, smallest by element index."""
        g = _GENERATORS.get(self.ctx.key)
        if g is None:
            m = self.order - 1
            checks = [m // r for r in _prime_factors(m)]
            one = self.ctx.one()
            for i in range(1, self.order):
                e = self.ctx.from_index(i)
                if all((e**c) != one for c in checks):
                    g = _GENERATORS[self.ctx.key] = e
                    break
            else:  # pragma: no cover - the group is always cyclic
                raise InternalInvariantError("no multiplicative generator found")
        return g

    def _exp_digits(self) -> np.ndarray:
        """(m, D) digit rows of g**j, j < m."""
        m, p = self.order - 1, self.p
        # float64 goes through BLAS, 1.5-5x faster here than numpy's integer
        # matmul loop.  Its products are exact while D * (p-1)**2 < 2**53,
        # which D >= 2 guarantees (p**2 <= Q); a prime field's 1x1 products
        # need int64 once p passes 2**26
        work = np.int64 if self.D == 1 else np.float64
        gen = self.generator()
        gmat = np.array(
            [(gen * self.ctx.from_index(p**b)).prime_coeffs() for b in range(self.D)],
            dtype=work,
        )
        exp = np.zeros((m, self.D), dtype=np.min_scalar_type(p - 1))
        exp[0, 0] = 1
        filled = 1
        while filled < m:
            step = min(filled, m - filled)
            for s in range(0, step, _CHUNK):
                e = min(s + _CHUNK, step)
                block = (exp[s:e] @ gmat).astype(np.int64)
                exp[filled + s : filled + e] = block % p
            filled += step
            if filled < m:
                gmat = (gmat @ gmat) % p
        return exp

    def tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(exp, log, zech) as described in the module docstring."""
        if self._tables is None:
            m, p = self.order - 1, self.p
            exp = self.pack(self._exp_digits())
            log = np.empty(self.order, dtype=np.int64)
            log[exp] = np.arange(m, dtype=np.int64)
            log[0] = m
            plus_one = exp + 1
            plus_one[exp % p == p - 1] -= p
            self._tables = (exp, log, log[plus_one])
        return self._tables

    def pow_indices(self, idx: np.ndarray, e: int) -> np.ndarray:
        """Index array of x**e; zero stays zero for every e, even e <= 0."""
        m = self.order - 1
        exp, log, _ = self.tables()
        out = exp[(e % m) * log[idx] % m]
        return np.where(idx == 0, 0, out)

    def mul_indices(self, a_idx: np.ndarray, b_idx: np.ndarray) -> np.ndarray:
        m = self.order - 1
        exp, log, _ = self.tables()
        out = exp[(log[a_idx] + log[b_idx]) % m]
        return np.where((a_idx == 0) | (b_idx == 0), 0, out)

    # -- whole-field evaluation ------------------------------------------------

    def eval_sparse(self, terms: Sequence[tuple[int, FieldElem | int]]) -> np.ndarray:
        """Index table of sum(c * x**e) over every x, in index order.

        Coefficients may come from any field below this one.  At x = g**j
        the term c * x**e has log (e*j + log c) mod m, which needs no
        gather; each further term is added in log order by one Zech gather,
        and one scatter moves the sums to index order.  x = 0 takes the
        constant term.
        """
        exp, log, zech = self.tables()
        m = self.order - 1
        const = self.ctx.zero()
        logs = []  # (e mod m, log c) per nonzero term
        for e, c in terms:
            c = _lift(self.ctx, c)
            if c.is_zero():
                continue
            if e == 0:
                const = const + c
            logs.append((e % m, int(log[c.index])))
        out = np.zeros(self.order, dtype=np.int64)
        if logs:
            j = np.arange(m, dtype=np.int64)
            (s, lc), rest = logs[0], logs[1:]
            acc = j * s  # the running sum's log at each j
            acc += lc
            acc %= m
            d = np.empty_like(acc)
            zeros = np.empty(0, dtype=np.int64)  # the j where the sum is 0
            for s, lc in rest:
                # log(a + b) = log a + Z(log b - log a), where Z = m for a + b = 0;
                # j*s + lc + m - acc stays below m**2
                np.multiply(j, s, out=d)
                d += lc + m
                d -= acc
                d %= m
                z = zech[d]
                acc += z
                acc %= m
                sums_zero = np.flatnonzero(z == m)
                del z
                # where the sum was 0, the new sum is the term itself
                acc[zeros] = (s * zeros + lc) % m
                zeros = np.setdiff1d(sums_zero, zeros, assume_unique=True)
            del j, d
            vals = exp[acc]
            vals[zeros] = 0
            out[exp] = vals
        out[0] = const.index
        return out

    def power_table(self, n: int) -> np.ndarray:
        """Index table of x**n for every x, with 0**0 = 1.  n >= 0."""
        return self.eval_sparse([(n, 1)])


# -- permutation utilities ----------------------------------------------------


def is_permutation(values: np.ndarray, size: int) -> bool:
    """Does the index array hit every slot in [0, size) exactly once?"""
    if values.shape[0] != size:
        return False
    counts = np.bincount(values, minlength=size)
    return bool(counts.max(initial=0) == 1) and counts.size == size


# levels below this many nodes go straight to _doubling (measured crossover)
_RULING_MIN = 1 << 14
# a node is a splitter when the top _SPLIT_BITS bits of its hash are 0
_SPLIT_BITS = 4
# Fibonacci hashing: 2**64 / golden ratio, rounded to odd
_GOLDEN64 = 0x9E3779B97F4A7C15


def _index_dtype(n: int) -> type:
    """Index width for arrays of n nodes: int32 while every index fits."""
    return np.int32 if n < 2**31 else np.int64


def permutation_period(perm: np.ndarray) -> int:
    """Multiplicative order of a permutation: the lcm of its cycle lengths.

    Indices are narrowed to ``_index_dtype(n)``.  Each level of
    ``_cycle_weights`` marks about one node in 16 as a splitter, by a
    multiplicative hash of the index that ignores the permutation, and walks
    from every splitter at once to the next one, one gather per step over
    the walks still running.  Every node lies on at most one walk, so a
    level costs about n.  Splitter to next splitter, weighted by the number
    of nodes passed, is a permutation of the splitters whose weighted cycle
    sums are the original cycle lengths; it is contracted again the same
    way.  Nodes that no walk reaches lie on cycles without a splitter, short
    ones with high probability, and go to ``_doubling``, as does every level
    below ``_RULING_MIN`` nodes, the size under which doubling was faster
    on random permutations.  On scan tables of 1-2 * 10^6 points this is
    3-10x faster than log2(n) rounds of doubling over int64 indices, and
    its transient memory is a third of theirs.
    """
    n = perm.shape[0]
    if n == 0:
        return 1
    lens = np.unique(np.concatenate(_cycle_weights(perm.astype(_index_dtype(n)), None)))
    return math.lcm(*(int(c) for c in lens))


def _cycle_weights(succ: np.ndarray, w: np.ndarray | None) -> list[np.ndarray]:
    """Weight sums of the cycles of succ, node weights w (None: all 1)."""
    n = succ.shape[0]
    if n < _RULING_MIN:
        return [_doubling(succ, w)]
    dt = succ.dtype
    bits = 8 * dt.itemsize
    h = np.arange(n, dtype=f"u{dt.itemsize}")
    h *= h.dtype.type(_GOLDEN64 >> (64 - bits))
    spl = np.flatnonzero(h < (1 << (bits - _SPLIT_BITS)))
    del h
    k = spl.size  # >= 1: index 0 hashes to 0
    # tag: splitter rank, -1 while unreached, -2 once a walk passes
    tag = np.full(n, -1, dtype=dt)
    tag[spl] = np.arange(k, dtype=dt)
    nxt = np.empty(k, dtype=dt)  # each splitter's next splitter
    gap = np.empty(k, dtype=np.int64)  # weight from a splitter up to its next
    walker = np.arange(k, dtype=dt)
    pos = succ[spl]
    acc = None if w is None else w[spl]  # weight walked, if not the step count
    step = 1
    while walker.size:
        t = tag[pos]
        hit = t >= 0
        ends = np.flatnonzero(hit)
        if ends.size:
            done = walker[ends]
            nxt[done] = t[ends]
            gap[done] = step if acc is None else acc[ends]
            keep = ~hit
            walker, pos = walker[keep], pos[keep]
            if acc is not None:
                acc = acc[keep]
        tag[pos] = -2
        if acc is not None:
            acc += w[pos]
        pos = succ[pos]
        step += 1
    out = _cycle_weights(nxt, gap)
    left = np.flatnonzero(tag == -1)
    if left.size:
        inv = np.empty(n, dtype=dt)
        inv[left] = np.arange(left.size, dtype=dt)
        out.append(_doubling(inv[succ[left]], None if w is None else w[left]))
    return out


def _doubling(succ: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    """Cycle weight sums by pointer doubling, stopped once labels are stable.

    After r rounds a node's label is the least index among it and its next
    2**r - 1 successors.  On a cycle longer than 2**r the node 2**r steps
    before the cycle's least index then changes label in round r + 1, so
    one round without change means every cycle is covered and every label
    is its cycle's least index.
    """
    n = succ.shape[0]
    ident = np.arange(n, dtype=succ.dtype)
    labels, hop = ident, succ
    while True:
        nxt = np.minimum(labels, labels[hop])
        if np.array_equal(nxt, labels):
            break
        labels, hop = nxt, hop[hop]
    sums = np.bincount(labels, weights=w, minlength=n)
    return sums[labels == ident].astype(np.int64)


# -- instance cache -----------------------------------------------------------

_CACHE: dict[tuple, BatchField] = {}
_CACHE_CAP = 3
# generators per ctx.key; one element each, kept when _CACHE drops a field
_GENERATORS: dict[tuple, FieldElem] = {}


def get_batch(ctx: FieldCtx) -> BatchField:
    """Shared BatchField per field; a few live at a time, oldest dropped."""
    key = ctx.key
    if key in _CACHE:
        return _CACHE[key]
    if len(_CACHE) >= _CACHE_CAP:
        oldest = next(iter(_CACHE))
        del _CACHE[oldest]
    bf = BatchField(ctx)
    _CACHE[key] = bf
    return bf
