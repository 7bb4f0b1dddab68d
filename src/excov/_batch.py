"""Vectorized arithmetic over every element of a finite field at once.

Field elements exist here only as element indices: index i is the
element whose base-p digits, low first, are its prime-field coefficients
(``FieldElem.index``).  Each field F_Q gets up to three tables, built
from a fixed multiplicative generator g, with m = Q - 1:

- ``exp[j]``, the index of g**j for 0 <= j < m;
- ``log``, its inverse, with ``log[0] = m`` standing for the log of zero;
- ``zech[n] = log(1 + g**n)``, Zech's logarithm, or m where 1 + g**n = 0
  (Lidl and Niederreiter, *Finite Fields*, ch. 3).

Which reader builds which table:

- exp and log are one build, made on first use (log is exp's scatter), by
  the readers of element indices: ``index_order`` (so ``value_table``),
  ``pow_indices``, ``mul_indices``, ``quadratic_character`` and
  ``tables()``; and by the zech of a sum read on every log (r = 1
  fields, the pencil, the curve point counts).
- An evaluation never reads exp, and reads log only for a unit outside
  the tower base K, the field under this one (``label``; log 1 = 0 under
  every generator).  A scan field's base is the map's own field, so once
  t >= 2 no coefficient of a scanned map, nor its value at 0 or infinity,
  needs log; a scan of x**n or x**a / x**b searches no generator either.
- zech is built when a sum of two or more terms is evaluated, or
  ``tables()`` asked for.  On the Frobenius-orbit quotient (below) it is
  filled from its values at the orbit representatives with no log table,
  in the rotation passes that also build ``orbit_lookup`` when both are
  missing (``_quotient_tables``), and is the same table.  A field read
  on the quotient so holds zech and one lookup per step, about 4 bytes
  per point each, plus 5d/D for the representatives and orbit lengths,
  where exp and log would add 8 more.

``table_bytes`` counts what a field holds, each array from its build on.
``get_batch`` keeps the most recently used fields within ``_CACHE_BYTES``,
which holds the towers the acceptance checks climb in turn under the
600000-point cap, and counts the field asked for as at least one table of
its points, so that a large field clears the cache before its build
rather than after.

The generator and the tables come from the F_p-matrix engine in ``gf``:
multiplication by an element is a D x D matrix over F_p on its digit
row, built from the moduli alone.  The generator is the least index whose
powers g**(m/r), r prime, are not 1, tested on blocks of candidates by
batched matrix squaring.  exp is built block by block, each block of
digit rows the one before times M(g)**_CHUNK and packed to indices at
once, so no table of digit rows is ever held.  When D >= 2 the blocks
stay in floats throughout, reduced mod p exactly (``_mod_p``): float32
where Q <= 2**24 and D * (p-1)**2 < 2**22, which covers every field of
D >= 2 under the default cap but those of D = 2 with p >= 1451, and
float64 elsewhere.

Products and powers are then sums and multiples of logs mod m, and sums
follow Zech's rule a + b = a * (1 + b/a).  Adding 1 to an element changes
only its lowest base-p digit, so the "+1" step behind ``zech`` is index
arithmetic: i + 1, or i - (p - 1) when i % p == p - 1.

A sparse polynomial (``eval_sparse``) is evaluated one log at a time:
term by term, each new term added by one Zech gather.  Its table is in
log coordinates, the value logs it computes anyway: the unit g**j is
label j, 0 is label m and infinity label Q, and slot j holds the label
of f(g**j), slot m that of f(0).  ``index_order`` alone turns a table
into element indices.  When the coefficients lie in F_{p**d} for a
d < D, x -> x**(p**d) commutes with f, and in log space that map is
j -> j * p**d mod m.  Given that step, ``eval_sparse`` evaluates f only
at the least log of each of these orbits (``orbit_reps``), about m*d/D
of them, and returns per representative the orbit of its value and the
rotation that takes that orbit's representative there, read through the
per-label (orbit, rotation) lookup ``orbit_lookup``.  ``excscan`` reads
fibers, bijectivity and the period off this orbit map, the period with
its rotations by ``permutation_period(succ, rot, r)``.  That kernel walks
its own int32 copy of the successors in place, marking splitters and
passed nodes in it, and takes the rotations as one int8 column (r <= 31
below 2**32 points): about 9.5 bytes per node of transient memory on
2**20 nodes, with or without rotations.  The
representatives and the lookup are cached per field and d, at about
4d/D and 4 bytes per point, plus d/D more for the orbit lengths, and
counted in ``table_bytes``.  A monomial on the quotient still builds no
generator, exp, log or zech.  ``orbit_step`` picks the step on which
a scan reads a map, or the pair flags two maps together: d for a sum of
two or more terms, and for single-term maps (x**n, c * x**n,
x**a / x**b) only once r = D/d reaches ``_QUOTIENT_MIN_R``; below that,
the lookup build costs more than the whole-field table it saves.
Without a step the table is evaluated at every log, as for r = 1
fields, value tables, the pencil and the curve point counts.

Tables are stored at the width ``_index_dtype(Q)``: int32 while
Q < 2**31, 8 bytes per point for exp and log and 4 more for zech, else
int64.  A sum or product of two logs can pass int32, so log arithmetic
is int64, after a cast, and divides as little as it can.  On a full
table the logs j of a block are consecutive, so the logs
(e*j + log c) mod m of a term are an arithmetic progression: its base
over one block is formed once per call, with one ``%``, and each block
adds a Python-int offset to it.  Every later sum, a Zech step, the
running sum or numerator minus denominator, lies in [0, 2m) and is
reduced by ``_wrap`` with no division at all.  On the quotient the
representatives are not consecutive, so a term costs one ``%`` there.
Its products e*j, and those of ``pow_indices``, are below m**2, so
fields with m**2 >= 2**63 are refused with ``CapExceededError`` before
any table is built rather than allowed to wrap.  Whole-field tables are
int64: ``np.bincount`` and fancy indexing widen an int32 index array to
a full int64 copy, so a narrower table would raise a scan's peak, not
lower it.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from .errors import CapExceededError, InternalInvariantError, ValidationError
from .gf import FieldCtx, FieldElem, _element_matrices, _index_blocks, _power, _prime_factors
from .projmap import _lift

# digit rows of g**j per block of the exp build, and prefixes per block of
# the orbit_reps build, to bound their temporaries
_CHUNK = 1 << 12
# logs j evaluated together by eval_sparse, to bound its temporaries; of
# 2**15 to 2**18, 2**16 was fastest on fields of 1.8e5 to 4.2e6 points
_BLOCK = 1 << 16


def _index_dtype(n: int) -> type:
    """Index width for values below n: int32 while every one fits."""
    return np.int32 if n < 2**31 else np.int64


def _wrap(x: np.ndarray, m: int, spare: np.ndarray) -> np.ndarray:
    """x mod m in place, for int64 x in [0, 2m), with no division.

    Viewed as uint64, x - m wraps to a value past 2**63 exactly when x < m,
    so the lesser of x and x - m is x mod m.  spare is a uint64 buffer at
    least as long as x.  On 65,536 random values in [0, 2m) (2 vCPUs, a
    16 us copy in each) this took 50 us, ``%`` 250 us and a masked
    ``np.subtract(..., where=x >= m)`` 587 us.
    """
    u = x.view(np.uint64)
    low = spare[: u.size]
    np.subtract(u, np.uint64(m), out=low)
    np.minimum(u, low, out=u)
    return x


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
        self._base_order = ctx.base_order  # |K|, of the tower base K; for ``label``
        # floats go through BLAS, 1.5-5x faster here than numpy's integer
        # matmul loop.  With t mantissa bits, the generator search, the exp
        # build and its packing are exact while every index is below 2**t
        # and D * (p-1)**2 < 2**(t-2) (``_mod_p``).  float32 (t = 24) thus
        # serves Q <= 2**24 with D * (p-1)**2 < 2**22, at half the memory
        # traffic of float64 (t = 53), which serves every other field with
        # D >= 2 ((p-1)**2 < Q < 2**32, D < 32).  A prime field's 1x1
        # products need int64 once p passes 2**26
        if self.D == 1:
            self._work = np.int64
        elif self.order <= 2**24 and self.D * (self.p - 1) ** 2 < 2**22:
            self._work = np.float32
        else:
            self._work = np.float64
        self._pack_weights = self.p ** np.arange(self.D, dtype=self._work)
        self.dtype = _index_dtype(self.order)
        # bytes of the arrays below, each added as it is built
        self.table_bytes = 0
        self._tables: tuple[np.ndarray, np.ndarray] | None = None
        self._zech: np.ndarray | None = None
        # the logs of the tower base K's units, scaled by m/(|K| - 1); for ``label``
        self._base_logs: np.ndarray | None = None
        # orbit_reps and orbit_lookup per Frobenius step d
        self._reps: dict[int, np.ndarray] = {}
        self._lookups: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def pack(self, digits: np.ndarray) -> np.ndarray:
        """Digit rows (entries in [0, p), low first) to element indices."""
        return (np.asarray(digits) @ self._pack_weights).astype(self.dtype)

    # -- discrete-log layer ---------------------------------------------------
    #
    # Up to three tables per field: exp and log, then zech once a sum needs
    # it, or zech alone on the quotient.  Multiplication by g is linear over
    # the prime field: the first _CHUNK digit rows of g**j come by
    # doubling, and each later block is the block before times
    # M(g)**_CHUNK, one matmul.  Each block is packed into exp and
    # scattered into log as it is made, then dropped.  zech gathers log at
    # each exp entry plus one, a step on the lowest base-p digit that wraps
    # at p - 1, in blocks of _BLOCK, or is rotated out from the orbit
    # representatives.  Logs stay below m, so a product of two fits int64
    # once m**2 < 2**63, the bound __init__ enforces; the int32 tables are
    # widened first.

    def generator(self) -> FieldElem:
        """A fixed multiplicative generator, smallest by element index.

        Candidates are tested in blocks, in index order: g generates when
        g**(m/r) != 1 for every prime r dividing m.  Indices below p are
        the prime field, whose orders divide p - 1, so when D >= 2 the
        search starts at p.  Each power is row 0 of
        M(g)**(m/r), taken from one chain of squarings of the candidates'
        matrices that all the exponents share.
        """
        g = _GENERATORS.get(self.ctx.key)
        if g is None:
            m, p = self.order - 1, self.p
            exps = [m // r for r in _prime_factors(m)]
            one = np.eye(self.D, dtype=self._work)[0]
            for idx in _index_blocks(p if self.D >= 2 else 1, self.order):
                sq = _element_matrices(self.ctx, idx).astype(self._work)
                pw = np.broadcast_to(one, (len(idx), len(exps), self.D)).copy()
                for bit in range(max(exps, default=0).bit_length()):
                    sel = [i for i, e in enumerate(exps) if e >> bit & 1]
                    if sel:
                        pw[:, sel] = pw[:, sel] @ sq % p
                    sq = sq @ sq % p
                hit = np.flatnonzero(~(pw == one).all(axis=2).any(axis=1))
                if hit.size:
                    g = _GENERATORS[self.ctx.key] = self.ctx.from_index(int(idx[hit[0]]))
                    break
            else:  # pragma: no cover - the group is always cyclic
                raise InternalInvariantError("no multiplicative generator found")
        return g

    def tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(exp, log, zech) as described in the module docstring; builds
        zech if no sum has yet."""
        return (*self._exp_log(), self._zech_table())

    def _exp_log(self) -> tuple[np.ndarray, np.ndarray]:
        if self._tables is None:
            log = np.empty(self.order, dtype=self.dtype)
            log[0] = self.order - 1
            exp = self._exp(log)
            self._tables = (exp, log)
            self.table_bytes += exp.nbytes + log.nbytes
        return self._tables

    def _exp(self, log: np.ndarray | None = None) -> np.ndarray:
        """A new exp table; with ``log``, each block is scattered into it
        as it is made."""
        m = self.order - 1
        exp = np.empty(m, dtype=self.dtype)
        ramp = np.arange(min(_CHUNK, m), dtype=self.dtype)  # lo + i for the block at lo
        for lo, block in self._exp_rows():
            hi = lo + block.shape[0]
            # digit sums below Q are exact in float64, and so is the cast
            exp[lo:hi] = block @ self._pack_weights
            if log is not None:
                if lo:
                    ramp += ramp.size
                log[exp[lo:hi]] = ramp[: hi - lo]
        return exp

    def _exp_rows(
        self, x: int | None = None, count: int | None = None
    ) -> Iterator[tuple[int, np.ndarray]]:
        """(lo, the digit rows of x**j for lo <= j < lo + _CHUNK, below
        count), block by block in the work dtype; x is the generator g and
        count m unless given.  The first block comes by doubling, which
        leaves step at M(x)**_CHUNK; every later block is the one before
        times step."""
        m = self.order - 1 if count is None else count
        x = self.generator().index if x is None else x
        step = _element_matrices(self.ctx, [x])[0].astype(self._work)
        rows = min(_CHUNK, m)
        block = np.zeros((rows, self.D), dtype=self._work)
        block[0, 0] = 1
        filled = 1
        while filled < rows:
            n = min(filled, rows - filled)
            block[filled : filled + n] = self._mod_p(block[:n] @ step)
            filled += n
            step = self._mod_p(step @ step)
        for lo in range(0, m, rows):
            if lo:
                block = self._mod_p(block @ step)
            yield lo, block[: m - lo]

    def _mod_p(self, y: np.ndarray) -> np.ndarray:
        """y mod p, in place, for a product of digit rows and a matrix over
        F_p in the work dtype.

        A prime field's int64 products are reduced by %.  When D >= 2 the
        work dtype is a float with t mantissa bits and unit roundoff
        u = 2**-t, and each entry of y is a sum of D products of digits,
        an integer y <= D * (p-1)**2 < 2**(t-2), so the sum is exact.
        ``__init__`` picks float32 (t = 24) only where D * (p-1)**2 < 2**22;
        float64 (t = 53) always holds it, as p**D < 2**32 gives p < 2**16
        and D < 32, so y < 2**37.  Then y + 1/2 is exact, 1/p is rounded
        once in the work dtype and the product once more, so
        (y + 1/2) * (1/p) is within a relative 2u + u**2 of (y + 1/2)/p,
        an absolute error of at most (2**(t-2) - 1/2)/p * (2u + u**2),
        which is below 1/(2p).  The true quotient (2y + 1)/(2p) lies at
        least 1/(2p) from every integer, so its floor is floor(y/p) and
        y - p * floor is exactly y mod p.  On a 4096 x 13 block over F_3
        (2 vCPUs, a copy of the block included) this takes 0.04 ms in
        float32 and 0.07 ms in float64, against 0.92 ms for
        ``np.remainder`` and 0.14 ms for a round trip through int32.
        """
        if self.D == 1:
            y %= self.p
            return y
        q = y + self._work(0.5)
        q *= self._work(1) / self._work(self.p)
        np.floor(q, out=q)
        q *= self.p
        y -= q
        return y

    def _zech_table(self) -> np.ndarray:
        """zech, gathered from exp and log (built first if need be) unless
        it is built already; a quotient scan builds it from the
        representatives first (``_quotient_tables``)."""
        if self._zech is None:
            exp, log = self._exp_log()
            m, p = self.order - 1, self.p
            zech = np.empty(m, dtype=self.dtype)
            for lo in range(0, m, _BLOCK):
                plus_one = exp[lo : lo + _BLOCK] + 1
                plus_one -= (plus_one % p == 0) * p  # a multiply: faster than a masked scatter
                zech[lo : lo + _BLOCK] = log[plus_one]
            self._zech = zech
            self.table_bytes += zech.nbytes
        return self._zech

    def _zech_at(self, reps: np.ndarray) -> np.ndarray:
        """Z(j) = log(1 + g**j) at the logs reps (int64), with no log table.

        One exp table is made and dropped here.  The y = 1 + g**j are
        marked in a byte mask over the indices, and the logs of the marked
        ones, J = flatnonzero(mask[exp]), come in ascending order; sorting
        the y's and the exp[J] pairs them, with no table from indices to
        reps.  y = 0 (g**j = -1) has Z = m."""
        m, p = self.order - 1, self.p
        exp = self._exp()
        y = exp[reps].astype(np.int64)
        y += 1
        y -= (y % p == 0) * p
        mask = np.zeros(self.order, dtype=bool)
        mask[y] = True
        mask[0] = False
        J = np.concatenate(
            [lo + np.flatnonzero(mask[exp[lo : lo + _BLOCK]]) for lo in range(0, m, _BLOCK)]
        )
        del mask
        found = exp[J]
        del exp
        z = np.full(reps.size, m, dtype=np.int64)
        units = np.flatnonzero(y)
        z[units[np.argsort(y[units])]] = J[np.argsort(found)]
        return z

    def label(self, index: int) -> int:
        """The log-coordinate label of an element index: log x for a unit,
        m for 0; Q, standing for infinity, stays Q.

        log 1 = 0 under every generator, so 1 reads no table.  When
        D >= 2, a unit c of the tower base K (index below |K|) reads none
        either: h = g**(m/(|K|-1)) generates K^*, and log c = (m/(|K|-1)) * k
        for the k < |K| - 1 with h**k = c, read off the |K| - 1 powers of h,
        made once (``_exp_rows`` of h).  Every other unit reads log: on a
        scan field, whose base is the map's field, that is none of the
        coefficients and none of the values at 0 and infinity."""
        m, K = self.order - 1, self._base_order
        if index == self.order:
            return index
        if index <= 1:
            return m if index == 0 else 0
        if index >= K:  # always when D = 1: K is then 1
            return int(self._exp_log()[1][index])
        if self._base_logs is None:  # row 0 of M(g)**(m/(|K|-1)) is h's digits
            gen = _element_matrices(self.ctx, [self.generator().index])[0].astype(self._work)
            row = np.eye(1, self.D, dtype=self._work)
            row = _power(gen, m // (K - 1), lambda a, b: self._mod_p(a @ b), row)
            h = int(self.pack(row)[0])
            logs = np.zeros(K, dtype=self.dtype)
            for lo, block in self._exp_rows(h, K - 1):
                logs[self.pack(block)] = np.arange(lo, lo + block.shape[0]) * (m // (K - 1))
            self._base_logs = logs
            self.table_bytes += logs.nbytes
        return int(self._base_logs[index])

    def pow_indices(self, idx: np.ndarray, e: int) -> np.ndarray:
        """Index array of x**e; zero stays zero for every e, even e <= 0."""
        m = self.order - 1
        exp, log = self._exp_log()
        k = log[idx].astype(np.int64)
        k *= e % m
        k %= m
        return np.where(idx == 0, 0, exp[k])

    def quadratic_character(self, idx: np.ndarray) -> np.ndarray:
        """chi(x) per index: 0 at zero (log[0] = m is even, so masked), else
        +1 or -1 by the parity of log x; every unit is a square in char 2."""
        log = self._exp_log()[1]
        out = 1 - 2 * (log[idx] & (self.p % 2))
        return np.where(idx == 0, 0, out)

    def mul_indices(self, a_idx: np.ndarray, b_idx: np.ndarray) -> np.ndarray:
        m = self.order - 1
        exp, log = self._exp_log()
        out = exp[(log[a_idx].astype(np.int64) + log[b_idx]) % m]
        return np.where((a_idx == 0) | (b_idx == 0), 0, out)

    # -- whole-field evaluation ------------------------------------------------

    def eval_sparse(
        self,
        terms: Sequence[tuple[int, FieldElem | int]],
        den: Sequence[tuple[int, FieldElem | int]] | None = None,
        step: int | None = None,
    ) -> np.ndarray:
        """Label table of sum(c * x**e): slot j < m holds the label of
        f(g**j), slot m that of f(0), so a zero is m.  With ``den``, the
        quotient by that sum, whose poles are Q.  Coefficients may come
        from any field below this one.  A new int64 table of Q + 1 slots;
        the last is left for the caller, which writes the value at
        infinity there.

        Each sum is evaluated in log space, at blocks of ``_BLOCK`` logs j,
        by ``_logs_at``, and x = 0 takes the constant terms.  With ``step``
        a d < D dividing D with every coefficient in F_{p**d}, f commutes
        with x -> x**(p**d), and only the least log of each of its orbits
        (``orbit_reps(d)``) is evaluated: slot i holds the
        ``orbit_lookup(d)`` code (orbit * r + rotation) of the value at
        representative i, slot n = ``orbit_reps(d).size`` that of f(0), and
        slot n + 1 is the caller's, all at the lookup's width.
        """
        Q, m = self.order, self.order - 1
        sums = self._sums(terms, den)
        has_sum = any(len(logs) > 1 for _, logs in sums)
        if step is None:
            reps = code = None
            n = m
            out = np.empty(Q + 1, dtype=np.int64)
        else:  # a sum's zech is made with the lookup, from the representatives
            reps, code = self.orbit_reps(step), self._quotient_tables(step, has_sum)[0]
            n = reps.size
            out = np.empty(n + 2, dtype=code.dtype)
        # block buffers, reused: the value logs on the quotient, where out
        # holds codes; the denominator's logs; a term's logs within a sum
        width = min(_BLOCK, n)
        v_buf = None if code is None else np.empty(width, dtype=np.int64)
        dv_buf = None if den is None else np.empty(width, dtype=np.int64)
        sum_buf = np.empty(width, dtype=np.int64) if has_sum else None
        ramp = bases = spare = None
        if reps is None:
            ramp = np.arange(width, dtype=np.int64)
            if n > _BLOCK:  # each term's progression base is made once per call
                bases, spare = {}, np.empty(width, dtype=np.uint64)
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            if reps is not None:
                term = self._at_logs(reps[lo:hi].astype(np.int64))
            elif bases is None:  # a full table of one block is its own base
                term = self._at_logs(ramp)
            else:
                term = self._progression(lo, ramp, bases, spare)
            v = out[lo:hi] if code is None else v_buf[: hi - lo]
            t = None if sum_buf is None else sum_buf[: hi - lo]
            zeros = self._logs_at(term, sums[0][1], v, t)
            poles = None
            if den is not None:
                dv = dv_buf[: hi - lo]
                poles = self._logs_at(term, sums[1][1], dv, t)
                v += m
                v -= dv  # in (0, 2m)
                _wrap(v, m, dv.view(np.uint64))
            if zeros is not None:
                v[zeros] = m
            if poles is not None:
                v[poles] = Q  # after the zeros: a pole wins
            if code is not None:
                out[lo:hi] = code[v]
        top = sums[0][0]
        if den is None:
            at_zero = top.index
        else:
            bottom = sums[1][0]
            at_zero = Q if bottom.is_zero() else (top / bottom).index
        out[n] = self.label(at_zero) if code is None else code[self.label(at_zero)]
        return out

    def index_order(self, table: np.ndarray) -> np.ndarray:
        """A label table of Q slots, or Q + 1 with infinity last, in index
        order: slot i holds the index of the value at element i.  One
        gather through exp extended by 0 and Q, and one scatter by exp."""
        exp = self._exp_log()[0]
        m = self.order - 1
        to_index = np.concatenate([exp, np.array([0, self.order], dtype=exp.dtype)])
        out = np.empty_like(table)
        out[exp] = to_index[table[:m]]
        out[0] = to_index[table[m]]
        out[m + 1 :] = to_index[table[m + 1 :]]
        return out

    def _term_logs(
        self, terms: Sequence[tuple[int, FieldElem | int]]
    ) -> tuple[FieldElem, list[tuple[int, int]]]:
        """The value at 0 of sum(c * x**e), and (e mod m, log c) per nonzero term."""
        m = self.order - 1
        const = self.ctx.zero()
        logs = []
        for e, c in terms:
            c = _lift(self.ctx, c)
            if c.is_zero():
                continue
            if e == 0:
                const = const + c
            logs.append((e % m, self.label(c.index)))
        return const, logs

    def orbit_step(self, *maps: tuple[Sequence, Sequence | None]) -> int:
        """The Frobenius step d on which maps, each given as (terms, den),
        are read together: D for the full tables.

        Every map commutes with x -> x**(p**d) for the least d dividing D
        with all their coefficients in F_{p**d}, the lcm of their own
        steps.  That d is taken when some map has a sum of two or more
        terms; single-term maps (x**n, c * x**n, x**a / x**b) take it only
        once r = D/d reaches ``_QUOTIENT_MIN_R``, and D otherwise."""
        sums = [s for h in maps for s in self._sums(*h)]
        d = self._frobenius_step([lc for _, logs in sums for _, lc in logs])
        single = all(len(logs) <= 1 for _, logs in sums)
        return d if not single or self.D // d >= _QUOTIENT_MIN_R else self.D

    def _sums(
        self,
        terms: Sequence[tuple[int, FieldElem | int]],
        den: Sequence[tuple[int, FieldElem | int]] | None,
    ) -> list[tuple[FieldElem, list[tuple[int, int]]]]:
        """``_term_logs`` of the numerator, and of ``den`` if given."""
        return [self._term_logs(ts) for ts in (terms, den) if ts is not None]

    def _frobenius_step(self, lcs: list[int]) -> int:
        """The least d dividing D with c**(p**d) = c for every coefficient,
        tested on their logs lc: (p**d - 1) * lc = 0 mod m.  d = D always
        passes."""
        m = self.order - 1
        return next(
            d
            for d in range(1, self.D + 1)
            if self.D % d == 0 and all(lc * (self.p**d - 1) % m == 0 for lc in lcs)
        )

    def orbit_reps(self, d: int) -> np.ndarray:
        """The least log of each orbit of j -> j * p**d mod m, ascending.

        With q = p**d and r = D/d, m = q**r - 1, so j * q mod m rotates the
        r base-q digits of j, high first, and the least logs are the
        necklaces of r digits.  The last one, all digits q - 1, is m itself
        and no log.  They come in ascending order from the FKM rule
        (Ruskey, Savage and Wang, *Generating necklaces*, 1992): a
        prenecklace a_1..a_n of period k extends by each digit
        a >= a_{n+1-k}, keeping period k when a = a_{n+1-k} and taking
        n + 1 otherwise; one of r digits is a necklace when k divides r.
        Prefixes are extended depth first in blocks of about ``_CHUNK``
        children, so the temporaries stay small.  Cached per d at the
        table width, about 4d/D bytes per point, and counted in
        ``table_bytes``.
        """
        reps = self._reps.get(d)
        if reps is None:
            q, r = self.p**d, self.D // d
            weight = q ** np.arange(r, dtype=np.int64)
            parts = []
            zero = np.zeros(1, dtype=np.int64)
            # prenecklaces of n digits: values, periods k and digits a_{n+1-k}
            stack = [(0, zero, zero + 1, zero)]
            while stack:
                n, v, k, low = stack.pop()
                width = q - low
                up = np.repeat(np.arange(v.size), width)
                a = np.arange(up.size) - np.repeat(np.cumsum(width) - width, width)
                a += low[up]
                v, k = v[up] * q + a, np.where(a == low[up], k[up], n + 1)
                n += 1
                if n == r:
                    parts.append(v[r % k == 0].astype(self.dtype))
                    continue
                low = v // weight[k - 1] % q
                ends = np.cumsum(q - low)
                cuts = np.searchsorted(ends, np.arange(_CHUNK, ends[-1], _CHUNK), side="right")
                bounds = [0, *cuts.tolist(), v.size]
                for lo, hi in reversed(list(zip(bounds, bounds[1:]))):
                    if hi > lo:
                        stack.append((n, v[lo:hi], k[lo:hi], low[lo:hi]))
            reps = self._reps[d] = np.concatenate(parts)[:-1]
            self.table_bytes += reps.nbytes
        return reps

    def orbit_lookup(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """Every label's Frobenius orbit and rotation, and the orbit sizes.

        With s = p**d, r = D/d and n = ``orbit_reps(d).size``, orbit i < n
        is that of reps[i], and orbits n and n + 1 are the fixed points 0
        (label m) and infinity (label Q).  ``code`` has Q + 1 slots, one
        per label x: ``code[x] = i*r + k`` when x = reps[i] * s**k mod m,
        with k the least such rotation, so k < ``size[i]``, the orbit's
        length, which divides r.  Every representative is rotated r times
        in place; an orbit is shorter than r when s**(r/l) fixes it for a
        prime l dividing r, and only those few are rotated again, from
        k = r - 1 down, so that their least k is written last.  Cached per
        d at the narrowest width that holds (n + 2) * r, about 4 bytes per
        point plus 1/r for the lengths, and counted in ``table_bytes``.
        """
        return self._quotient_tables(d, False)

    def _quotient_tables(self, d: int, zech: bool) -> tuple[np.ndarray, np.ndarray]:
        """``orbit_lookup(d)``, and with ``zech`` the Zech table too, made
        in one pass over the r rotations of the representatives where both
        are missing.

        With no log table at hand, zech is filled from its values at the
        representatives (``_zech_at``): (1 + g**j)**s = 1 + g**(s*j), so
        Z(j * s**k) = s**k * Z(j) mod m, the rotation of j taken k times
        (K. Huber, IEEE Trans. Inf. Theory 36, 1990).  Z = m, where
        1 + g**j = 0, falls on one Frobenius-fixed log, 0 for p = 2 and m/2
        else, which is set last.  The throwaway exp table and the byte mask
        of ``_zech_at`` are freed before zech is allocated.  With a log
        table, zech is gathered from it (``_zech_table``) instead."""
        got = self._lookups.get(d)
        if zech and self._zech is None and self._tables is not None:
            self._zech_table()
        rotate_zech = zech and self._zech is None
        if got is not None and not rotate_zech:
            return got
        reps = self.orbit_reps(d)
        Q, m, n = self.order, self.order - 1, reps.size
        s, r = self.p**d % m, self.D // d
        if rotate_zech:
            z_reps = self._zech_at(reps)
            table = np.empty(m, dtype=self.dtype)
        if got is None:
            code = np.empty(Q + 1, dtype=_index_dtype((n + 2) * r))
            code[m], code[Q] = n * r, (n + 1) * r
            size = np.full(n + 2, r, dtype=np.uint8)
            size[n:] = 1
        for lo in range(0, n, _BLOCK):
            j = reps[lo : lo + _BLOCK].astype(np.int64)
            x = j.copy()
            z = z_reps[lo : lo + _BLOCK] if rotate_zech else None  # rotated in place
            at = None
            if got is None:
                at = np.arange(lo * r, (lo + j.size) * r, r, dtype=code.dtype)
            for k in range(r):
                if k:
                    x *= s
                    x %= m
                    if z is not None:
                        z *= s
                        z %= m
                if at is not None:
                    code[x] = at + k
                if z is not None:
                    table[x] = z
            if at is None:
                continue
            short = np.zeros(j.size, dtype=bool)
            for ell in _prime_factors(r):
                short |= j * pow(s, r // ell, m) % m == j
            j, at = j[short], at[short]
            length = np.full(j.size, r, dtype=np.uint8)
            for e in range(r - 1, 0, -1):
                if r % e == 0:  # the least e with j * s**e = j is written last
                    length[j * pow(s, e, m) % m == j] = e
                code[j * pow(s, e, m) % m] = at + e
            code[j] = at
            size[lo : lo + short.size][short] = length
        if rotate_zech:
            table[0 if self.p == 2 else m // 2] = m
            self._zech = table
            self.table_bytes += table.nbytes
        if got is None:
            got = self._lookups[d] = (code, size)
            self.table_bytes += code.nbytes + size.nbytes
        return got

    def _progression(
        self, lo: int, ramp: np.ndarray, bases: dict[tuple[int, int], np.ndarray], spare: np.ndarray
    ):
        """The term-log writer of the full-table block of logs j = lo + i,
        i < ramp.size, ramp[i] = i: term (s, lc) has log (s*j + lc) mod m,
        its progression base[i] = (s*i + lc) mod m shifted by s*lo mod m.
        Each base is made once per term and call, in ``bases``; every block
        after the first adds its offset and wraps, with no division."""
        m = self.order - 1

        def term(s: int, lc: int, into: np.ndarray) -> None:
            base = bases.get((s, lc))
            if base is None:
                base = bases[s, lc] = ramp * s
                base += lc
                base %= m
            base = base[: into.size]
            off = s * lo % m
            if off:
                np.add(base, off, out=into)
                _wrap(into, m, spare)
            else:
                into[:] = base

        return term

    def _at_logs(self, j: np.ndarray):
        """The term-log writer at the logs j (int64): (s*j + lc) mod m, one
        % per term."""
        m = self.order - 1

        def term(s: int, lc: int, into: np.ndarray) -> None:
            np.multiply(j, s, out=into)
            into += lc
            into %= m

        return term

    def _logs_at(
        self, term, logs: list[tuple[int, int]], acc: np.ndarray, t: np.ndarray | None
    ) -> np.ndarray | None:
        """Log of sum(c * x**e) over one block of logs j, written to acc
        (int64), and a mask of the positions where the sum is 0, whose logs
        are left unset; None when it is 0 nowhere.

        ``term(e mod m, log c, into)`` writes the log of c * x**e at each j.
        Each further term is written to t, an int64 buffer of acc's size,
        and added by one Zech gather.  The running sum stays in [0, 2m) and
        is reduced by ``_wrap``, with t as its scratch.
        """
        if not logs:
            acc[:] = 0
            return np.ones(acc.size, dtype=bool)
        m = self.order - 1
        (s0, lc0), rest = logs[0], logs[1:]
        term(s0, lc0, acc)
        if not rest:  # one term is never 0 at a unit, and needs no Zech gather
            return None
        zech = self._zech_table()
        zero = None  # where the sum is 0
        for s, lc in rest:
            term(s, lc, t)
            # where the sum was 0, the new sum is the term itself
            was = t[zero] if zero is not None and zero.any() else None
            # log(a + b) = log a + Z(log b - log a), where Z = m for a + b = 0.
            # zech has m slots, so a difference in (-m, 0) reads it mod m
            t -= acc
            z = zech[t]
            acc += z
            _wrap(acc, m, t.view(np.uint64))
            now_zero = z == m
            if was is not None:
                acc[zero] = was
                now_zero &= ~zero
            zero = now_zero
        return zero

    def power_table(self, n: int) -> np.ndarray:
        """Index table of x**n for every x, with 0**0 = 1.  n >= 0."""
        return self.index_order(self.eval_sparse([(n, 1)])[:-1])


# -- permutation utilities ----------------------------------------------------

# levels below this many nodes go straight to _doubling (measured crossover)
_RULING_MIN = 1 << 14
# least r = D/d at which a single-term map is read on the orbit quotient.  The
# quotient pays an orbit_lookup build (r scatters of its representatives)
# that a whole-field monomial table, one add and one wrap per point, does
# not.  One cold single-term scan record, whole field -> quotient (median of
# 5, 2 vCPUs; two runs, progression bases and the intp period walk):
#   r = 3: F_{67^3} x^91 4.5 -> 8.8-9.1 ms, F_{127^3} x^67 86-87 -> 84-94 ms
#   r = 4: F_{31^4} x^3 6.8-7.0 -> 18-21 ms, F_{37^4} x^7 69-82 -> 62-64 ms
#   r = 5: F_{13^5} x^7 14 -> 11 ms, F_{17^5} x^3 52-53 -> 38 ms
#   r = 9: F_{5^9} x^69 81-82 -> 39-42 ms
# The whole-field tables got cheaper: the bijective r = 3 scan is now a tie,
# the bijective r = 4 scan still favours the quotient, and the others do not
_QUOTIENT_MIN_R = 5
# a node is a splitter when the top _SPLIT_BITS bits of its hash are 0
_SPLIT_BITS = 4
# Fibonacci hashing: 2**64 / golden ratio, rounded to odd
_GOLDEN64 = 0x9E3779B97F4A7C15


def permutation_period(perm: np.ndarray, rot: np.ndarray | None = None, r: int = 1) -> int:
    """Multiplicative order of a permutation: the lcm of its cycle lengths.

    With ``rot``, perm is a length-keeping bijection of Frobenius orbits,
    each of a length S dividing r < 128, and the result is the order of
    the permutation of points it induces.  f maps the representative of
    orbit i to that of orbit perm[i] times s**(rot[i] * S/r): ``rot``
    holds each rotation scaled from Z/S to Z/r, so that orbits of every
    length share one modulus, and is read as int8.  A cycle of k orbits
    with summed rotation R brings each of its points back to its own orbit
    rotated by R, whose order in Z/r is r / gcd(R, r), so its points have
    period k * r / gcd(R, r).  Without ``rot`` every R is 0 and r = 1, so
    the period is the lcm of the cycle lengths.

    perm is copied once, at ``_index_dtype(n)``, and ``_cycle_weights``
    walks that copy in place, from positions kept as ``np.intp``.  Each
    level marks about one node in 16 as a splitter, by a multiplicative
    hash of the index that ignores the permutation, and walks from every
    splitter at once to the next one, over the walks still running.  Each
    step reads one array: a node's successor is overwritten by a mark as a
    walk passes it, so a step is one gather and one scatter.  Every node
    lies on at most one walk, so a level costs about n.  Splitter to next splitter, with the nodes
    passed as its length and their rotations summed mod r, is a
    permutation of the splitters whose cycle sums are the original ones;
    it is contracted again the same way.  Nodes that no walk reaches lie
    on cycles without a splitter, short ones with high probability, and go
    to ``_doubling``, as does every level below ``_RULING_MIN`` nodes, the
    size under which doubling was faster on random permutations.  On a
    random permutation of 2**20 nodes the transient memory is about 9.5
    bytes per node, with or without int8 rotations: the int32 copy, the
    index hash and the splitters.

    A map that is not a permutation raises ``ValidationError``, found
    without a pass over the whole input: a walk that steps onto a node a
    walk has passed, two splitters with the same next splitter, an
    unreached node whose successor was reached, or two nodes with the same
    successor where ``_doubling`` counts successors.
    """
    n = perm.shape[0]
    if n == 0:
        return 1
    if rot is not None:
        if not 1 <= r < 128:
            raise ValidationError("permutation_period: r must lie in [1, 127]")
        rot = rot.astype(np.int8, copy=False)
    return _lcm(np.concatenate(_cycle_weights(perm.astype(_index_dtype(n)), None, rot, r)))


def _lcm(values: np.ndarray) -> int:
    """lcm of positive int64 values, over the distinct ones, found by sort
    and diff: np.unique would import numpy.ma."""
    values = np.sort(values)
    return math.lcm(*values[np.flatnonzero(np.diff(values, prepend=0))].tolist())


def _cycle_weights(
    succ: np.ndarray, size: np.ndarray | None, rot: np.ndarray | None, r: int
) -> list[np.ndarray]:
    """The period of each cycle of succ, whose nodes have int64 lengths
    ``size`` (None: 1 each) and int8 rotations ``rot`` in Z/r (None: 0
    each): the summed length times r / gcd(summed rotation, r).

    succ is the caller's own copy, and is overwritten: a splitter holds
    -(rank + 1), and a node a walk has passed holds -(k + 1), below every
    rank."""
    n = succ.shape[0]
    if n < _RULING_MIN:
        return [_doubling(succ, size, rot, r)]
    dt = succ.dtype
    bits = 8 * dt.itemsize
    h = np.arange(n, dtype=f"u{dt.itemsize}")
    h *= h.dtype.type(_GOLDEN64 >> (64 - bits))
    spl = np.flatnonzero(h < (1 << (bits - _SPLIT_BITS)))
    del h
    k = spl.size  # >= 1: index 0 hashes to 0
    passed = -1 - k
    walker = np.arange(k, dtype=dt)
    # positions stay intp: take and put index with them as they are, where
    # an int32 index is first widened to intp on every gather and scatter
    pos = succ.take(spl).astype(np.intp)
    succ.put(spl, -1 - walker)
    nxt = np.empty(k, dtype=dt)  # each splitter's next splitter
    # length and rotation from a splitter up to its next
    gap = np.empty(k, dtype=np.int64)
    gap_rot = None if rot is None else np.empty(k, dtype=np.int8)
    acc = None if size is None else size[spl]  # length walked, if not the step count
    acc_rot = None if rot is None else rot[spl].astype(np.int64)
    del spl
    step = 1
    while walker.size:
        to = succ.take(pos)
        stop = to < 0
        ends = np.flatnonzero(stop)
        if ends.size:
            rank = to[ends]
            if rank.min() == passed:  # on a permutation the walks share no node
                raise _not_a_permutation()
            done = walker[ends]
            nxt[done] = -1 - rank
            gap[done] = step if acc is None else acc[ends]
            if rot is not None:
                gap_rot[done] = acc_rot[ends] % r
            keep = ~stop
            walker, pos, to = walker[keep], pos[keep], to[keep]
            if acc is not None:
                acc = acc[keep]
            if rot is not None:
                acc_rot = acc_rot[keep]
        succ.put(pos, passed)
        if acc is not None:
            acc += size.take(pos)
        if rot is not None:
            acc_rot += rot.take(pos)
        pos[...] = to  # in place: the next positions, at intp
        step += 1
    hits = np.zeros(k, dtype=bool)
    hits[nxt] = True
    if not hits.all():  # two walks end at one splitter
        raise _not_a_permutation()
    out = _cycle_weights(nxt, gap, gap_rot, r)
    left = np.flatnonzero(succ >= 0)
    if left.size:
        to = succ[left]
        if (succ[to] < 0).any():  # on a permutation unreached cycles stay unreached
            raise _not_a_permutation()
        succ[left] = np.arange(left.size, dtype=dt)  # renumber the unreached nodes
        out.append(
            _doubling(
                succ[to],
                None if size is None else size[left],
                None if rot is None else rot[left],
                r,
            )
        )
    return out


def _not_a_permutation() -> ValidationError:
    return ValidationError("permutation_period: input is not a permutation")


def _doubling(
    succ: np.ndarray, size: np.ndarray | None, rot: np.ndarray | None, r: int
) -> np.ndarray:
    """``_cycle_weights`` by pointer doubling, stopped once labels are stable.

    After i rounds a node's label is the least index among it and its next
    2**i - 1 successors.  On a cycle longer than 2**i the node 2**i steps
    before the cycle's least index then changes label in round i + 1, so
    one round without change means every cycle is covered and every label
    is its cycle's least index.  A node with two predecessors raises
    ``ValidationError``, as the labels would not show it.  The sums are
    float64 ``bincount``s, exact while each is below 2**53.
    """
    n = succ.shape[0]
    if np.bincount(succ, minlength=n).max(initial=0) > 1:
        raise _not_a_permutation()
    ident = np.arange(n, dtype=succ.dtype)
    labels, hop = ident, succ
    while True:
        nxt = np.minimum(labels, labels[hop])
        if np.array_equal(nxt, labels):
            break
        labels, hop = nxt, hop[hop]
    root = labels == ident
    length = np.bincount(labels, weights=size, minlength=n)[root].astype(np.int64)
    if rot is None:
        return length
    turn = np.bincount(labels, weights=rot, minlength=n)[root].astype(np.int64)
    return length * (r // np.gcd(turn, r))


# -- instance cache -----------------------------------------------------------

# Bytes of tables the cached fields may hold together, each array counted
# from its build on (``table_bytes``).  Read on the quotient, a field holds
# zech and one orbit_lookup per step, about 4 bytes per point each, with no
# exp or log.  The budget holds the towers the acceptance checks climb in
# turn under a 600000-point cap: F_3 to t = 12, F_5 to t = 8 and F_7 to
# t = 6, each read with a sum, take 12.2 MB together.  At 16 MB the checks
# build 89 fields, 82 of them distinct (the F_5 tower to 5**6 and F_11 a
# second time), and the tower-sweep benchmark builds each field of a round
# once.  The checks build each field once from 22 MB on, but from 18 MB on
# the big-field benchmark keeps the last large field's tables through the
# next one's build, and peaks 5 to 8 MB higher.
_CACHE_BYTES = 16_000_000
_CACHE: dict[tuple, BatchField] = {}  # in use order, most recent last
# generators per ctx.key; one element each, kept when _CACHE drops a field
_GENERATORS: dict[tuple, FieldElem] = {}


def get_batch(ctx: FieldCtx) -> BatchField:
    """Shared BatchField per field, kept while its tables fit _CACHE_BYTES.

    A hit makes the field the most recent; a miss adds a new BatchField.
    Then the least recently used others are dropped until the cache's
    ``table_bytes`` fit the budget, the field asked for counted as at least
    one table of its points at index width: whatever a caller reads of it,
    a lookup, zech or a full table, is at least that large, so a large
    field clears the cache before its build rather than after.  The field
    asked for stays even when it alone does not fit, so a second scan over
    the same large field reuses it.  A table built between two calls
    counts from the second.
    """
    key = ctx.key
    bf = _CACHE.pop(key, None)
    if bf is None:
        bf = BatchField(ctx)
    _CACHE[key] = bf
    total = sum(f.table_bytes for f in _CACHE.values()) - bf.table_bytes
    total += max(bf.table_bytes, np.dtype(bf.dtype).itemsize * bf.order)
    for old in list(_CACHE)[:-1]:
        if total <= _CACHE_BYTES:
            break
        total -= _CACHE.pop(old).table_bytes
    return bf
