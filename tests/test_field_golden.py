"""Every field keeps its modulus and its generator.

``field_golden.json`` holds, per field, the tower it is built by (p, then
the relative degree of each step up), its ``FieldCtx.key`` (the modulus
indices of every step) and the index of ``BatchField.generator()``, as
the scalar Rabin test and the scalar generator loop found them.  The 149
fields are every field the acceptance suite and the benchmark workloads
build, the towers over F_2, F_3, F_4, F_5, F_7, F_9, F_25, F_49, F_61,
F_67, F_127 and F_131 up to 2^22 points, and 17 fields `make_field`
builds directly.  Tables, value sets and every CLI output depend on both.
"""

import json
from pathlib import Path

import pytest

from excov import _batch
from excov._batch import BatchField
from excov.errors import field_cap_scope
from excov.gf import _prime_factors, _prime_list, make_extension, make_field

GOLDEN = json.loads((Path(__file__).parent / "field_golden.json").read_text())


def as_tuple(x):
    return tuple(as_tuple(y) for y in x) if isinstance(x, list) else x


@pytest.mark.parametrize("row", GOLDEN, ids=lambda r: "/".join(map(str, r["chain"])))
def test_field_key_and_generator_are_unchanged(row):
    p, *degrees = row["chain"]
    with field_cap_scope(2**22):
        ctx = make_field(p, 1)
        for t in degrees:
            ctx = make_extension(ctx, t)
    assert ctx.key == as_tuple(row["key"])
    assert BatchField(ctx).generator().index == row["generator"]


def least_generator(ctx):
    """Oracle: the least index of multiplicative order Q - 1, by scalar
    powers; above the prime field the search starts at p, as prime-field
    elements have orders dividing p - 1."""
    m, one = ctx.order - 1, ctx.one()
    exps = [m // r for r in _prime_factors(m)]
    if ctx.k == 1:
        return next(g for g in range(1, ctx.p) if all(pow(g, e, ctx.p) != 1 for e in exps))
    return next(
        g for g in range(ctx.p, ctx.order) if all(ctx.from_index(g) ** e != one for e in exps)
    )


def test_generator_is_the_least_of_full_order_up_to_2_16(monkeypatch):
    # every field F_{p^k} with p^k <= 2**16 (6,635 of them, 93 with k >= 2),
    # searched afresh: the cache of generators found before is emptied
    monkeypatch.setattr(_batch, "_GENERATORS", {})
    count = 0
    for p in _prime_list(2**16):
        k = 1
        while p**k <= 2**16:
            ctx = make_field(p, k)
            assert BatchField(ctx).generator().index == least_generator(ctx), (p, k)
            count += 1
            k += 1
    assert count == 6635
