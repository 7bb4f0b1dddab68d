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

from excov._batch import BatchField
from excov.errors import field_cap_scope
from excov.gf import make_extension, make_field

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
