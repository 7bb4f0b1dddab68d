"""Command line front end: one executable, one JSON document per run.

Every subcommand prints a single JSON object on stdout (or flattened TSV
rows with --tsv) and exits 0.  Failures map to fixed codes: 2 for bad
input, 3 for a size cap, 4 for a broken internal invariant.  Identical
invocations produce byte-identical output; there is no hidden state
beyond the EXCOV_CAP environment variable.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from . import excscan, frobset, grouptheory, lattes, nielsen, pencil, projmap
from ._batch import get_batch
from .errors import CapExceededError, ExcovError, ValidationError, check_field_cap
from .gf import FieldCtx, _is_prime, make_field, parse_field_spec


# -- spec parsing ---------------------------------------------------------------


def parse_curve_spec(spec: str) -> lattes.EllipticCurveQ:
    """"ogg" or a bracketed list "[a1,a2,a3,a4,a6]" of integers."""
    s = spec.strip()
    if s == "ogg":
        return lattes.ogg_curve()
    if s.startswith("[") and s.endswith("]"):
        return lattes.EllipticCurveQ(*_int_list(s[1:-1], f"curve spec {spec!r}", 5))
    raise ValidationError(f"curve spec {spec!r}: expected \"ogg\" or \"[a1,a2,a3,a4,a6]\"")


def _int_list(text: str, what: str, count: Optional[int] = None) -> list[int]:
    """The comma-separated integers of text, exactly count of them when
    count is given; what names the flag or spec in an error."""
    parts = text.split(",")
    if count is not None and len(parts) != count:
        raise ValidationError(f"{what}: need {count} comma-separated integers, got {len(parts)}")
    out = []
    for part in parts:
        try:
            out.append(int(part))
        except ValueError:
            raise ValidationError(f"{what}: bad integer {part!r}") from None
    return out


def _field_doc(ctx: FieldCtx) -> dict:
    return {"p": ctx.p, "k": ctx.k, "order": ctx.order}


# -- subcommand handlers ----------------------------------------------------------


def cmd_field(ns) -> dict:
    ctx = parse_field_spec(ns.field)
    return {
        "field": _field_doc(ctx),
        "generator_index": get_batch(ctx).generator().index,
        "generator_order": ctx.order - 1,
    }


def cmd_map(ns) -> dict:
    ctx = parse_field_spec(ns.field)
    m = projmap.parse_map_spec(ctx, ns.map)
    return {
        "field": _field_doc(ctx),
        "spec": ns.map,
        "degree": m.degree,
        "polynomial": m.is_polynomial,
        "num_indices": [c.index for c in m.num.coeffs],
        "den_indices": [c.index for c in m.den.coeffs],
    }


def cmd_scan(ns) -> dict:
    ctx = parse_field_spec(ns.field)
    m = projmap.parse_map_spec(ctx, ns.map)
    report = excscan.exceptionality_scan(m, ns.tmax, d_max=ns.dmax, desc=ns.map)
    doc = report.to_json_dict()
    doc["field"] = _field_doc(ctx)
    return doc


def cmd_frobset(ns) -> dict:
    residues = _int_list(ns.residues, "--residues")
    fs = frobset.from_residues(ns.mod, residues)
    return fs.to_json_dict()


def cmd_dp(ns) -> dict:
    ctx = parse_field_spec(ns.field)
    f = projmap.parse_map_spec(ctx, ns.f)
    g = projmap.parse_map_spec(ctx, ns.g)
    if ns.tmax < 1:
        raise ValidationError("t_max must be >= 1")
    results = []
    for t in range(1, ns.tmax + 1):
        try:
            same_range, same_multiset = excscan._dp_flags(f, g, t)
        except CapExceededError:
            if t == 1:
                raise
            break
        results.append(
            {"t": t, "range_equal": same_range, "multiset_equal": same_multiset}
        )
    return {
        "field": _field_doc(ctx),
        "f": ns.f,
        "g": ns.g,
        "results": results,
    }


def cmd_group(ns) -> dict:
    kind, n, q = _parse_model_spec(ns.model)
    if kind == "cyclic":
        M = grouptheory.cyclic_cover_model(n, q)
    else:
        M = grouptheory.dickson_cover_model(n, q)
    fs = grouptheory.coset_exceptionality(M, ns.mode)
    return {
        "model": ns.model,
        "degree": M.group.degree,
        "group_order": M.group.order,
        "coset_period": M.d,
        "mode": ns.mode,
        "set": fs.to_json_dict(),
        "analysis": grouptheory.analyze_rep(M.group),
    }


def _parse_model_spec(spec: str) -> tuple[str, int, int]:
    head, sep, body = spec.partition(":")
    if not sep or head not in ("cyclic", "dickson"):
        raise ValidationError(
            f"model spec {spec!r}: expected cyclic:n,q or dickson:n,q"
        )
    n, q = _int_list(body, f"model spec {spec!r} (n,q)", 2)
    return head, n, q


def cmd_nielsen(ns) -> dict:
    chosen = [x for x in (ns.dickson, ns.cyclic, ns.modular) if x is not None]
    if len(chosen) != 1:
        raise ValidationError("pick exactly one of --dickson N, --cyclic N, --modular p,k")
    if ns.modular is not None:
        mc = nielsen.modular_nielsen(*_int_list(ns.modular, f"--modular {ns.modular!r} (p,k)", 2))
        return {
            "family": "modular",
            "p": mc.p,
            "k": mc.k,
            "inner_classes": mc.inner_class_count,
            "inner_braid_orbits": mc.inner_braid_orbit_count,
            "absolute_classes": mc.abs_class_count,
        }
    if ns.dickson is not None:
        t = nielsen.dickson_branch_triple(ns.dickson)
        family = "dickson"
    else:
        t = nielsen.cyclic_branch_pair(ns.cyclic)
        family = "cyclic"
    orbit = nielsen.braid_orbit(t)
    return {
        "family": family,
        "n": t.degree,
        "entries": [g.cycle_string() for g in t.perms],
        "genus": nielsen.rh_genus(t),
        "inner_orbit_size": len(orbit),
    }


def cmd_oit(ns) -> dict:
    # the isogeny map has degree p^2; refuse it before the primality test
    check_field_cap(ns.p * ns.p, "map degree")
    if ns.p == 2 or not _is_prime(ns.p):
        raise ValidationError(f"--p must be an odd prime, got {ns.p}")
    e = parse_curve_spec(ns.curve)
    report = lattes.oit_scan(e, ns.p, ns.lmax, ns.tmax)
    return report.to_json_dict()


def cmd_pencil(ns) -> dict:
    ctx = make_field(ns.p, 1)
    m = projmap.parse_map_spec(ctx, ns.f)
    if not m.is_polynomial:
        raise ValidationError("pencil expects a polynomial map")
    report = pencil.pencil_scan(m.as_poly())
    return report.to_json_dict()


def cmd_selftest(ns) -> dict:
    from . import acceptance

    results = acceptance.run_all(only=ns.only)
    return {
        "ok": all(r.ok for r in results),
        "criteria": [
            {"name": r.name, "ok": r.ok, "detail": r.detail} for r in results
        ],
    }


# -- output -----------------------------------------------------------------------


def emit_json(doc: dict, stream) -> None:
    stream.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def flatten(doc, prefix: str = "") -> list[tuple[str, str]]:
    """Dotted-path rows for TSV output; scalars JSON-encoded."""
    rows = []
    if isinstance(doc, dict):
        for key in sorted(doc):
            path = f"{prefix}.{key}" if prefix else str(key)
            rows.extend(flatten(doc[key], path))
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            rows.extend(flatten(item, f"{prefix}[{i}]"))
    else:
        rows.append((prefix, json.dumps(doc, sort_keys=True)))
    return rows


def emit_tsv(doc: dict, stream) -> None:
    for path, value in flatten(doc):
        stream.write(f"{path}\t{value}\n")


# -- argument wiring ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="excov",
        description="Exceptional covers: permutation scans and their group models.",
    )
    sub = top.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        fmt = sp.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true", help="JSON output (default)")
        fmt.add_argument("--tsv", action="store_true", help="flattened TSV output")

    sp = sub.add_parser("field", help="describe a finite field")
    sp.add_argument("--field", required=True, help='"p^k" or a prime power like 9')
    common(sp)
    sp.set_defaults(handler=cmd_field)

    sp = sub.add_parser("map", help="parse and describe a map")
    sp.add_argument("--field", required=True)
    sp.add_argument("--map", required=True, help='e.g. dickson:5,1 or poly:0,0,1')
    common(sp)
    sp.set_defaults(handler=cmd_map)

    sp = sub.add_parser("scan", help="bijectivity over extension fields")
    sp.add_argument("--field", required=True)
    sp.add_argument("--map", required=True)
    sp.add_argument("--tmax", type=int, default=8)
    sp.add_argument("--dmax", type=int, default=excscan.DEFAULT_FIT_DEPTH)
    common(sp)
    sp.set_defaults(handler=cmd_scan)

    sp = sub.add_parser("frobset", help="unit-closed residue set")
    sp.add_argument("--mod", type=int, required=True)
    sp.add_argument("--residues", required=True, help="comma separated")
    common(sp)
    sp.set_defaults(handler=cmd_frobset)

    sp = sub.add_parser("dp", help="value-set comparison of two maps")
    sp.add_argument("--field", required=True)
    sp.add_argument("--f", required=True)
    sp.add_argument("--g", required=True)
    sp.add_argument("--tmax", type=int, default=4)
    common(sp)
    sp.set_defaults(handler=cmd_dp)

    sp = sub.add_parser("group", help="coset fixed-point prediction for a model")
    sp.add_argument("--model", required=True, help="cyclic:n,q or dickson:n,q")
    sp.add_argument(
        "--mode", choices=("exceptional", "pr-exceptional"), default="exceptional"
    )
    common(sp)
    sp.set_defaults(handler=cmd_group)

    sp = sub.add_parser("nielsen", help="branch cycle tuples and class counts")
    sp.add_argument("--dickson", type=int, help="odd degree for the dihedral triple")
    sp.add_argument("--cyclic", type=int, help="degree for the two-cycle pair")
    sp.add_argument("--modular", help="p,k for point-reflection class counts")
    common(sp)
    sp.set_defaults(handler=cmd_nielsen)

    sp = sub.add_parser("oit", help="isogeny-map bijectivity scan over good primes")
    sp.add_argument("--curve", required=True, help='"ogg" or "[a1,a2,a3,a4,a6]"')
    sp.add_argument("--p", type=int, required=True, help="odd prime isogeny degree")
    sp.add_argument("--lmax", type=int, required=True)
    sp.add_argument("--tmax", type=int, default=1)
    common(sp)
    sp.set_defaults(handler=cmd_oit)

    sp = sub.add_parser("pencil", help="square character sums along f(x) - lambda")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--f", required=True, help="polynomial map spec")
    common(sp)
    sp.set_defaults(handler=cmd_pencil)

    sp = sub.add_parser("selftest", help="run the acceptance suite")
    sp.add_argument("--only", default=None, help="substring filter on criterion names")
    common(sp)
    sp.set_defaults(handler=cmd_selftest)

    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: ``parse_args`` leaves it as it was,
    and it reads sys.stdout and sys.stderr only as it writes."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    ns = _parser().parse_args(argv)
    try:
        doc = ns.handler(ns)
    except ExcovError as exc:
        emit_json(
            {"error": {"type": type(exc).__name__, "message": str(exc)}}, sys.stderr
        )
        return exc.exit_code
    if ns.tsv:
        emit_tsv(doc, sys.stdout)
    else:
        emit_json(doc, sys.stdout)
    if ns.subcommand == "selftest" and not doc["ok"]:
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
