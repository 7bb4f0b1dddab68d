"""The benchmark workloads: seeded inputs, the operations, their checks.

``inputs(workload, seed)`` is plain Python: it draws the workload's input
specs from the seed and imports nothing from excov, so the parent process
knows how many operations a round attempts.  ``operations()`` turns the
specs into calls into excov and runs only inside a worker process, after
the worker has set the environment and imported the program.

The seed changes values (exponents, parameters, coefficients, residues)
but never the shape of the work: degrees, field towers and the number of
operations are fixed per workload, so rounds cost the same under every
seed and the run-to-run spread stays small.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

ROOT = Path(__file__).resolve().parent.parent

# EXCOV_CAP per workload.  tower-sweep matches the acceptance suite's scan
# budget.  big-field stops at 2^22 rather than the default 2^24: one round
# with towers up to 2^24 takes about a minute and over 1 GB.
CAPS = {"tower-sweep": 600_000, "big-field": 2**22, "structural": 600_000}

WORKLOADS = tuple(CAPS)

# How strongly each workload's times follow the speed loads of speed.py:
# run.py divides its times by the speed factor raised to this power.
# Fitted on rounds measured while the machine's speed drifted (README.md,
# "Drift"): tower-sweep and structural times follow the loads in full;
# big-field's 10^6-point tables are bound by memory traffic, which
# follows the loads about half as much, and dividing by the full factor
# made its rounds less steady than raw times.
SPEED_EXPONENT = {"tower-sweep": 1.0, "big-field": 0.5, "structural": 1.0}


@dataclass
class Op:
    """One closed-loop operation: ``call`` is timed, ``check`` is not."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], list]
    known_fault: bool = False


def inputs(workload: str, seed: int) -> list[tuple]:
    rng = random.Random(f"{workload}/{seed}")
    return _INPUTS[workload](rng)


def operations(workload: str, specs: list[tuple]) -> list[Op]:
    return [_OPS[workload](spec) for spec in specs]


# -- tower-sweep ------------------------------------------------------------------
#
# Every scan climbs t = 1, 2, ... to the cap, so each operation builds a new
# field, generator and exp/log table per t and the three-slot table cache
# turns over constantly.  Fields: F_3, F_5, F_7 and F_9.

TOWER_FIELDS = ((3, 1), (5, 1), (7, 1), (3, 2))
TOWER_T_MAX = 12
TOWER_POWER_REF = {3: 5, 5: 3, 7: 5, 9: 5}


def _power_exponent(rng: random.Random, q: int, depth: int, ref: int) -> int:
    """An exponent below 100 with x^n bijective at the same t as x^ref.

    A scan computes a permutation period at every bijective t, so keeping
    that pattern fixed keeps the cost of a power-map scan independent of
    the seed.
    """

    def pattern(n):
        return [checks.power_bijective(n, q**t) for t in range(1, depth + 1)]

    return rng.choice([n for n in range(2, 100) if pattern(n) == pattern(ref)])


def _tower_inputs(rng: random.Random) -> list[tuple]:
    specs = []
    for p, k in TOWER_FIELDS:
        q = p**k
        depth = checks.tower_depth(q, CAPS["tower-sweep"], TOWER_T_MAX)
        specs.append(("power", p, k, _power_exponent(rng, q, depth, TOWER_POWER_REF[q])))
        # Parameters come from the prime field: a coefficient with more
        # nonzero prime digits costs the digit engine one more table pass.
        specs.append(("dickson", p, k, 7, rng.randrange(1, p)))
        # an odd degree prime to p, twisted by a seeded non-square; over F_9
        # the non-squares lie outside F_3 and differ in digit count, so the
        # first one is used
        specs.append(("redei", p, k, 7 if p == 5 else 5, rng.randrange((q - 1) // 2) if k == 1 else 0))
        specs.append(("compose", p, k, 3, 5, rng.randrange(1, p)))
        specs.append(("dp", p, k))
    return specs


def _tower_op(spec: tuple) -> Op:
    import excov

    kind, p, k = spec[:3]
    q = p**k
    depth = checks.tower_depth(q, CAPS["tower-sweep"], TOWER_T_MAX)
    name = f"{kind}{list(spec[3:])}/F_{q}"

    if kind == "dp":

        def call():
            ctx = excov.make_field(p, k)
            f = excov.RationalMap(excov.Poly(ctx, [0] * 8 + [1]))
            g = excov.RationalMap(excov.Poly(ctx, [0] * 8 + [16]))
            out = []
            for t in range(1, TOWER_T_MAX + 1):
                try:
                    same = excov.dp_range_test(f, g, t), excov.idp_multiset_test(f, g, t)
                except excov.CapExceededError:
                    break
                out.append(same)
            return out

        def check(out):
            # 16 = (1 + i)^8, so x^8 and 16 x^8 agree in range and multiset
            # over every odd field
            if len(out) != depth:
                return [f"{name}: reached t={len(out)}, expected {depth}"]
            bad = [t for t, pair in enumerate(out, 1) if pair != (True, True)]
            return [f"{name}: range or multiset differs at t={bad}"] if bad else []

        return Op(name, call, check)

    if kind == "power":
        n = spec[3]

        def rule(t):
            return checks.power_bijective(n, q**t)

        def build(ctx):
            return excov.cyclic(ctx, n)

    elif kind == "dickson":
        n, a = spec[3:]

        def rule(t):
            return checks.dickson_bijective(n, q**t)

        def build(ctx):
            return excov.dickson(ctx, n, ctx.from_index(a))

    elif kind == "redei":
        n, rank = spec[3:]

        def rule(t):
            return checks.redei_bijective(n, q, t)

        def build(ctx):
            one = ctx.one()
            nonsquares = [
                i for i in range(1, q) if ctx.from_index(i) ** ((q - 1) // 2) != one
            ]
            return excov.redei(ctx, n, ctx.from_index(nonsquares[rank]))

    else:  # compose: x^m after D_n(x, a)
        m, n, a = spec[3:]

        def rule(t):
            return checks.power_bijective(m, q**t) and checks.dickson_bijective(n, q**t)

        def build(ctx):
            return excov.compose(excov.cyclic(ctx, m), excov.dickson(ctx, n, ctx.from_index(a)))

    def call():
        return excov.exceptionality_scan(build(excov.make_field(p, k)), TOWER_T_MAX)

    def check(report):
        fitted = report.fitted
        return checks.check_scan(
            name,
            q,
            depth,
            rule,
            report.t_reached,
            [(r.t, r.bijective, r.value_counts, r.period) for r in report.records],
            None if fitted is None else (fitted.modulus, fitted.residues),
            n if kind == "power" else None,
        )

    return Op(name, call, check)


# -- big-field --------------------------------------------------------------------
#
# A few value tables of 10^5 to 4*10^6 points, each built once through the
# command line front end, so evaluation, packing, table builds and memory
# dominate and cache reuse does not matter.  Prime fields sit on both
# sides of every dtype width boundary in the digit engine: 61/67 (int16
# work), 127/131 (int8 digits), 32749/32771 (int16 digits) and
# 46337/46349 (int32 products), plus 65537, a prime near 10^6 and the
# largest prime under the cap.

BIG_T_MAX = 24
# field -> reference exponent of its power map (see _power_exponent)
BIG_SAFE = {"5^1": 3, "61": 7, "67": 7, "127": 5, "131": 3, "32749": 5}
# Characteristic above 32767: the int16 digits and int32 products of the
# digit engine overflow and the scans come back wrong, so these operations
# are counted as failed.  Their inputs do not depend on the seed.
BIG_OVERFLOW = ("32771", "46337", "46349", "65537", "999983", "4194301")
BIG_OVERFLOW_MAPS = ("cyclic:3", "cyclic:5")


def _big_inputs(rng: random.Random) -> list[tuple]:
    specs = [("3^1", f"dickson:7,{rng.randrange(1, 3)}", False)]
    for field, ref in BIG_SAFE.items():
        p, k = _field_order(field)
        depth = checks.tower_depth(p**k, CAPS["big-field"], BIG_T_MAX)
        specs.append((field, f"cyclic:{_power_exponent(rng, p**k, depth, ref)}", False))
    for field in BIG_OVERFLOW:
        for spec in BIG_OVERFLOW_MAPS:
            specs.append((field, spec, True))
    return specs


def _field_order(field: str) -> tuple[int, int]:
    if "^" in field:
        p, k = field.split("^")
        return int(p), int(k)
    return int(field), 1


def run_cli(argv: list[str]) -> tuple[int, str]:
    """excov's command line in-process, stdout and stderr captured."""
    from excov import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


@functools.cache
def _scan_schema():
    import jsonschema

    schema = json.loads((ROOT / "schemas" / "scan.schema.json").read_text())
    return jsonschema.Draft202012Validator(schema)


def _big_op(spec: tuple) -> Op:
    field, mapspec, overflow = spec
    p, k = _field_order(field)
    q = p**k
    family, _, args = mapspec.partition(":")
    n = int(args.split(",")[0])
    depth = checks.tower_depth(q, CAPS["big-field"], BIG_T_MAX)
    name = f"scan {field} {mapspec}"
    argv = ["scan", "--field", field, "--map", mapspec, "--tmax", str(BIG_T_MAX)]

    def call():
        return run_cli(argv)

    def check(result):
        code, text = result
        if code != 0:
            return [f"{name}: exit code {code}"]
        doc = json.loads(text)
        problems = [f"{name}: schema: {e.message}" for e in _scan_schema().iter_errors(doc)]
        if problems:
            return problems
        if doc["field"] != {"p": p, "k": k, "order": q}:
            problems.append(f"{name}: field {doc['field']}")
        if family == "cyclic":
            rule, power_n = (lambda t: checks.power_bijective(n, q**t)), n
        else:
            rule, power_n = (lambda t: checks.dickson_bijective(n, q**t)), None
        fitted = doc["fitted"]
        return problems + checks.check_scan(
            name,
            q,
            depth,
            rule,
            doc["t_reached"],
            [
                (r["t"], r["bijective"], {int(s): v for s, v in r["value_counts"].items()}, r["period"])
                for r in doc["records"]
            ],
            (fitted["modulus"], set(fitted["residues"])) if isinstance(fitted, dict) else None,
            power_n,
        )

    return Op(name, call, check, known_fault=overflow)


# -- structural -------------------------------------------------------------------
#
# The prediction side: permutation, group, orbit and character-sum loops in
# pure Python that never build a field table.  Model degrees are primes
# and q is drawn among their primitive roots, so the coset period is the
# same for every seed.

COSET_CYCLIC_N = (67, 101, 127)
COSET_DICKSON_N = (61, 97, 131)
COMPONENT_N = (37, 41, 43, 47)
BRAID_N = (7, 9, 11, 13)
# every (p, k) with p^(k+1) <= 13; the three smallest share one operation
# so that each operation takes at least about a millisecond
MODULAR = (((3, 0), (5, 0), (7, 0)), ((3, 1),), ((11, 0),), ((13, 0),))
# inner braid orbit counts fixed by the acceptance suite
MODULAR_ORBITS = {(3, 0): 2, (5, 0): 4, (7, 0): 6, (3, 1): 6}
GENUS_N = 41
PENCIL_PRIMES = (211, 307, 401, 499)
OGG = (0, -1, 0, 1, 0)  # y^2 = x^3 - x^2 + x, integral model of Ogg's curve
OIT = (5, 60, 1)  # isogeny degree p, ell_max, t_max


def _is_prime_power(m: int) -> bool:
    r = next(d for d in range(2, m + 1) if m % d == 0)
    while m % r == 0:
        m //= r
    return m == 1


def _generators(n: int) -> list[int]:
    """Prime powers below 1000 that generate (Z/n)^*, n prime."""
    return [
        q
        for q in range(2, 1000)
        if q % n and _is_prime_power(q) and checks.mult_order(q, n) == n - 1
    ]


def _structural_inputs(rng: random.Random) -> list[tuple]:
    specs = []
    for n in COSET_CYCLIC_N:
        specs.append(("coset-cyclic", n, rng.choice(_generators(n))))
    for n in COSET_DICKSON_N:
        specs.append(("coset-dickson", n, rng.choice(_generators(n))))
    for n in COMPONENT_N:
        specs.append(("component", n, rng.choice([q for q in range(2, 200) if math.gcd(q, n) == 1])))
    for n in BRAID_N:
        specs.append(("braid", n))
    for group in MODULAR:
        specs.append(("modular",) + group)
    specs.append(("genus", GENUS_N))
    for p in PENCIL_PRIMES:
        deg = 3 + PENCIL_PRIMES.index(p)
        specs.append(("pencil", p, tuple(rng.randrange(p) for _ in range(deg)) + (rng.randrange(1, p),)))
    specs.append(("oit",) + OIT)
    return specs


def _images(perms) -> list[tuple]:
    return [g.images for g in perms]


def _structural_op(spec: tuple) -> Op:
    import excov

    kind = spec[0]
    name = f"{kind}{list(spec[1:])}"

    if kind in ("coset-cyclic", "coset-dickson"):
        _, n, q = spec
        if kind == "coset-cyclic":
            model, rule = excov.cyclic_cover_model, checks.power_bijective
        else:
            model, rule = excov.dickson_cover_model, checks.dickson_bijective

        def call():
            return excov.coset_exceptionality(model(n, q))

        def check(fs):
            # the set has period dividing n - 1; two periods are compared
            got = [fs.contains(t) for t in range(1, 2 * n - 1)]
            want = [rule(n, q**t) for t in range(1, 2 * n - 1)]
            return checks.check_series(got, want, name)

        return Op(name, call, check)

    if kind == "component":
        _, n, q = spec

        def call():
            M = excov.cyclic_cover_model(n, q)
            gens = list(M.group.generators)
            pairs = excov.fiber_tensor(gens, gens)
            tau = excov.fiber_tensor([M.tau], [M.tau])[0]
            return (
                excov.component_count(pairs, off_diagonal=True),
                excov.component_count(pairs + [tau], off_diagonal=True),
            )

        def check(out):
            want = (n - 1, checks.mul_orbit_count(n, q))
            return [] if out == want else [f"{name}: counts {out}, expected {want}"]

        return Op(name, call, check)

    if kind == "braid":
        n = spec[1]

        def call():
            return excov.braid_orbit(excov.dickson_branch_triple(n))

        def check(orbit):
            problems = [] if orbit else [f"{name}: empty orbit"]
            for t in orbit:
                problems += _check_branch_cycles(_images(t.perms), name)
            return problems

        return Op(name, call, check)

    if kind == "modular":

        def call():
            return [excov.modular_nielsen(p, k) for p, k in spec[1:]]

        def check(out):
            problems = []
            for (p, k), mc in zip(spec[1:], out):
                problems += _check_modular(p, k, mc, name)
            return problems

        return Op(name, call, check)

    if kind == "genus":
        top = spec[1]

        def call():
            out = []
            for n in range(3, top + 1, 2):
                t = excov.dickson_branch_triple(n)
                out.append((excov.rh_genus(t), _images(t.perms)))
            for n in range(2, top + 1):
                t = excov.cyclic_branch_pair(n)
                out.append((excov.rh_genus(t), _images(t.perms)))
            return out

        def check(out):
            problems = []
            for genus, perms in out:
                problems += _check_branch_cycles(perms, name)
                if genus != checks.rh_genus(perms):
                    problems.append(f"{name}: degree {len(perms[0])} genus {genus}")
            return problems

        return Op(name, call, check)

    if kind == "pencil":
        _, p, coeffs = spec

        def call():
            return excov.pencil_scan(excov.Poly(excov.make_field(p, 1), list(coeffs)))

        def check(rep):
            n_f = checks.collision_count(coeffs, p)
            e0 = sum(checks.legendre(v, p) for v in checks.poly_values(coeffs, p))
            problems = []
            if rep.n_f != n_f:
                problems.append(f"{name}: N_f {rep.n_f}, brute force {n_f}")
            if len(rep.e_values) != p or rep.e_values[0] != e0:
                problems.append(f"{name}: E_0 {rep.e_values[:1]}, expected {e0}")
            if sum(e * e for e in rep.e_values) != p * n_f:
                problems.append(f"{name}: sum of E^2 differs from p * N_f")
            return problems

        return Op(name, call, check)

    # oit: the degree-p^2 x-line map over each good prime ell
    _, p, ell_max, t_max = spec

    def call():
        return excov.oit_scan(excov.ogg_curve(), p, ell_max, t_max)

    def check(rep):
        problems = []
        if len(rep.rows) < 10:
            problems.append(f"{name}: only {len(rep.rows)} primes scanned")
        for row in rep.rows:
            trace = checks.curve_trace(OGG, row.ell)
            if row.a_ell != trace:
                problems.append(f"{name}: a_{row.ell} = {row.a_ell}, point count gives {trace}")
            for cell in row.cells:
                want = checks.isogeny_bijective(trace, row.ell, p, cell.t)
                if (cell.predicted, cell.bijective) != (want, want):
                    problems.append(
                        f"{name}: ell={row.ell} t={cell.t} predicted {cell.predicted},"
                        f" bijective {cell.bijective}, expected {want}"
                    )
        return problems

    return Op(name, call, check)


def _check_modular(p: int, k: int, mc, name: str) -> list[str]:
    problems = []
    want_inner = checks.gl2_order(p, k + 1) // 2
    if mc.inner_class_count != want_inner or len(mc.tuples) != want_inner:
        problems.append(f"{name} ({p},{k}): {mc.inner_class_count} inner classes, expected {want_inner}")
    want = MODULAR_ORBITS.get((p, k))
    if want is not None and (mc.inner_braid_orbit_count, mc.abs_class_count) != (want, 1):
        problems.append(
            f"{name} ({p},{k}): orbit counts {mc.inner_braid_orbit_count}, {mc.abs_class_count};"
            f" expected {want}, 1"
        )
    m = p ** (k + 1)
    for vs in mc.tuples:
        # reflections x -> v - x multiply to one iff v1 - v2 + v3 - v4 = 0,
        # and generate a transitive group iff v2, v3 span mod p
        (a, b), (c, d) = vs[1], vs[2]
        closes = all((v1 - v2 + v3 - v4) % m == 0 for v1, v2, v3, v4 in zip(*vs))
        if vs[0] != (0, 0) or not closes or (a * d - b * c) % p == 0:
            problems.append(f"{name} ({p},{k}): tuple {vs} is not a branch cycle description")
            break
    for vs in mc.tuples[:2] + mc.tuples[-1:]:
        problems += _check_branch_cycles(_reflections(m, vs), f"{name} {vs}")
    return problems


def _reflections(m: int, vs) -> list[tuple]:
    """Point reflections x -> v - x of (Z/m)^2, letters x*m + y."""
    out = []
    for v in vs:
        out.append(
            tuple(((v[0] - x) % m) * m + (v[1] - y) % m for x in range(m) for y in range(m))
        )
    return out


def _check_branch_cycles(perms, what: str) -> list[str]:
    """Product one, transitive, genus 0 by Riemann-Hurwitz."""
    problems = []
    if not checks.product_is_one(perms):
        problems.append(f"{what}: product is not one")
    if not checks.is_transitive(perms):
        problems.append(f"{what}: not transitive")
    elif checks.rh_genus(perms) != 0:
        problems.append(f"{what}: genus {checks.rh_genus(perms)}")
    return problems


_INPUTS = {
    "tower-sweep": _tower_inputs,
    "big-field": _big_inputs,
    "structural": _structural_inputs,
}
_OPS = {"tower-sweep": _tower_op, "big-field": _big_op, "structural": _structural_op}
