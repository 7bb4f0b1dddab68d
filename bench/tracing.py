"""Spans around excov's public functions, recorded from outside the program.

``Tracer.install()`` replaces each function listed in ``LAYERS`` with a
wrapper in every excov module that holds a reference to it, because
modules import names directly (excscan calls its own ``get_batch`` and
``permutation_period``).  Methods are wrapped on their class.  A span is
(name, start, end, parent); spans stay in memory until the worker writes
them out at its end.  A layer's self time is its spans' duration minus
the duration of their direct child spans.

Private helpers are not wrapped, so work reachable only through one lands
in the self time of the public caller: exp/log tables built by
``_dlog`` count toward whichever of pow_indices, mul_indices,
power_table or eval_sparse asked first, and the scaled power tables of
``_scaled_power`` count toward eval_sparse.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# span name -> (module, attributes); "Class.method" wraps a method
LAYERS = {
    "gf.make_field": ("gf", ("make_field",)),
    "gf.make_extension": ("gf", ("make_extension",)),
    "projmap.map_build": (
        "projmap",
        ("cyclic", "dickson", "chebyshev", "chebyshev_twist", "redei", "compose", "parse_map_spec"),
    ),
    "batch.get_batch": ("_batch", ("get_batch",)),
    "batch.field_init": ("_batch", ("BatchField.__init__",)),
    "batch.generator": ("_batch", ("BatchField.generator",)),
    "batch.eval_sparse": ("_batch", ("BatchField.eval_sparse",)),
    "batch.power_table": ("_batch", ("BatchField.power_table",)),
    "batch.pack": ("_batch", ("BatchField.pack",)),
    "batch.index_ops": ("_batch", ("BatchField.pow_indices", "BatchField.mul_indices")),
    "batch.period": ("_batch", ("permutation_period",)),
    "excscan.value_table": ("excscan", ("value_table",)),
    "excscan.scan": ("excscan", ("exceptionality_scan",)),
    "excscan.dp": ("excscan", ("dp_range_test", "idp_multiset_test")),
    "frobset.fit": ("frobset", ("fit_from_samples",)),
    "grouptheory.model": ("grouptheory", ("cyclic_cover_model", "dickson_cover_model")),
    "grouptheory.coset": ("grouptheory", ("coset_exceptionality",)),
    "grouptheory.component": ("grouptheory", ("component_count", "fiber_tensor")),
    "nielsen.braid_orbit": ("nielsen", ("braid_orbit",)),
    "nielsen.modular": ("nielsen", ("modular_nielsen",)),
    "nielsen.genus": ("nielsen", ("rh_genus",)),
    "lattes.oit": ("lattes", ("oit_scan",)),
    "pencil.scan": ("pencil", ("pencil_scan",)),
    "cli.main": ("cli", ("main",)),
}

# per-layer metric -> the span whose self time it sums
SELF_TIMES = {
    "gf.make_field_s": "gf.make_field",
    "gf.make_extension_s": "gf.make_extension",
    "projmap.map_build_s": "projmap.map_build",
    "batch.generator_s": "batch.generator",
    "batch.eval_sparse_s": "batch.eval_sparse",
    "batch.power_table_s": "batch.power_table",
    "batch.pack_s": "batch.pack",
    "batch.index_ops_s": "batch.index_ops",
    "batch.period_s": "batch.period",
    "excscan.value_table_s": "excscan.value_table",
    "excscan.scan_self_s": "excscan.scan",
    "excscan.dp_s": "excscan.dp",
    "frobset.fit_s": "frobset.fit",
    "grouptheory.model_s": "grouptheory.model",
    "grouptheory.coset_s": "grouptheory.coset",
    "grouptheory.component_s": "grouptheory.component",
    "nielsen.braid_orbit_s": "nielsen.braid_orbit",
    "nielsen.modular_s": "nielsen.modular",
    "nielsen.genus_s": "nielsen.genus",
    "lattes.oit_s": "lattes.oit",
    "pencil.scan_s": "pencil.scan",
    "cli.self_s": "cli.main",
}
CALL_COUNTS = {
    "gf.make_extension_calls": "gf.make_extension",
    "batch.get_batch_calls": "batch.get_batch",
    "batch.fields_built": "batch.field_init",
    "batch.period_calls": "batch.period",
}
UNITS = dict.fromkeys(SELF_TIMES, "s") | dict.fromkeys(CALL_COUNTS, "count") | {
    "batch.reuse_ratio": "ratio",
    "excscan.points": "count",
    "excscan.points_per_s": "1/s",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.self_time: dict[str, float] = {}
        self.total_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.points = 0
        self.enabled = False
        self._stack: list[list] = []  # [span id, child time]

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [sid, 0.0]
            tracer.spans.append(None)
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                dur = end - start
                tracer.spans[sid] = (sid, name, start, end, parent)
                tracer.self_time[name] = tracer.self_time.get(name, 0.0) + dur - frame[1]
                tracer.total_time[name] = tracer.total_time.get(name, 0.0) + dur
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                if tracer._stack:
                    tracer._stack[-1][1] += dur
            if name == "excscan.value_table":
                tracer.points += len(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every listed function wherever an excov module refers to it."""
        for modname, _ in LAYERS.values():
            importlib.import_module(f"excov.{modname}")
        modules = [m for k, m in list(sys.modules.items()) if k == "excov" or k.startswith("excov.")]
        for name, (modname, attrs) in LAYERS.items():
            mod = sys.modules[f"excov.{modname}"]
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth, self._wrap(name, cls.__dict__[meth]))
                    continue
                fn = getattr(mod, attr)
                wrapper = self._wrap(name, fn)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, wrapper)

    def layer_metrics(self) -> dict[str, float]:
        out = {m: self.self_time.get(span, 0.0) for m, span in SELF_TIMES.items()}
        out |= {m: self.calls.get(span, 0) for m, span in CALL_COUNTS.items()}
        calls = out["batch.get_batch_calls"]
        out["batch.reuse_ratio"] = 1 - out["batch.fields_built"] / calls if calls else 0.0
        out["excscan.points"] = self.points
        table_time = self.total_time.get("excscan.value_table", 0.0)
        out["excscan.points_per_s"] = self.points / table_time if table_time else 0.0
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end, "parent": parent}) + "\n")
