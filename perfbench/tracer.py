"""Span tracing around the public functions of each layer, from outside.

`instrument` replaces every traced function by a wrapper in every module
namespace that holds it, so the
``from .x import y`` copies in kernels, solver, potentials and verify are
rebound too; it fails when a reference to an original is left behind, since
calls through it would go uncounted without any error.  Spans (name, start,
end, parent, op, tag) are kept in memory and written out when the pass ends.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gc
import inspect
import json
import os
import sys
import time
import types
from collections import defaultdict

import numpy as np

LAYERS = ("special", "radialtransform", "kernels", "solver", "potentials", "verify")

# |x| ranges of the Mittag-Leffler traffic, fixed here so the mix stays
# comparable if the evaluator's own branch cuts move.
ML_RANGES = (("small", 0.0, 0.9), ("mid", 0.9, 40.0), ("large", 40.0, float("inf")))

NAME, START, END, PARENT, OP, TAG = range(6)


class Tracer:
    def __init__(self, cache_dir: str):
        self.cache_dir = cache_dir
        self.spans = []
        self._stack = []
        self.op = None  # name of the operation in progress, set by the pass
        self.counts = defaultdict(int)
        self.w_keys = set()
        self.self_s = 0.0  # time spent in wrappers and hooks, outside spans

    def wrap(self, name, fn, before=None, after=None):
        """Wrapper recording one span per call.  `before(bound_args)` runs
        ahead of the span; `after(rec, state, bound_args, out)` runs after it
        ends, with `state` the result of `before`."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            bound = sig.bind(*args, **kwargs).arguments if (before or after) else None
            state = before(bound) if before else None
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                self._stack.pop()
            if after:
                after(rec, state, bound, out)
            # this wrapper's own cost; nested wrappers count theirs
            self.self_s += time.perf_counter() - entered - (rec[END] - rec[START])
            return out

        traced.__traced_original__ = fn
        return traced

    # --- hooks -----------------------------------------------------------------

    def _ml_after(self, rec, state, bound, out):
        ax = np.abs(np.asarray(bound["x"], dtype=float))
        self.counts["special.ml.points"] += ax.size
        for label, lo, hi in ML_RANGES:
            self.counts[f"special.ml.points.{label}"] += int(
                np.count_nonzero((ax >= lo) & (ax < hi))
            )

    def _inverse_after(self, rec, state, bound, out):
        self.counts["radialtransform.zero_samples"] += int(
            np.count_nonzero(out.samples == 0.0)
        )

    def _cache_files(self, bound=None):
        try:
            return {f for f in os.listdir(self.cache_dir) if f.endswith(".csv")}
        except FileNotFoundError:
            return set()

    def _profile_after(self, rec, files_before, bound, out):
        rec[TAG] = "build" if self._cache_files() - files_before else "load"

    def _time_weight_after(self, rec, state, bound, out):
        if bound["gamma"] != 0.0:
            self.counts["solver.time_weight.tabulated_calls"] += 1
            self.w_keys.add((bound["alpha"], bound["gamma"], bound["t"]))

    # --- installation ------------------------------------------------------------

    def instrument(self, extra_modules=()):
        """Wrap the public entry points of every layer; returns the number of
        rebound references.  Raises if any reference to an original remains."""
        from fracasym import kernels, potentials, radialtransform, solver, special, verify

        def forward_factory(fn):
            # radial_fourier_forward returns the transform; its calls do the work
            @functools.wraps(fn)
            def factory(*args, **kwargs):
                return self.wrap("radialtransform.forward", fn(*args, **kwargs))

            factory.__traced_original__ = fn
            return factory

        traced = [
            # module, function, span name, before hook, after hook
            (special, "mittag_leffler", "special.mittag_leffler", None, self._ml_after),
            (radialtransform, "radial_fourier_inverse", "radialtransform.inverse",
             None, self._inverse_after),
            (radialtransform, "lp_norm_annulus", "radialtransform.lp_norm", None, None),
            (radialtransform, "radial_integral", "radialtransform.radial_integral",
             None, None),
            (kernels, "build_y_profile", "kernels.build_y_profile",
             self._cache_files, self._profile_after),
            (kernels, "build_z_profile", "kernels.build_z_profile",
             self._cache_files, self._profile_after),
            (kernels, "estimate_kappa", "kernels.estimate_kappa", None, None),
            (kernels, "constant_A", "kernels.constant_A", None, None),
            (kernels, "validate_bounds", "kernels.validate_bounds", None, None),
            (solver, "time_weight", "solver.time_weight", None, self._time_weight_after),
            (potentials, "riesz_potential", "potentials.riesz_potential", None, None),
            (potentials, "potential_deviation", "potentials.potential_deviation",
             None, None),
            (potentials, "riesz_tail_check", "potentials.riesz_tail_check", None, None),
            (verify, "run_check", "verify.run_check", None, None),
        ]
        targets = {
            getattr(mod, attr): self.wrap(name, getattr(mod, attr), before, after)
            for mod, attr, name, before, after in traced
        }
        fwd = radialtransform.radial_fourier_forward
        targets[fwd] = forward_factory(fwd)
        by_id = {id(orig): new for orig, new in targets.items()}

        rebound = 0
        for mod in [m for n, m in sys.modules.items()
                    if n == "fracasym" or n.startswith("fracasym.")] + list(extra_modules):
            ns = vars(mod)
            for key, value in list(ns.items()):
                if id(value) in by_id:
                    ns[key] = by_id[id(value)]
                    rebound += 1

        left = [
            f"{orig.__module__}.{orig.__name__} held by {type(ref).__name__}"
            for orig in targets
            for ref in gc.get_referrers(orig)
            if not _tracer_owned(ref, targets)
        ]
        if left:
            raise RuntimeError(f"untraced references remain: {left}")
        return rebound

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "tag"],
                       "spans": self.spans}, fh)

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer counts and times of the pass, plus the share of wall_s
        covered by top-level spans of the named layers."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child_s[rec[PARENT]] += rec[END] - rec[START]
        calls, total, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
        top = 0.0
        for i, rec in enumerate(spans):
            key = rec[NAME] + (f".{rec[TAG]}" if rec[TAG] else "")
            dur = rec[END] - rec[START]
            calls[key] += 1
            total[key] += dur
            self_s[key] += dur - child_s[i]
            if rec[PARENT] < 0 and rec[NAME].split(".")[0] in LAYERS:
                top += dur
        check_s = defaultdict(float)
        for rec in spans:
            if rec[NAME] == "verify.run_check":
                check_s[rec[OP]] += rec[END] - rec[START]
        tabulated = self.counts["solver.time_weight.tabulated_calls"]
        m = {
            "special.ml.calls": calls["special.mittag_leffler"],
            "special.ml.points": self.counts["special.ml.points"],
            "special.ml.s": total["special.mittag_leffler"],
            "radialtransform.inverse.calls": calls["radialtransform.inverse"],
            "radialtransform.inverse.self_s": self_s["radialtransform.inverse"],
            "radialtransform.forward.calls": calls["radialtransform.forward"],
            "radialtransform.forward.self_s": self_s["radialtransform.forward"],
            "radialtransform.lp_norm.calls": calls["radialtransform.lp_norm"],
            "radialtransform.lp_norm.s": total["radialtransform.lp_norm"],
            "radialtransform.zero_samples": self.counts["radialtransform.zero_samples"],
            "solver.time_weight.calls": calls["solver.time_weight"],
            "solver.time_weight.s": total["solver.time_weight"],
            "solver.w_table.builds": len(self.w_keys),
            "solver.w_table.hit_ratio": (
                1.0 - len(self.w_keys) / tabulated if tabulated else 0.0
            ),
            "potentials.riesz_potential.calls": calls["potentials.riesz_potential"],
            "potentials.riesz_potential.s": total["potentials.riesz_potential"],
            "potentials.riesz_tail_check.calls": calls["potentials.riesz_tail_check"],
            "potentials.riesz_tail_check.s": total["potentials.riesz_tail_check"],
            "kernels.estimate_kappa.s": total["kernels.estimate_kappa"],
            "kernels.constant_A.s": total["kernels.constant_A"],
            "kernels.validate_bounds.s": total["kernels.validate_bounds"],
            "trace.coverage": top / wall_s,
            "trace.self_frac": self.self_s / wall_s,
        }
        for label, _, _ in ML_RANGES:
            m[f"special.ml.points.{label}"] = self.counts[f"special.ml.points.{label}"]
        for kind in ("build", "load"):
            names = [f"kernels.build_{w}_profile.{kind}" for w in "yz"]
            m[f"kernels.profile.{kind}s"] = sum(calls[n] for n in names)
            m[f"kernels.profile.{kind}_s"] = sum(total[n] for n in names)
        m["kernels.cache_bytes"] = sum(
            os.path.getsize(os.path.join(self.cache_dir, f))
            for f in os.listdir(self.cache_dir)
        ) if os.path.isdir(self.cache_dir) else 0
        return m, dict(check_s)


def _tracer_owned(ref, targets) -> bool:
    """References a wrapper keeps to its original, or this module's own."""
    if ref is targets or isinstance(ref, (types.CellType, types.FrameType)):
        return True
    return isinstance(ref, dict) and "__traced_original__" in ref
