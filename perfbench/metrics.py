"""Names, units and direction of every metric the benchmark reports, and for
each per-layer metric the end-to-end metric and workload it should move.

BENCHMARK.json lists the same names; its fixed key set has no room for the
"moves" column, so it lives here and is printed with every traced run.
"""

END_TO_END = (
    # name, unit, better
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "ratio", "higher"),
    ("oracle_rel_err", "ratio", "lower"),
)

BATTERY_LABELS = (
    "compact", "intermediate-S", "intermediate-F", "outer-general", "outer-mass",
    "outer-log", "coherence", "constant", "kernel-bounds",
)

_ML = "moves wall_s on battery and profile-sweep; about 0 on potentials"
_RT = "moves wall_s on potentials; a few percent of battery"
_SAFETY = "moves oracle_rel_err and ok_frac on every workload"

PER_LAYER = (
    # name, unit, better, the end-to-end metric and workload it should move
    ("special.ml.calls", "count", "lower", _ML),
    ("special.ml.points", "count", "lower", _ML),
    ("special.ml.s", "s", "lower", _ML),
    ("special.ml.points.small", "count", "lower", _ML),
    ("special.ml.points.mid", "count", "lower", _ML),
    ("special.ml.points.large", "count", "lower", _ML),
    *(
        (f"special.ml.ns_per_point.{r}.{b}", "ns/point", "lower",
         "moves wall_s on battery and profile-sweep")
        for r in ("small", "mid", "large") for b in ("b_a", "b_1")
    ),
    ("special.ml.peak_alloc_mb", "MB", "lower",
     "moves peak_rss_mb on battery and profile-sweep"),
    ("radialtransform.inverse.calls", "count", "lower", _RT),
    ("radialtransform.inverse.self_s", "s", "lower", _RT),
    ("radialtransform.forward.calls", "count", "lower", _RT),
    ("radialtransform.forward.self_s", "s", "lower", _RT),
    ("radialtransform.lp_norm.calls", "count", "lower", _RT),
    ("radialtransform.lp_norm.s", "s", "lower", _RT),
    ("radialtransform.hankel.ns_per_point", "ns/point", "lower", _RT),
    ("radialtransform.zero_samples", "count", "lower", _SAFETY),
    ("radialtransform.extrapolations", "count", "lower", _SAFETY),
    ("kernels.profile.builds", "count", "lower",
     "moves wall_s on profile-sweep; setup_s on battery"),
    ("kernels.profile.loads", "count", "lower", "moves wall_s on battery"),
    ("kernels.profile.build_s", "s", "lower",
     "moves wall_s on profile-sweep; setup_s on battery"),
    ("kernels.profile.load_s", "s", "lower", "moves wall_s on battery"),
    ("kernels.estimate_kappa.s", "s", "lower", "moves wall_s on profile-sweep"),
    ("kernels.constant_A.s", "s", "lower", "moves wall_s on profile-sweep"),
    ("kernels.validate_bounds.s", "s", "lower", "moves wall_s on profile-sweep"),
    ("kernels.cache_bytes", "bytes", "lower", "moves setup_s on battery"),
    ("solver.time_weight.calls", "count", "lower", "moves wall_s on battery"),
    ("solver.time_weight.s", "s", "lower", "moves wall_s on battery"),
    ("solver.w_table.builds", "count", "lower", "moves wall_s on battery"),
    ("solver.w_table.hit_ratio", "ratio", "higher", "moves wall_s on battery"),
    ("potentials.riesz_potential.calls", "count", "lower", "moves wall_s on potentials"),
    ("potentials.riesz_potential.s", "s", "lower", "moves wall_s on potentials"),
    ("potentials.riesz_tail_check.calls", "count", "lower", "moves wall_s on potentials"),
    ("potentials.riesz_tail_check.s", "s", "lower", "moves wall_s on potentials"),
    *((f"verify.check_s.{label}", "s", "lower", "moves wall_s on battery")
      for label in BATTERY_LABELS),
    ("trace.coverage", "ratio", "higher",
     "share of the traced wall_s under top-level layer spans; gate: >= 0.9"),
    ("trace.overhead_frac", "ratio", "lower",
     "traced over untraced wall_s of the same workload, minus 1"),
    ("trace.self_frac", "ratio", "lower",
     "time in the tracing wrappers and hooks over the traced wall_s"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
