"""Convergence reports: the o(1) statements of the limit theorems are
operationalized as strictly decreasing normalized-error series over geometric
checkpoints, with a final-tolerance gate.  The fitted log-log slope is
reported but never gated (the underlying results carry no rates)."""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import special


@dataclass
class ConvergenceReport:
    theorem: str
    checkpoints: list
    raw_errors: list
    normalized_errors: list
    tolerance: float
    verdict: str = "fail"
    slope: float | None = None
    params: dict = field(default_factory=dict)
    forcing: dict | None = None
    p: float | None = None
    scale: dict | None = None
    truncation_radius: float | None = None
    grid: dict | None = None  # the RadialGrid's rho_min, rho_max and points
    # the significand bits of the extended precision the numbers were made in
    precision_bits: int = field(default_factory=special.precision_bits)
    runtime_seconds: float = 0.0
    notes: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "params": self.params,
            "forcing": self.forcing,
            "p": None if self.p is None else ("inf" if math.isinf(self.p) else self.p),
            "scale": self.scale,
            "checkpoints": list(self.checkpoints),
            "raw_errors": list(self.raw_errors),
            "normalized_errors": list(self.normalized_errors),
            "slope": self.slope,
            "truncation_radius": self.truncation_radius,
            "grid": self.grid,
            "precision_bits": self.precision_bits,
            "verdict": self.verdict,
            "tolerances": {"final": self.tolerance},
            "notes": self.notes,
            "runtime_seconds": self.runtime_seconds,
        }

    def save(self, json_path: str):
        """Report JSON plus a plot-ready CSV of the error series, one row per
        checkpoint; the normalized column is empty where the normalized series
        is not one value per checkpoint (kernel-bounds' one slope error)."""
        atomic_write(json_path, json.dumps(self.to_dict(), indent=2) + "\n")
        norm = self.normalized_errors
        if len(norm) != len(self.checkpoints):
            norm = [None] * len(self.checkpoints)
        rows = ["checkpoint,raw_error,normalized_error"]
        rows += [f"{t:.17g},{r:.17g}," + ("" if n is None else f"{n:.17g}")
                 for t, r, n in zip(self.checkpoints, self.raw_errors, norm)]
        atomic_write(os.path.splitext(json_path)[0] + ".csv", "\n".join(rows) + "\n")


def atomic_write(path, text):
    """Write text to path through a temporary file and os.replace, so readers
    never see a partial file.  The file gets the mode a plain open would give
    a new one, 0o666 less the umask: mkstemp makes its file 0o600."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    umask = os.umask(0)  # the one way to read it is to set it
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def make_report(theorem, checkpoints, raw_errors, normalized_errors, tolerance,
                gates=(), **kw):
    """Assemble a report; verdict = a finite, strictly decreasing series with
    final value below tolerance, and every clause in gates (the check's own
    pass conditions beyond its series).  An identically zero series passes
    the series rule: the noise-floor clamps can zero every checkpoint of a
    difference that has decayed."""
    checkpoints = [float(t) for t in checkpoints]
    norm = [float(e) for e in normalized_errors]
    finite = all(math.isfinite(e) for e in norm)
    slope = None
    if finite and all(e > 0 for e in norm) and len(norm) >= 2:
        slope = special.lsq_slope(np.log(checkpoints), np.log(norm))
    # ties allowed only at exactly zero (error series that bottom out at the
    # quadrature noise floor get clamped to zero, not frozen at the floor)
    decreasing = all(
        b < a or (a == 0.0 and b == 0.0) for a, b in zip(norm[:-1], norm[1:])
    )
    zero = all(e == 0.0 for e in norm)
    ok = finite and (zero or decreasing and norm[-1] < tolerance) and all(gates)
    return ConvergenceReport(
        theorem=theorem,
        checkpoints=checkpoints,
        raw_errors=[float(e) for e in raw_errors],
        normalized_errors=norm,
        tolerance=tolerance,
        verdict="pass" if ok else "fail",
        slope=slope,
        **kw,
    )
