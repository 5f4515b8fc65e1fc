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
    runtime_seconds: float = 0.0
    notes: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict in ("pass", "not-applicable")

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
            "verdict": self.verdict,
            "tolerances": {"final": self.tolerance},
            "notes": self.notes,
            "runtime_seconds": self.runtime_seconds,
        }

    def save(self, json_path: str):
        """Report JSON plus a plot-ready CSV of the error series."""
        atomic_write(json_path, json.dumps(self.to_dict(), indent=2) + "\n")
        rows = ["checkpoint,raw_error,normalized_error"]
        rows += [
            f"{t:.17g},{r:.17g},{n:.17g}"
            for t, r, n in zip(self.checkpoints, self.raw_errors, self.normalized_errors)
        ]
        atomic_write(os.path.splitext(json_path)[0] + ".csv", "\n".join(rows) + "\n")


def atomic_write(path, text):
    """Write text to path through a temporary file and os.replace, so readers
    never see a partial file."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def make_report(theorem, checkpoints, raw_errors, normalized_errors, tolerance, **kw):
    """Assemble a report; verdict = strictly decreasing series with final
    value below tolerance.  Identically zero series pass (trivial data)."""
    checkpoints = [float(t) for t in checkpoints]
    raw_errors = [float(e) for e in raw_errors]
    norm = [float(e) for e in normalized_errors]
    rep = ConvergenceReport(
        theorem=theorem,
        checkpoints=checkpoints,
        raw_errors=raw_errors,
        normalized_errors=norm,
        tolerance=tolerance,
        **kw,
    )
    if any(not math.isfinite(e) for e in norm):
        rep.verdict = "fail"
        return rep
    if all(e == 0.0 for e in norm):
        rep.verdict = "pass"
        rep.slope = None
        return rep
    if all(e > 0 for e in norm) and len(norm) >= 2:
        rep.slope = float(
            np.polyfit(np.log(checkpoints), np.log(norm), 1)[0]
        )
    # ties allowed only at exactly zero (error series that bottom out at the
    # quadrature noise floor get clamped to zero, not frozen at the floor)
    decreasing = all(
        b < a or (a == 0.0 and b == 0.0) for a, b in zip(norm[:-1], norm[1:])
    )
    rep.verdict = "pass" if (decreasing and norm[-1] < tolerance) else "fail"
    return rep
