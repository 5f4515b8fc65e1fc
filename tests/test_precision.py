"""The battery's verdicts do not rest on extended precision.

special._EXTENDED is the one extended precision that every long-double site
reads (80-bit on x86-64 Linux).  Rebound to float64, as on hosts without
80-bit long double, the battery gives the same 9 verdicts; its errors move
by at most 3.8e-7 relative (kernel-bounds' slope error) and 2.5e-12 in the
other checks.  The long-double side is the session's `battery_reports`.
"""

import numpy as np

import run_all_checks
from fracasym import kernels, radialtransform, special


def _clear_memos():
    """Drop the engines and profiles built in the precision that was bound."""
    radialtransform._engine.cache_clear()
    kernels._profile.cache_clear()


def test_battery_verdicts_hold_in_float64(battery_reports, run_battery, monkeypatch, request):
    extended = battery_reports
    _clear_memos()
    request.addfinalizer(_clear_memos)  # monkeypatch restores the constant
    monkeypatch.setattr(special, "_EXTENDED", np.float64)
    # no disk cache: each profile is built in the precision bound now, and
    # none is written over the session cache's
    plain = run_battery(run_all_checks.configs())
    assert radialtransform._engine(3).x.dtype == np.float64
    assert plain.keys() == extended.keys()
    for label, rep in plain.items():
        ref = extended[label]
        assert (rep.verdict, ref.verdict) == ("pass", "pass"), label
        bits = (rep.precision_bits, ref.precision_bits)
        assert bits == (53, np.finfo(np.longdouble).nmant + 1)
        assert rep.checkpoints == ref.checkpoints
        # the achieved levels: 3.8e-7 for kernel-bounds, 2.5e-12 elsewhere
        rtol = 1e-6 if label == "kernel-bounds" else 1e-11
        for name in ("raw_errors", "normalized_errors"):
            got, want = getattr(rep, name), getattr(ref, name)
            assert np.allclose(got, want, rtol=rtol, atol=0.0), (label, name, got, want)
