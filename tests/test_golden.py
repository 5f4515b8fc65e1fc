"""The outputs every change preserves, against tests/golden/.

The battery's reports are the session's (`battery_reports`); the five CLI
commands are compared in test_cli.py::test_readme_example_runs and the
criterion lines in test_acceptance.py.  A change that moves a value
regenerates the set with scripts/golden.py in the same commit.
"""

import json
import math
import os
import shutil

import golden

BATTERY = os.path.join(golden.GOLDEN, "battery")


def test_battery_matches_golden(battery_reports, tmp_path):
    for label, rep in battery_reports.items():
        rep.save(str(tmp_path / f"report_{label}.json"))
    moved = golden.compare_dirs(str(tmp_path), BATTERY)
    assert not moved, "\n".join([golden.platform_note(), *moved])


def test_comparator_names_each_moved_field(tmp_path):
    want = golden.read_json(os.path.join(BATTERY, "report_kernel-bounds.json"))
    got = json.loads(json.dumps(want))
    assert golden.moved(got, want, "kernel-bounds") == []
    # one ulp
    got["notes"]["kappa"] = math.nextafter(want["notes"]["kappa"], math.inf)
    assert golden.moved(got, want, "kernel-bounds") == [
        f"kernel-bounds.notes.kappa: {got['notes']['kappa']!r}, "
        f"golden {want['notes']['kappa']!r}"]
    got = json.loads(json.dumps(want))
    got["notes"]["extra"] = 1.0
    del got["slope"]
    assert golden.moved(got, want, "kernel-bounds") == [
        "kernel-bounds.notes.extra: added, 1.0",
        f"kernel-bounds.slope: dropped, golden {want['slope']!r}"]
    # a CSV by line, and a file that one side lacks
    shutil.copytree(BATTERY, tmp_path / "got")
    csv = tmp_path / "got" / "report_compact.csv"
    lines = csv.read_text().split("\n")
    lines[2] += "0"
    csv.write_text("\n".join(lines))
    (tmp_path / "got" / "report_constant.json").unlink()
    assert golden.compare_dirs(str(tmp_path / "got"), BATTERY) == [
        "report_constant.json: dropped",
        f"report_compact.csv[2]: {lines[2]!r}, golden {lines[2][:-1]!r}"]
