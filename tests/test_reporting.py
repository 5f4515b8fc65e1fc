import math
import os

import pytest

from fracasym.reporting import atomic_write, make_report

_TIMES = (1e2, 1e3, 1e4)


@pytest.mark.parametrize("series, gates, verdict", [
    ([1e-1, 1e-2, 1e-3], (), "pass"),
    ([1e-1, 1e-2, 1e-3], [True, True], "pass"),
    ([1e-1, 1e-2, 1e-3], [True, False], "fail"),
    ([0.0, 0.0, 0.0], [False], "fail"),
    ([0.0, 0.0, 0.0], [True], "pass"),
    ([1e-1, 2e-1, 1e-3], [True], "fail"),  # not decreasing
    ([1e-1, 1e-2, 6e-2], [True], "fail"),  # decreasing to above the tolerance
    ([math.inf, 1e-2, 1e-3], [True], "fail"),
    ([1e-1, math.nan, 1e-3], [True], "fail"),
])
def test_verdict_is_the_series_rule_and_every_gate(series, gates, verdict):
    rep = make_report("t", _TIMES, series, series, 5e-2, gates)
    assert rep.verdict == verdict
    assert (rep.slope is None) == (not all(0 < e < math.inf for e in series))


def test_one_csv_row_per_checkpoint(tmp_path):
    # kernel-bounds' normalized series is its one slope error: the CSV once
    # held a single row, checkpoint 100 with the slope error as its own
    norms = [0.5, 0.25, 0.125]
    make_report("kernel-bounds", _TIMES, norms, [2e-7], 1e-2).save(str(tmp_path / "kb.json"))
    assert (tmp_path / "kb.csv").read_text().splitlines() == [
        "checkpoint,raw_error,normalized_error", "100,0.5,", "1000,0.25,", "10000,0.125,"]
    make_report("t", _TIMES, norms, [1.0, 0.5, 0.0], 5e-2).save(str(tmp_path / "t.json"))
    assert (tmp_path / "t.csv").read_text().splitlines()[1:] == [
        "100,0.5,1", "1000,0.25,0.5", "10000,0.125,0"]


def test_atomic_write_leaves_nothing_when_the_write_fails(tmp_path):
    # a failed write removes its temporary file and never creates the target
    target = tmp_path / "report.json"
    with pytest.raises(TypeError):
        atomic_write(str(target), 12345)  # not text: the write itself raises
    assert os.listdir(tmp_path) == []
    atomic_write(str(target), "ok\n")
    assert os.listdir(tmp_path) == ["report.json"] and target.read_text() == "ok\n"


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_atomic_write_gives_the_mode_of_a_plain_open(tmp_path, umask):
    # mkstemp makes its file 0o600; the written file takes 0o666 less the
    # umask, as open(path, "w") gives a new file
    old = os.umask(umask)
    try:
        atomic_write(str(tmp_path / "atomic.json"), "{}\n")
        with open(tmp_path / "plain.json", "w") as fh:
            fh.write("{}\n")
    finally:
        os.umask(old)
    mode = lambda name: os.stat(tmp_path / name).st_mode & 0o777
    assert mode("atomic.json") == mode("plain.json") == 0o666 & ~umask
