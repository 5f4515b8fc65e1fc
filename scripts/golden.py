#!/usr/bin/env python3
"""Regenerate tests/golden/, the outputs every change must preserve.

Usage:
    python scripts/golden.py

The set holds:
- battery/: what `run_all_checks.py --out` writes, 9 JSONs and 9 CSVs;
- cli/: the files that `kernel`, `potential`, `solve`, `rates` and `verify`
  write on README's example configuration, and their exit codes
  (exit_codes.json);
- criteria.txt: the 15 `criterion NN [...]` lines of tests/test_acceptance.py;
- platform.json: numpy's version, the extended precision's significand bits
  and numpy's SIMD dispatch, the host the bits were made on.

Each JSON is kept without what varies from run to run: a report's
runtime_seconds and a profile sidecar's engine hash (a digest of the source).
The tests compare against the set with `compare_dirs` and `moved`, which name
every field that moved; a change that moves a value runs this script in the
same commit.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import numpy as np

import run_all_checks
from fracasym import cli, special

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")
COMMANDS = ("kernel", "potential", "solve", "rates", "verify")


def platform():
    """What the golden bits rest on beyond the pinned versions."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return {
        "numpy": np.__version__,
        "precision_bits": special.precision_bits(),
        "simd_found": [f for f in __cpu_dispatch__ if __cpu_features__[f]],
    }


def platform_note():
    with open(os.path.join(GOLDEN, "platform.json")) as fh:
        recorded = json.load(fh)
    return f"golden set recorded on {recorded}, compared on {platform()}"


def read_json(path):
    """A JSON output without its runtime_seconds and engine hash."""
    with open(path) as fh:
        data = json.load(fh)
    data.pop("runtime_seconds", None)
    data.pop("engine", None)
    return data


def moved(got, want, path):
    """Every field where got and want differ, as 'path: got, golden want'.
    Leaves compare by repr: a float bit for bit, NaN equal to NaN, 1 unequal
    to 1.0."""
    if isinstance(got, dict) and isinstance(want, dict):
        out = []
        for key in sorted(got.keys() | want.keys()):
            sub = f"{path}.{key}"
            if key not in want:
                out.append(f"{sub}: added, {got[key]!r}")
            elif key not in got:
                out.append(f"{sub}: dropped, golden {want[key]!r}")
            else:
                out += moved(got[key], want[key], sub)
        return out
    if isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: {len(got)} items, golden {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in moved(g, w, f"{path}[{i}]")]
    return [] if repr(got) == repr(want) else [f"{path}: {got!r}, golden {want!r}"]


def compare_dirs(got_dir, want_dir):
    """moved() over two output directories: each JSON by field, each other
    file byte for byte by line (path[i] is line i), and the files only one
    of them holds."""
    got, want = set(os.listdir(got_dir)), set(os.listdir(want_dir))
    out = [f"{name}: added" for name in sorted(got - want)]
    out += [f"{name}: dropped" for name in sorted(want - got)]
    for name in sorted(got & want):
        a, b = os.path.join(got_dir, name), os.path.join(want_dir, name)
        if name.endswith(".json"):
            out += moved(read_json(a), read_json(b), name[: -len(".json")])
            continue
        with open(a, newline="") as fa, open(b, newline="") as fb:
            out += moved(fa.read().split("\n"), fb.read().split("\n"), name)
    return out


def readme_example():
    """The example configuration in README's "Command line" section."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        section = fh.read().split("## Command line", 1)[1].split("\n## ", 1)[0]
    return section.split("```ini\n", 1)[1].split("```", 1)[0]


def run_cli(out_dir):
    """The five commands on README's example (written beside out_dir as
    out_dir.ini) into out_dir; their exit codes, also in exit_codes.json."""
    config = out_dir.rstrip(os.sep) + ".ini"
    with open(config, "w") as fh:
        fh.write(readme_example())
    codes = {c: cli.main([c, "--config", config, "--out", out_dir]) for c in COMMANDS}
    os.makedirs(out_dir, exist_ok=True)  # where every command was refused
    with open(os.path.join(out_dir, "exit_codes.json"), "w") as fh:
        fh.write(json.dumps(codes, indent=2) + "\n")
    return codes


def criterion_lines():
    """The criterion lines test_acceptance.py prints; it prints each one
    before it compares it, so a stale set still yields all 15; --tb=no keeps
    a failed comparison's message, which quotes both lines, out of stdout."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no",
         "tests/test_acceptance.py"],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = re.findall(r"criterion \d\d \[.*", run.stdout)
    if len(lines) != 15:
        sys.exit(f"expected 15 criterion lines, got {len(lines)}:\n{run.stdout}")
    return lines


def _store(src_dir, dst_dir):
    """src_dir's files into a fresh dst_dir, each JSON stripped by read_json."""
    shutil.rmtree(dst_dir, ignore_errors=True)
    os.makedirs(dst_dir)
    for name in sorted(os.listdir(src_dir)):
        src, dst = os.path.join(src_dir, name), os.path.join(dst_dir, name)
        if name.endswith(".json"):
            with open(dst, "w") as fh:
                fh.write(json.dumps(read_json(src), indent=2) + "\n")
        else:
            shutil.copyfile(src, dst)


def main():
    lines = criterion_lines()
    with tempfile.TemporaryDirectory() as tmp:
        run_all_checks.main(["--out", os.path.join(tmp, "battery")])
        run_cli(os.path.join(tmp, "cli"))
        for sub in ("battery", "cli"):
            _store(os.path.join(tmp, sub), os.path.join(GOLDEN, sub))
    with open(os.path.join(GOLDEN, "criteria.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(GOLDEN, "platform.json"), "w") as fh:
        fh.write(json.dumps(platform(), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
