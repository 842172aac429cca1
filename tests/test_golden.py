"""Golden outputs: the sha256 of stdout and of every output file of seeded
fresh-process runs must match ``tests/golden/outputs.json``.

Each command runs with its working directory in a temp dir and a relative
``--out``, so stdout that names paths hashes the same on every run.  A change
that alters output bytes on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and reports the largest relative difference of the changed values.
"""

import hashlib
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from test_cli import ideal_standards, output_digests, run_cli, three_branch_osl_files, write_dut

GOLDEN = Path(__file__).resolve().parent / "golden" / "outputs.json"


def versions():
    return {"python": platform.python_version(), "numpy": np.__version__}


def golden_runs(work):
    """Run every golden command in work (the current directory) and return
    {run: {"stdout": sha256, "files": {name: sha256}}}."""
    small, three = work / "small", work / "three"  # both write short.s1p, open.s1p, ...
    small.mkdir()
    three.mkdir()
    dut, f = write_dut(small)
    short, open_std, load = ideal_standards(small, f)
    runs = {
        "disperse": ["disperse"],
        "design": ["design"],
        "layout": ["layout", "--wafer-map"],
        "flow-check-aln": ["flow-check", "alscn-aln-adhesion"],
        "flow-check-ti": ["flow-check", "alscn-ti-adhesion"],
        "simulate-wafer": ["simulate-wafer", "--seed", "7"],
        "stats": ["stats", os.path.join("simulate-wafer", "sites.json"),
                  "--heatmap", "S0:2e-06"],
        "simulate-wafer-resolve": ["simulate-wafer", "--full-resolve", "--pitches", "2e-06",
                                   "--seed", "7"],
        "fit-osl": ["fit", dut, "--cal-short", short, "--cal-open", open_std, "--cal-load", load,
                    "--branches", "1"],
        "fit-three-branch": ["fit", *three_branch_osl_files(three), "--branches", "3"],
    }
    digests = {}
    for name, argv in runs.items():
        argv = [os.path.relpath(a, work) if os.path.isabs(a) else a for a in argv]
        proc = run_cli(*argv, "--out", name)
        assert proc.returncode == 0, (name, proc.stderr)
        digests[name] = {"stdout": hashlib.sha256(proc.stdout.encode()).hexdigest(),
                         "files": output_digests(work / name) if (work / name).exists() else {}}
    return digests


def test_outputs_match_the_golden_hashes(tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text())
    made_with = {key: golden[key] for key in versions()}
    assert made_with == versions(), (
        f"golden hashes were made with Python {made_with['python']} and numpy "
        f"{made_with['numpy']}, this is Python {versions()['python']} and numpy "
        f"{versions()['numpy']}: regenerate them with tests/test_golden.py")
    monkeypatch.chdir(tmp_path)
    runs = golden_runs(tmp_path)
    assert runs.keys() == golden["runs"].keys()
    for name, digests in runs.items():
        assert digests == golden["runs"][name], name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        doc = {**versions(), "runs": golden_runs(Path(work))}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
