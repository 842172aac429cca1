"""tools/bench.py --compare on two synthetic BENCH files: which cases it flags."""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "tools" / "bench.py"


def _spread(m):
    return {"median": m[0], "q1": m[1], "q3": m[2], "runs": list(m)}


def _bench(workloads: dict, floor: float, commands: dict) -> dict:
    """A BENCH file: workload -> metric -> (median, q1, q3); command -> its
    (median, q1, q3) above the floor."""
    return {
        "workloads": {w: {"end_to_end": {name: {"unit": "x", **_spread(m)}
                                         for name, m in metrics.items()}}
                      for w, metrics in workloads.items()},
        "fresh_process": {"unit": "ms", "floor": _spread((floor, floor - 1, floor + 1)),
                          "commands": {name: {**_spread([floor + x for x in m]),
                                              "above_floor": _spread(m)}
                                       for name, m in commands.items()}},
    }


OLD = _bench({"tapeout": {"wall_ref": (10, 9.5, 10.5), "ops_ok_ratio": (1, 1, 1),
                          "setup_s": (0.1, 0.09, 0.11)},
              "wafer": {"wall_ref": (10, 8, 14)}},
             floor=50, commands={"disperse": (10, 9, 11), "--help": (5, 4, 6)})
NEW = _bench({"tapeout": {"wall_ref": (13, 12.5, 13.5),  # 30 % worse, ranges apart
                          "ops_ok_ratio": (0.7, 0.7, 0.7),  # higher is better: 30 % worse
                          "setup_s": (0.11, 0.1, 0.12)},  # 10 % worse
              "wafer": {"wall_ref": (13, 11, 15)},  # 30 % worse, ranges overlap
              "fit-batch": {"wall_ref": (70, 69, 71)}},  # in one file only
             # the floor rose 10 ms; disperse is 15 ms above it against 10
             floor=60, commands={"disperse": (15, 14, 16), "--help": (4, 3, 5)})


def _compare(tmp_path, old, new):
    for name, doc in (("old.json", old), ("new.json", new)):
        (tmp_path / name).write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, str(BENCH), "--compare", str(tmp_path / "old.json"),
                           str(tmp_path / "new.json")], capture_output=True, text=True, timeout=60)
    flagged = {line.split(":")[0][len("WORSE"):].strip()
               for line in proc.stdout.splitlines() if line.startswith("WORSE")}
    return proc.returncode, flagged, proc.stdout


def test_compare_flags_only_cases_worse_by_a_fifth_with_ranges_apart(tmp_path):
    code, flagged, out = _compare(tmp_path, OLD, NEW)
    assert (code, flagged) == (1, {"tapeout wall_ref", "tapeout ops_ok_ratio",
                                   "command disperse above floor"}), out
    assert "fit-batch wall_ref: in one file only" in out


def test_compare_of_a_file_with_itself_flags_nothing(tmp_path):
    code, flagged, out = _compare(tmp_path, NEW, NEW)
    assert (code, flagged) == (0, set()), out
