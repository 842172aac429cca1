#!/usr/bin/env python3
"""Measure lambkit where it runs and write BENCH_<n>.json; compare two such files.

    python3 tools/bench.py                           # writes the next free BENCH_<n>.json
    python3 tools/bench.py --compare BENCH_0.json    # the same, then compares with BENCH_0
    python3 tools/bench.py --compare OLD.json NEW.json   # compares two files, measures nothing

Run it from anywhere; it measures the sources of the checkout it sits in.
A full run takes about ten minutes and needs numpy only inside the
benchmark it runs.  It measures two things:

* each workload of BENCHMARK.json through perfbench/run.py, unchanged: three
  fixed seeds at ``--seconds 25 --trace 0`` for the end-to-end metrics, and one
  ``--trace 1`` run for the per-layer figures.  Every per-layer figure that
  reads 0 is listed under the workload's ``known_unreached``, whether the
  workload does not reach that layer or the tracer misses work it does;
* fresh ``python -m lambkit.cli`` processes, in the environment perfbench
  gives its commands (every PYTHON* variable stripped, ``.pyc`` files
  present): the interpreter floor ``python3 -c pass`` 21 times and twelve
  commands 15 times each, in rounds whose order rotates.  What a command
  costs is its time less the floor's in the same round, with the median and
  quartiles of those 15 differences: on a shared machine the floor jumps
  between about 40 and 60 ms from one few-second phase to the next.

Each metric is kept as its runs, their median and quartiles.  ``--compare``
prints every end-to-end case and every command with the ratio of the
medians, and flags a case only when its median is more than 20 % worse and
its interquartile range does not overlap the other file's: on a shared
2-core VM ``setup_s`` and ``fit-batch`` ``wall_ref`` spread about as wide as
their bounds, so a median alone would flag noise.  It exits 1 when it flags
a case.  Per-layer figures come from one traced run each and are not
compared.
"""

import argparse
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SEEDS = (1, 2, 3)
SECONDS = 25
FLOOR_RUNS = 21
COMMAND_RUNS = 15
WORSE = 0.20
# The commands timed as fresh processes.  SITES is the sites.json that
# `simulate-wafer --seed 7` writes before the timing starts, and V_T_3267 a
# config whose material is the packaged one with v_t 1 m/s higher: its
# dispersion nodes are walked, not read off the packaged table.
V_T_3267 = {"material": {"v_t_m_s": 3267.0}}
COMMANDS = {
    "--help": ["--help"],
    "flow-check": ["flow-check", "alscn-ti-adhesion"],
    "design --pitches 2e-6": ["design", "--pitches", "2e-6"],
    "stats": ["stats", "SITES"],
    "disperse": ["disperse"],
    "simulate-wafer --full-resolve --pitches 2e-6":
        ["simulate-wafer", "--full-resolve", "--pitches", "2e-6"],
    "layout --wafer-map": ["layout", "--wafer-map"],
    "simulate-wafer --seed 7": ["simulate-wafer", "--seed", "7"],
    "design --pitches 2e-6 (v_t 3267)": ["design", "--pitches", "2e-6", "--config", "V_T_3267"],
    "disperse (v_t 3267)": ["disperse", "--config", "V_T_3267"],
    "simulate-wafer --seed 7 (v_t 3267)": ["simulate-wafer", "--seed", "7", "--config", "V_T_3267"],
    "simulate-wafer --full-resolve --pitches 2e-6 (v_t 3267)":
        ["simulate-wafer", "--full-resolve", "--pitches", "2e-6", "--config", "V_T_3267"],
}


def spread(values) -> dict:
    """Median and quartiles of values, with the values themselves."""
    values = list(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def source_digest() -> str:
    """sha256 over the files under src/ and perfbench/: what was measured,
    committed or not."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted(glob.glob(os.path.join(ROOT, top, "**", "*"), recursive=True)):
            if os.path.isfile(path) and "__pycache__" not in path:
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def git(*args) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip()


def stripped_env(scratch: str) -> dict:
    """perfbench's child environment: no PYTHON* variable but PYTHONPATH, and
    a HOME, cache and temp directory of the run's own."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = SRC
    for var, sub in (("HOME", "home"), ("XDG_CACHE_HOME", "cache"), ("TMPDIR", "tmp")):
        env[var] = os.path.join(scratch, sub)
        os.makedirs(env[var], exist_ok=True)
    return env


def run_workload(workload: str, seed: int, trace: int) -> dict:
    """One perfbench run; its closing JSON line, or the error it ended with."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    return json.loads(lines[-1])


def measure_workload(workload: str, log) -> dict:
    runs = []
    for seed in SEEDS:
        log(f"{workload} seed {seed}")
        runs.append(run_workload(workload, seed, 0))
    log(f"{workload} traced")
    traced = run_workload(workload, SEEDS[0], 1)
    good = [r for r in runs if "error" not in r]
    names = good[0]["metrics"] if good else {}
    result = {
        "seeds": list(SEEDS),
        "errors": [r["error"] for r in runs + [traced] if "error" in r],
        "correct": [r.get("correct") for r in runs],
        "end_to_end": {name: {"unit": names[name]["unit"],
                              **spread(r["metrics"][name]["value"] for r in good)}
                       for name in names},
        "per_layer": {},
        "known_unreached": [],
    }
    if "error" not in traced:
        result["per_layer"] = traced["metrics"]
        result["known_unreached"] = sorted(
            name for name, m in traced["metrics"].items() if m["value"] == 0)
    return result


def time_commands(log) -> dict:
    """Fresh-process wall times in ms: the floor and each of COMMANDS, in
    rounds whose order rotates.  A command's time above the floor is taken
    round by round, against the floor run of its own round."""
    with tempfile.TemporaryDirectory(prefix="lambkit-bench-") as scratch:
        env = stripped_env(scratch)
        out = os.path.join(scratch, "out")
        sites_dir = os.path.join(scratch, "sites")
        files = {"SITES": os.path.join(sites_dir, "sites.json"),
                 "V_T_3267": os.path.join(scratch, "v_t_3267.json")}
        with open(files["V_T_3267"], "w") as fh:
            json.dump(V_T_3267, fh)
        cases = {"floor": ["-c", "pass"]}
        for name, argv in COMMANDS.items():
            argv = [files.get(a, a) for a in argv]
            tail = [] if argv == ["--help"] else ["--out", out, "--quiet"]
            cases[name] = ["-m", "lambkit.cli", *argv, *tail]
        # writes the sites.json that stats reads, and every .pyc the commands load
        subprocess.run([sys.executable, "-m", "lambkit.cli", "simulate-wafer", "--seed", "7",
                        "--out", sites_dir, "--quiet"], env=env, check=True, cwd=scratch)
        for args in cases.values():
            subprocess.run([sys.executable, *args], env=env, cwd=scratch, check=True,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        rounds = []  # each round: case -> ms
        names = list(cases)
        for i in range(FLOOR_RUNS):
            log(f"command round {i + 1}")
            ms = {}
            for name in names[i % len(names):] + names[:i % len(names)]:
                if i < COMMAND_RUNS or name == "floor":
                    start = time.perf_counter()
                    subprocess.run([sys.executable, *cases[name]], env=env, cwd=scratch,
                                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
                    ms[name] = 1e3 * (time.perf_counter() - start)
            rounds.append(ms)
    floor = spread(r["floor"] for r in rounds)
    paired = rounds[:COMMAND_RUNS]
    commands = {name: {**spread(r[name] for r in paired),
                       "above_floor": spread(r[name] - r["floor"] for r in paired)}
                for name in COMMANDS}
    return {"unit": "ms", "floor": floor, "commands": commands}


def measure(log) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    result = {
        "head": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--", "src", "perfbench")),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy,
        "cores": os.cpu_count(),
        "loadavg_start": loadavg(),
        "settings": {"seeds": list(SEEDS), "seconds": SECONDS, "floor_runs": FLOOR_RUNS,
                     "command_runs": COMMAND_RUNS},
    }
    result["workloads"] = {w: measure_workload(w, log) for w in workloads}
    result["fresh_process"] = time_commands(log)
    result["loadavg_end"] = loadavg()
    return result


def cases(bench: dict) -> dict:
    """name -> (median, q1, q3, which way is better) of every compared case."""
    out = {}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    for workload, result in bench.get("workloads", {}).items():
        for name, m in result.get("end_to_end", {}).items():
            out[f"{workload} {name}"] = (m["median"], m["q1"], m["q3"], better.get(name, "lower"))
    for name, m in bench.get("fresh_process", {}).get("commands", {}).items():
        above = m["above_floor"]
        out[f"command {name} above floor"] = (above["median"], above["q1"], above["q3"], "lower")
    return out


def compare(old: dict, new: dict):
    """Report lines for the cases both files hold, and the names of the flagged
    ones: more than 20 % worse in the median, and interquartile ranges apart."""
    old_cases, new_cases = cases(old), cases(new)
    lines, flagged = [], []
    for name in sorted(old_cases.keys() & new_cases.keys()):
        (m0, lo0, hi0, better), (m1, lo1, hi1, _) = old_cases[name], new_cases[name]
        ratio = m1 / m0 if m0 else float("inf") if m1 else 1.0
        # a time above the floor can be near or below 0, hence abs(m0)
        if better == "lower":
            worse = m1 - m0 > WORSE * abs(m0) and lo1 > hi0
        else:
            worse = m0 - m1 > WORSE * abs(m0) and hi1 < lo0
        if worse:
            flagged.append(name)
        lines.append(f"{'WORSE' if worse else 'ok':5}  {name}: {m0:.4g} -> {m1:.4g}"
                     f" (x{ratio:.3f}; IQR {lo0:.4g}..{hi0:.4g} -> {lo1:.4g}..{hi1:.4g})")
    for name in sorted(old_cases.keys() ^ new_cases.keys()):
        lines.append(f"{'':5}  {name}: in one file only")
    return lines, flagged


def next_path() -> str:
    n = 0
    while os.path.exists(os.path.join(ROOT, f"BENCH_{n}.json")):
        n += 1
    return os.path.join(ROOT, f"BENCH_{n}.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="file to write (default: the next free BENCH_<n>.json)")
    parser.add_argument("--compare", nargs="+", metavar="FILE",
                        help="OLD.json, to compare a new measurement with; "
                             "OLD.json NEW.json, to compare two files only")
    args = parser.parse_args(argv)
    if args.compare and len(args.compare) > 2:
        parser.error("--compare takes OLD.json and at most one NEW.json")

    def load(path):
        with open(path) as fh:
            return json.load(fh)

    old = load(args.compare[0]) if args.compare else None  # a bad file fails before a run
    if args.compare and len(args.compare) == 2:
        new = load(args.compare[1])
    else:
        new = measure(lambda message: print(f"[bench] {message}", file=sys.stderr, flush=True))
        path = args.out or next_path()
        with open(path, "w") as fh:
            json.dump(new, fh, indent=1)
            fh.write("\n")
        print(f"wrote {path}")
    if old is None:
        return 0
    lines, flagged = compare(old, new)
    print("\n".join(lines))
    print(f"{len(flagged)} case(s) more than {WORSE:.0%} worse with interquartile ranges apart"
          + (": " + ", ".join(flagged) if flagged else ""))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
