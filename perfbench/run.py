#!/usr/bin/env python3
"""lambkit benchmark: whole CLI commands as a user runs them, plus a traced run.

    python3 perfbench/run.py --workload tapeout --seed 1 --seconds 25 --trace 0

Run from the repository root; the program is taken from ``src/`` next to this
directory.  ``--trace 0`` runs the workload's command sequence as fresh
``python -m lambkit.cli`` processes, one after another (one client, closed
loop), at least twice and for about ``--seconds`` seconds, and reports the
end-to-end metrics.
``--trace 1`` runs the sequence once as processes (for CPU time), then three
times in process through ``lambkit.cli.main(argv)``, the middle time with
every layer wrapped by ``tracer.py``, and reports the per-layer metrics.
Either way the outputs are checked, and the last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

See README.md in this directory for why each workload exists and which
end-to-end metric each layer metric should move.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import json.decoder
import marshal
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from workloads import WORKLOADS, CheckResult

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_SAMPLES = 3
MIN_PASSES = 2  # the second pass must reproduce the first byte for byte
REFERENCE_BURST = 5  # reference() runs timed between two commands
COMMAND_TIMEOUT_S = 150.0
IMPORTS = {"numpy": "numpy", "scipy.optimize": "scipy_optimize",
           "scipy.interpolate": "scipy_interpolate", "scipy.ndimage": "scipy_ndimage",
           "jsonschema": "jsonschema"}

# name -> (unit, better, bound); the same table is written to BENCHMARK.json
END_TO_END = {
    "wall_ref": ("ref", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "ops_ok_ratio": ("ratio", "higher", 0.1),
}


def _layer(names, unit, better="lower"):
    return {n: (unit, better) for n in names.split()}


PER_LAYER = {
    **_layer("cli.main.s cli.main.self_s cli.import.total_s cli.import.numpy_s "
             "cli.import.scipy_optimize_s cli.import.scipy_interpolate_s "
             "cli.import.scipy_ndimage_s cli.import.jsonschema_s cli.cpu_s cli.wall_s", "s"),
    **_layer("cli.reference_ms", "ms"),
    **_layer("config.load_config.calls", "count"),
    **_layer("config.load_config.s", "s"),
    **_layer("dispersion.solve_mode.calls", "count"),
    **_layer("dispersion.solve_mode.s dispersion.solve_mode.self_s", "s"),
    **_layer("dispersion.solve_mode.k_points dispersion.solve_mode.k_solved", "count", "higher"),
    **_layer("dispersion.solve_mode.gaps dispersion.pitch_to_frequency.calls", "count"),
    **_layer("dispersion.pitch_to_frequency.s dispersion.pitch_to_frequency.self_s", "s"),
    **_layer("dispersion.pitch_to_frequency.p50_ms dispersion.pitch_to_frequency.p90_ms", "ms"),
    **_layer("dispersion.sensitivity.calls", "count"),
    **_layer("dispersion.sensitivity.s", "s"),
    **_layer("dispersion.solve_at_k.calls", "count"),
    **_layer("dispersion.solve_at_k.s dispersion.solve_at_k.self_s", "s"),
    **_layer("dispersion.residual.evals", "count"),
    **_layer("dispersion.ms_per_k_point", "ms"),
    **_layer("dispersion.max_rel_err", "ratio"),
    **_layer("design.match_finger_count.calls", "count"),
    **_layer("design.match_finger_count.s design.match_finger_count.self_s", "s"),
    **_layer("layout.gen_chip.s layout.build_reticle.s layout.gen_wafer_map.s", "s"),
    **_layer("layout.polygons", "count", "higher"),
    **_layer("gdsii.write_gdsii.calls", "count"),
    **_layer("gdsii.write_gdsii.s", "s"),
    **_layer("gdsii.write_gdsii.bytes", "bytes"),
    **_layer("gdsii.read_gdsii.calls", "count"),
    **_layer("gdsii.read_gdsii.s", "s"),
    **_layer("gdsii.read_gdsii.bytes", "bytes"),
    **_layer("processflow.check_flow.calls", "count"),
    **_layer("processflow.check_flow.s", "s"),
    **_layer("processflow.simulate_stack.calls", "count"),
    **_layer("waferstats.simulate_wafer.s waferstats.simulate_wafer.self_s", "s"),
    **_layer("waferstats.simulate_wafer.sites", "count", "higher"),
    **_layer("waferstats.simulate_wafer.failed_modes", "count"),
    **_layer("waferstats.per_mode_deviation.s waferstats.metrics_vs_frequency.s "
             "waferstats.sites_to_dict.s waferstats.sites_from_dict.s", "s"),
    **_layer("touchstone.parse_touchstone.calls", "count"),
    **_layer("touchstone.parse_touchstone.s", "s"),
    **_layer("touchstone.parse_touchstone.bytes", "bytes"),
    **_layer("calibration.calibrate_file.calls", "count"),
    **_layer("calibration.calibrate_file.s", "s"),
    **_layer("calibration.calibrate_file.p50_ms", "ms"),
    **_layer("calibration.us_per_point", "us"),
    **_layer("calibration.apply_correction.calls", "count"),
    **_layer("mbvd.fit_mbvd.calls", "count"),
    **_layer("mbvd.fit_mbvd.s", "s"),
    **_layer("mbvd.fit_mbvd.p50_ms mbvd.fit_mbvd.p90_ms", "ms"),
    **_layer("mbvd.fit_mbvd.nfev mbvd.fit_mbvd.failed", "count"),
    **_layer("mbvd.fit_in_bounds_ratio", "ratio", "higher"),
    **_layer("trace.overhead_ratio", "ratio"),
}


class BenchError(Exception):
    """The benchmark cannot run here (not a failed operation)."""


# ---------------------------------------------------------------------------
# Running commands


@dataclass
class Outcome:
    """What one command did: exit code, wall time, resources, stdout."""

    rc: object  # int, or a description of the crash for in-process runs
    wall_s: float
    stdout: str
    maxrss_kb: int = 0
    cpu_s: float = 0.0
    reference_s: float = 0.0  # the reference's time around the command

    @property
    def wall_ref(self) -> float:
        """Wall time in units of the reference computation timed around it."""
        return self.wall_s / self.reference_s


def child_env(run_dir: str) -> dict:
    """Interpreter settings cleared, program from src/, and a per-run HOME,
    cache and temp directory so no on-disk state carries between runs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = SRC
    for var, sub in (("HOME", "home"), ("XDG_CACHE_HOME", "cache"), ("TMPDIR", "tmp")):
        env[var] = os.path.join(run_dir, sub)
        os.makedirs(env[var], exist_ok=True)
    return env


def spawn(args: list, env: dict, log_stem: str) -> Outcome:
    """Run one fresh interpreter to completion and reap it with wait4, which
    returns that child's own resource usage."""
    with open(log_stem + ".out", "wb") as out, open(log_stem + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=env, stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL, cwd=ROOT)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    # wait4 reaped the child; record its status so Popen never waits again
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_stem + ".out", encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    return Outcome(proc.returncode, wall, stdout, usage.ru_maxrss,
                   usage.ru_utime + usage.ru_stime)


def cli(argv: list, env: dict, log_stem: str) -> Outcome:
    return spawn(["-m", "lambkit.cli", *argv], env, log_stem)


# Module bodies that reference() runs, compiled once as an import finds them.
REFERENCE_CODE = [marshal.dumps(compile(inspect.getsource(m), m.__file__, "exec"))
                  for m in (argparse, dataclasses, json.decoder)]


def reference() -> float:
    """Seconds for one fixed piece of work, about 20 ms, that runs no lambkit
    code but does what a command does: start an interpreter, unmarshal and
    run module bodies, call numpy on small arrays and loop in Python."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True)
    for blob in REFERENCE_CODE:
        exec(marshal.loads(blob), {"__name__": "reference"})
    x = np.linspace(0.0, 1.0, 64)
    for _ in range(400):
        x = np.sin(x) * 0.5 + 0.1
    acc = 0
    for i in range(50_000):
        acc += i * i
    return time.perf_counter() - start


def run_pass_processes(workload, ctx, run_dir, env, index):
    pass_dir = os.path.join(run_dir, f"pass{index}")
    cmds = workload.commands(ctx, pass_dir)
    os.makedirs(pass_dir)
    # The machine is shared and its speed drifts, by up to a half, over
    # seconds to minutes.  The reference is timed before each command and
    # after the last, with the other core idle as it is while a command
    # runs; a command's wall time over the mean of the two medians around it
    # cancels most of that drift.
    before = statistics.median(reference() for _ in range(REFERENCE_BURST))
    outcomes = []
    for i, cmd in enumerate(cmds):
        outcome = cli(cmd.argv, env, os.path.join(pass_dir, f"{i}.log"))
        after = statistics.median(reference() for _ in range(REFERENCE_BURST))
        outcome.reference_s = (before + after) / 2.0
        outcomes.append(outcome)
        before = after
    return cmds, outcomes, sum(o.wall_s for o in outcomes)


def run_pass_in_process(workload, ctx, run_dir, index):
    """Each command through ``lambkit.cli.main`` in this interpreter.  The
    entry point is looked up at call time so a traced wrapper is used."""
    pass_dir = os.path.join(run_dir, f"pass{index}")
    cmds = workload.commands(ctx, pass_dir)
    os.makedirs(pass_dir)
    module = sys.modules["lambkit.cli"]
    outcomes = []
    total = 0.0
    for cmd in cmds:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                rc = module.main(list(cmd.argv))
            except Exception as exc:  # a crash is a failed operation, not the end
                rc = f"crash: {exc!r}"
            wall = time.perf_counter() - start
        total += wall
        outcomes.append(Outcome(rc, wall, buf.getvalue()))
    return cmds, outcomes, total


# ---------------------------------------------------------------------------
# Operations: exit code, outputs present, byte-identical, checked


def digest(cmd, outcome) -> str:
    """sha256 over every file the command wrote, plus stdout for commands
    whose verdict is their output."""
    h = hashlib.sha256()
    if os.path.isdir(cmd.out):
        for name in sorted(os.listdir(cmd.out)):
            h.update(name.encode() + b"\0")
            with open(os.path.join(cmd.out, name), "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    if cmd.stdout_is_output:
        h.update(outcome.stdout.encode())
    return h.hexdigest()


def evaluate(workload, ctx, passes, log):
    """Count operations and failures.

    An operation is one command of the sequence, or one fitted trace, however
    many passes repeat it: pass 0 is checked against the references, and
    every later pass must reproduce its bytes.  A command
    fails once, whichever of its runs went wrong, so the counts depend on the
    workload and the seed, not on how many passes fit into the run.  Returns
    (attempted, failed, failed commands, check stats).  A fitted trace that
    misses its accuracy bounds is a failed operation but not a failed
    command: it is a measured quality rate of the fitter, not a broken
    output."""
    ref_cmds, ref_outcomes = passes[0][0], passes[0][1]
    ref_digests = {c.name: digest(c, o) for c, o in zip(ref_cmds, ref_outcomes)}
    try:
        check = workload.check(ctx, ref_cmds, [o.stdout for o in ref_outcomes])
    except Exception as exc:  # output the check cannot even read is wrong output
        check = CheckResult({i: f"output unreadable: {exc!r}" for i in range(len(ref_cmds))})
    reasons = {c.name: [] for c in ref_cmds}
    for i, why in check.command_errors.items():
        reasons[ref_cmds[i].name].append(why)
    for cmds, outcomes, _ in passes:
        for cmd, outcome in zip(cmds, outcomes):
            why = reasons[cmd.name]
            if outcome.rc != 0:  # every command of every workload succeeds today
                why.append(f"exit {outcome.rc}")
            missing = [f for f in cmd.outputs if not os.path.exists(os.path.join(cmd.out, f))]
            if missing:
                why.append(f"missing {', '.join(missing[:3])}")
            if digest(cmd, outcome) != ref_digests[cmd.name]:
                why.append("output bytes differ from the first pass")
    commands_failed = 0
    for name, why in reasons.items():
        if why:
            commands_failed += 1
            log(f"failed {name}: {'; '.join(dict.fromkeys(why))}")
    if check.sub_failed:
        log(f"{check.sub_failed} of {check.sub_ops} fitted traces "
            f"missed the criterion-1 bounds")
    attempted = len(ref_cmds) + check.sub_ops
    return attempted, commands_failed + check.sub_failed, commands_failed, check.stats


# ---------------------------------------------------------------------------
# The two modes


def warm_up_and_setup(env, run_dir, samples):
    """One untimed ``--help`` compiles the bytecode the way an installed
    package has it; the timed ones are the start-up every command pays."""
    times, ops, bad = [], 0, 0
    for i in range(samples + 1):
        outcome = cli(["--help"], env, os.path.join(run_dir, f"help{i}"))
        ops += 1
        bad += outcome.rc != 0 or "usage:" not in outcome.stdout
        if i:
            times.append(outcome.wall_s)
    return times, ops, bad


def end_to_end(workload, ctx, seconds, run_dir, env, log):
    setup, attempted, help_failed = warm_up_and_setup(env, run_dir, SETUP_SAMPLES)
    passes = []
    start = time.perf_counter()
    # No pass starts that would, at the last pass's pace, end after --seconds.
    while len(passes) < MIN_PASSES or (
            time.perf_counter() - start + passes[-1][2] <= seconds):
        passes.append(run_pass_processes(workload, ctx, run_dir, env, len(passes)))
    ops, failed, commands_failed, _ = evaluate(workload, ctx, passes, log)
    rss = max(o.maxrss_kb for p in passes for o in p[1])
    attempted += ops
    failed += help_failed
    log(f"{len(passes)} passes: " + ", ".join(f"{p[2]:.3f}" for p in passes)
        + " s wall; reference median "
        + f"{1e3 * statistics.median(o.reference_s for p in passes for o in p[1]):.1f} ms")
    # Per command, the median over passes of its wall time in reference
    # units; the sequence's figure is their sum.
    by_command = zip(*([o.wall_ref for o in p[1]] for p in passes))
    metrics = {
        "wall_ref": sum(statistics.median(c) for c in by_command),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss / 1024.0,
        "ops_ok_ratio": 1.0 - failed / attempted,
    }
    return attempted, failed, help_failed == 0 and commands_failed == 0, metrics


def import_times(env, run_dir) -> dict:
    """Cumulative import times from ``python -X importtime``."""
    outcome = spawn(["-X", "importtime", "-c", "import lambkit.cli"], env,
                    os.path.join(run_dir, "importtime"))
    if outcome.rc != 0:
        raise BenchError("import lambkit.cli failed")
    cumulative = {}
    with open(os.path.join(run_dir, "importtime.err")) as fh:
        for line in fh:
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)", line)
            if m:
                cumulative[m.group(2)] = max(cumulative.get(m.group(2), 0), int(m.group(1)))
    out = {"cli.import.total_s": cumulative.get("lambkit.cli", 0) * 1e-6}
    for module, key in IMPORTS.items():
        out[f"cli.import.{key}_s"] = cumulative.get(module, 0) * 1e-6
    return out


def traced(workload, ctx, run_dir, env, log):
    import tracer

    _, attempted, help_failed = warm_up_and_setup(env, run_dir, 0)
    metrics = import_times(env, run_dir)
    process_pass = run_pass_processes(workload, ctx, run_dir, env, 0)
    metrics["cli.cpu_s"] = sum(o.cpu_s for o in process_pass[1])
    metrics["cli.wall_s"] = process_pass[2]
    metrics["cli.reference_ms"] = 1e3 * statistics.median(
        o.reference_s for o in process_pass[1])

    for var in ("HOME", "XDG_CACHE_HOME", "TMPDIR"):
        os.environ[var] = env[var]
    import lambkit.cli  # noqa: F401  (the module main() is looked up in)

    # Untraced, traced, untraced: the traced pass is compared with the mean
    # of the passes around it, so first-call costs and slow drift of the
    # machine cancel instead of landing on one side.
    before = run_pass_in_process(workload, ctx, run_dir, 1)
    rec = tracer.Recorder()
    pairs = tracer.instrument(rec)
    try:
        traced_pass = run_pass_in_process(workload, ctx, run_dir, 2)
    finally:
        tracer.restore(pairs)
    after = run_pass_in_process(workload, ctx, run_dir, 3)

    ops, failed, commands_failed, stats = evaluate(
        workload, ctx, [process_pass, before, traced_pass, after], log)
    layers = tracer.layer_metrics(rec)
    layers.update(stats)
    layers["trace.overhead_ratio"] = 2.0 * traced_pass[2] / (before[2] + after[2])
    metrics.update({k: v for k, v in layers.items() if k in PER_LAYER})
    for name in PER_LAYER:
        metrics.setdefault(name, 0)
    with open(os.path.join(WORK, f"trace-{workload.name}.json"), "w") as fh:
        json.dump({"spans": rec.dump(), "counts": rec.counts}, fh)
    correct = help_failed == 0 and commands_failed == 0
    return attempted + ops, failed + help_failed, correct, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so children are killed and reaped
    # and the run directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    def log(message):
        print(f"[{args.workload}] {message}", file=sys.stderr)

    if not os.path.isfile(os.path.join(SRC, "lambkit", "cli.py")):
        log(f"no lambkit sources under {SRC}")
        return 2
    sys.path.insert(0, SRC)  # the checks and the traced run import lambkit
    workload = WORKLOADS[args.workload]
    run_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(os.path.join(run_dir, "inputs"))
    try:
        env = child_env(run_dir)
        ctx = workload.prepare(args.seed, os.path.join(run_dir, "inputs"))
        if args.trace:
            attempted, failed, correct, values = traced(workload, ctx, run_dir, env, log)
            table = PER_LAYER
        else:
            attempted, failed, correct, values = end_to_end(
                workload, ctx, args.seconds, run_dir, env, log)
            table = END_TO_END
    except BenchError as exc:
        log(str(exc))
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    metrics = {}
    for name, spec in table.items():
        metrics[name] = {"value": values[name], "unit": spec[0]}
        print(f"{args.workload} {name} = {values[name]:.6g} {spec[0]}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
