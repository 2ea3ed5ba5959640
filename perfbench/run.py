"""qamd_ray benchmark: one workload, one measured run, one JSON result line.

    python3 perfbench/run.py --workload code_uniform --seed 1 --seconds 10 --trace 0

Run from the repository root.  Workloads: ``code_uniform``,
``code_skew_resume``, ``stat_healthcheck`` (see perfbench/README.md).

The inputs are generated from ``--seed`` (cached per seed, never timed).
The measured run happens in a child process (``perfbench/session.py``)
on a Ray session of ``nproc`` CPUs, driven by one closed loop.  This
process enforces the run's wall-time limit: on an overrun it kills the
child with every process the child started, and reports the operation in
flight as failed, with the metrics measured up to then.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`` —
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  The lines before it list every metric with its unit and
sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.getcwd())

WORKLOADS = ("code_uniform", "code_skew_resume", "stat_healthcheck")
# the whole command must end within this many seconds once inputs exist
COMMAND_LIMIT_S = 170.0
CLEANUP_RESERVE_S = 10.0
# set-up, final check and one overrunning iteration, beyond --seconds
RUN_ALLOWANCE_S = 90.0

def _pgroup_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes of process group ``pgid``."""
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if fields[0] != "Z" and int(fields[2]) == pgid:
            out.append(int(name))
    return out


def stop_group(pgid: int, timeout: float) -> None:
    """SIGKILL every process left in the child's process group (Ray's
    daemons and workers stay in it) and wait until all have ended."""
    deadline = time.monotonic() + timeout
    while True:
        members = _pgroup_members(pgid)
        if not members:
            return
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            print(f"processes {members} did not exit", file=sys.stderr)
            return
        time.sleep(0.1)


def run_session(args, inputs: str, records: str, log_path: str, limit_s: float) -> bool:
    """Run session.py; → False when it had to be killed."""
    env = dict(os.environ, RAY_USAGE_STATS_ENABLED="0", PYTHONPATH=os.getcwd())
    cmd = [
        sys.executable, os.path.join("perfbench", "session.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--inputs", inputs, "--records", records,
    ]
    with open(log_path, "w") as log:
        child = subprocess.Popen(
            cmd, stdout=log, stderr=subprocess.STDOUT, env=env, start_new_session=True
        )
        try:
            child.wait(timeout=limit_s)
            finished = True
        except subprocess.TimeoutExpired:
            finished = False
        stop_group(child.pid, CLEANUP_RESERVE_S / 2)
        child.wait()
    # Ray's session files of this run (session.run_dir), once its
    # processes have stopped
    shutil.rmtree(os.path.join(".bench_ray", str(child.pid)), ignore_errors=True)
    return finished


def _median(xs: list[float]):
    return statistics.median(xs) if xs else None


def summarize(events: list[dict], trace: bool, finished: bool,
              layer_units: dict[str, str]) -> tuple[dict, dict, list[str]]:
    """→ (counts, metrics, human-readable lines) from the session's events;
    ``layer_units`` maps each per-layer metric to its unit."""
    ops = [e for e in events if e["t"] == "op"]
    started = sum(1 for e in events if e["t"] == "start")
    errors = sum(1 for e in events if e["t"] == "error")
    # an op that started and never finished overran (killed) or crashed
    failed = sum(1 for e in ops if not e["ok"]) + (started - len(ops)) + errors
    if not any(e["t"] == "end" for e in events) and started == len(ops):
        failed += 1  # died or was killed between operations
    attempted = max(started + errors, failed, 1)
    counts = {"attempted": attempted, "failed": failed}

    def times(name: str) -> list[float]:
        return [e["s"] for e in ops if e["op"] == name and e["ok"]]

    work = next((e for e in events if e["t"] == "work"), {})
    setups = [e for e in ops if e["op"] == "setup" and e["ok"]]
    job_s = _median(times("job"))
    values: dict[str, tuple] = {}  # name → (value, unit, samples)
    values["setup_s"] = (_median([e["s"] for e in setups]), "s", len(setups))
    values["job_s"] = (job_s, "s", len(times("job")))
    if job_s:
        values["rows_per_s"] = (work["rows"] / job_s, "1/s", len(times("job")))
    rss = [e["mb"] for e in events if e["t"] == "rss"]
    if rss:
        values["driver_peak_rss_mb"] = (rss[-1], "MB", 1)

    # workload-specific figures, printed but not part of the result line
    extra: dict[str, tuple] = {}
    if job_s and "cells" in work:
        extra["cells_per_s"] = (work["cells"] / job_s, "1/s", len(times("job")))
    elif job_s:
        extra["files_per_s"] = (work["rows"] / job_s, "1/s", len(times("job")))
    if job_s:
        extra["content_mb_per_s"] = (work["content_mb"] / job_s, "MB/s", len(times("job")))
    if times("resume"):
        extra["resume_s"] = (_median(times("resume")), "s", len(times("resume")))
    f1 = [e["keep_f1"] for e in ops if e["op"] == "check" and "keep_f1" in e]
    if f1:
        extra["keep_f1"] = (f1[-1], "ratio", 1)
    extra["failed_frac"] = (failed / attempted, "ratio", attempted)

    if trace:
        layers = [e["v"] for e in events if e["t"] == "layers"]
        per_layer: dict[str, tuple] = {}
        for name, unit in layer_units.items():
            xs = [v[name] for v in layers if name in v]
            if xs:
                per_layer[name] = (_median(xs), unit, len(xs))
        per_layer["ray.init_s"] = (_median([e["init_s"] for e in setups]), "s", len(setups))
        per_layer["models.build_s"] = (_median([e["build_s"] for e in setups]), "s", len(setups))
        traced = _median(times("job_traced"))
        if traced and job_s:
            per_layer["trace.overhead_s"] = (traced - job_s, "s", len(times("job_traced")))
        shown, reported = {**values, **extra, **per_layer}, per_layer
    else:
        shown, reported = {**values, **extra}, values

    lines = [
        f"{name} {v:.6g} {unit} (n={n})"
        for name, (v, unit, n) in shown.items()
        if v is not None
    ]
    for e in ops:
        if not e["ok"]:
            lines.append(f"FAILED {e['op']}: {e['why']}")
    if not finished:
        lines.append("FAILED: run overran its wall-time limit and was stopped")
    metrics = {
        name: {"value": v, "unit": unit}
        for name, (v, unit, _n) in reported.items()
        if v is not None
    }
    return counts, metrics, lines


def main() -> int:
    t_start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join("qamd_ray", "pipeline.py")):
        print("error: run from the root of a qamd_ray checkout (qamd_ray/ not found)",
              file=sys.stderr)
        return 2

    from perfbench.inputs import ensure_inputs

    inputs = ensure_inputs(args.workload, args.seed)
    out_dir = os.path.abspath(".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    records = os.path.join(out_dir, f"records-{tag}.jsonl")
    if os.path.exists(records):
        os.remove(records)
    budget = COMMAND_LIMIT_S - CLEANUP_RESERVE_S - (time.monotonic() - t_start)
    limit_s = max(10.0, min(budget, RUN_ALLOWANCE_S + 2 * args.seconds))
    finished = run_session(
        args, inputs, records, os.path.join(out_dir, f"log-{tag}.txt"), limit_s
    )

    events = []
    if os.path.exists(records):
        with open(records) as f:
            events = [json.loads(line) for line in f if line.strip()]
    with open("BENCHMARK.json") as f:
        layer_units = {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}
    counts, metrics, lines = summarize(events, bool(args.trace), finished, layer_units)
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
