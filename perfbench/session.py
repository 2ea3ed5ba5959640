"""One measured run of one workload, in its own process.

``run.py`` starts this script with the inputs already generated and kills
it if it overruns.  It writes one JSON line per event to ``--records`` as
it goes, so a killed run still leaves its partial measurements:

* ``{"t": "start", "op": ...}`` when an operation starts;
* ``{"t": "op", "op": ..., "s": ..., "ok": ..., "why": ...}`` when it ends;
* ``{"t": "layers", "v": {...}}`` per-layer numbers of one traced iteration;
* ``{"t": "rss", "mb": ...}`` peak resident memory of this driver process;
* ``{"t": "end"}`` after Ray has shut down.

Set-up (Ray start plus warm-up with the first model build) runs
``SETUPS`` times; the last session stays up for the closed loop, which
starts the next iteration only after the previous one has finished and
been checked, until ``--seconds`` have passed.  With ``--trace 1`` the
loop alternates plain and traced iterations, so the tracing overhead is
measured in the same session.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
import traceback

sys.path.insert(0, os.getcwd())

SETUPS = 3
OBJECT_STORE_BYTES = 256 * 1024 * 1024

# per-layer metric → span names whose self times it sums
LAYER_SELF_TIME = {
    "sources.read_s": ("sources",),
    "rules.self_s": ("rules",),
    "models.self_s": ("models",),
    "scrub.self_s": ("scrub",),
    "pipeline.dup_s": ("pipeline.dup",),
    "pipeline.keep_s": ("pipeline.keep",),
    "pipeline.report_s": ("pipeline.report",),
    "pipeline.checkpoint_s": ("pipeline.checkpoint",),
    "readers.parse_s": ("readers",),
    "healthcheck.freq_s": ("healthcheck.freq",),
    "healthcheck.checks_s": ("healthcheck.checks",),
    # the job's time outside every layer span: Ray job overhead around
    # the UDF stages (ray.block) and glue between the calls (job)
    "ray.overhead_s": ("job", "ray.block"),
}
# per-layer metric → "<span name>.<count>" it sums
LAYER_COUNT = {
    "sources.rows": "sources.rows",
    "sources.content_mb": "sources.content_mb",
    "rules.rows": "rules.rows",
    "rules.rows_flagged": "rules.rows_flagged",
    "models.rows": "models.rows",
    "scrub.rows": "scrub.rows",
    "scrub.rows_rewritten": "scrub.rows_rewritten",
    "pipeline.dup_keys": "pipeline.dup.keys",
    "pipeline.dup_winners": "pipeline.dup.winners",
    "pipeline.report_partial_rows": "pipeline.report.partial_rows",
    "pipeline.shards_written": "pipeline.checkpoint.shards_written",
    "pipeline.shards_skipped": "pipeline.checkpoint.shards_skipped",
    "pipeline.checkpoint_mb_written": "pipeline.checkpoint.mb_written",
    "readers.cells": "readers.cells",
    "healthcheck.distinct_values": "healthcheck.freq.distinct_values",
}


class Recorder:
    """Appends event lines to the records file, flushed one by one."""

    def __init__(self, path: str):
        self._f = open(path, "a")
        self.open_op = None

    def close(self) -> None:
        self._f.close()

    def line(self, **event) -> None:
        self._f.write(json.dumps(event) + "\n")
        self._f.flush()

    def start(self, op: str) -> tuple[str, float]:
        self.line(t="start", op=op)
        self.open_op = (op, time.perf_counter())
        return self.open_op

    @staticmethod
    def stop(token: tuple[str, float]) -> float:
        return time.perf_counter() - token[1]

    def finish(self, token: tuple[str, float], seconds: float, ok: bool,
               why: str = "", **values) -> None:
        self.line(t="op", op=token[0], s=seconds, ok=bool(ok), why=why, **values)
        self.open_op = None


def run_dir() -> str:
    """This run's own directory inside the checkout, relative to it."""
    return os.path.join(".bench_ray", str(os.getpid()))


def ray_temp_dir() -> str:
    """Ray's session files: ``run_dir()`` named through /proc/self/cwd.

    Ray puts its Unix sockets below this directory, and a socket path
    holds at most 107 bytes, so the checkout's own path, of any length,
    must not be part of it.  Ray's daemons and workers inherit this
    process's working directory, so the name resolves to the same
    directory in each of them.
    """
    return os.path.join("/proc/self/cwd", run_dir())


def nproc() -> int:
    """What ``nproc`` prints: it honours OMP_NUM_THREADS, which caps the
    CPUs a job may use below what the affinity mask allows."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


def die_with_parent() -> None:
    """If ``run.py`` dies first, kill this run's process group, Ray's
    daemons and workers with it, so a killed benchmark leaves nothing
    running."""
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        os.killpg(os.getpgrp(), signal.SIGKILL)

    threading.Thread(target=watch, daemon=True).start()


def start_ray() -> None:
    import ray
    from ray.data import DataContext

    ray.init(
        address="local",
        num_cpus=nproc(),
        include_dashboard=False,
        logging_level="ERROR",
        object_store_memory=OBJECT_STORE_BYTES,
        _temp_dir=ray_temp_dir(),
    )
    DataContext.get_current().enable_progress_bars = False


def layer_values(tracer, roots: list[int]) -> dict:
    self_s, counts = tracer.layer_totals(roots)
    out = {m: sum(self_s.get(n, 0.0) for n in names) for m, names in LAYER_SELF_TIME.items()}
    out.update({m: counts.get(key, 0) for m, key in LAYER_COUNT.items()})
    return out


def run(args, rec: Recorder) -> None:
    import ray

    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS

    work_dir = os.path.abspath(os.path.join(".bench_out", "work", f"{args.workload}-{os.getpid()}"))
    wl = WORKLOADS[args.workload](args.inputs, work_dir)
    rec.line(t="work", **wl.work)
    tracer = Tracer() if args.trace else None
    try:
        for i in range(SETUPS):
            if i:
                ray.shutdown()
            t = rec.start("setup")
            start_ray()
            init_s = Recorder.stop(t)
            build_s = wl.warm_up()
            rec.finish(t, Recorder.stop(t), True, init_s=init_s, build_s=build_s)

        # reach steady state before timing: the first real jobs start more
        # Ray workers, and each builds its own models on first use
        wl.steady(rec)
        deadline = time.monotonic() + args.seconds
        n = 0
        while n < (2 if args.trace else 1) or time.monotonic() < deadline:
            traced = bool(args.trace) and n % 2 == 1
            first = len(tracer.spans) if tracer else 0
            wl.iteration(rec, tracer if traced else None)
            if traced:
                roots = [s["id"] for s in tracer.spans[first:] if s["parent"] is None]
                rec.line(t="layers", v=layer_values(tracer, roots))
            n += 1
    except Exception as e:  # the run must still report what it measured
        traceback.print_exc()
        if rec.open_op is not None:
            rec.finish(rec.open_op, Recorder.stop(rec.open_op), False, f"{type(e).__name__}: {e}")
        else:
            rec.line(t="error", why=f"{type(e).__name__}: {e}")
    finally:
        rec.line(t="rss", mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tracer is not None:
            tracer.dump(os.path.join(
                ".bench_out", "spans", f"{args.workload}-s{args.seed}.json"))
        ray.shutdown()
        shutil.rmtree(work_dir, ignore_errors=True)
        rec.line(t="end")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--records", required=True)
    args = ap.parse_args()
    die_with_parent()
    # Ray and the libraries under it also create short-lived files in the
    # system temporary directory; keep those inside the checkout
    tmp = os.path.abspath(os.path.join(run_dir(), "tmp"))
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    rec = Recorder(args.records)
    try:
        run(args, rec)
    finally:
        rec.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
