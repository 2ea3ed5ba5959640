"""The three workloads: set-up warm-up, one closed-loop iteration (plain
or traced) and the correctness checks.

Every operation goes through the session's recorder: ``rec.start`` starts
the clock, ``rec.stop`` stops it before any checking, and ``rec.finish``
records the time with the verdict of the checks.  Traced iterations run
the same work with spans (see ``tracing.py``); their outputs are checked
the same way.
"""

from __future__ import annotations

import copy
import glob
import hashlib
import json
import os
import shutil
import time
from typing import Optional

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from qamd_ray import healthcheck as hc_mod
from qamd_ray import pipeline as pl_mod
from qamd_ray import readers as rd_mod
from qamd_ray.gen_config import default_config, quality_config
from qamd_ray.healthcheck import frequency_table, health_check
from qamd_ray.models import ModelScorers
from qamd_ray.pipeline import (
    INPUT_COLUMNS,
    content_keys,
    duplicate_winners,
    finalize,
    quality_pipeline,
    repo_report,
    run_checkpointed,
    summary_report,
)
from qamd_ray.readers import read_stat_table
from qamd_ray.rules import RowRules
from qamd_ray.scrub import Scrubber
from qamd_ray.sources import read_parquet_with_row_index

from perfbench.inputs import SKEW_SHARDS
from perfbench.tracing import TimedStage, patched, worker_stages

KEEP_F1_MIN = 0.99
# manifests deleted before each resume: 1 of 4 enriched shards, 2 of 4 final
INVALIDATE_ENRICHED = (1,)
INVALIDATE_FINAL = (1, 3)


@ray.remote
def _build_models(kwargs: dict) -> int:
    """First model build in a fresh worker (models are cached per worker
    process, so later tasks there reuse them)."""
    empty = pa.table({c: pa.array(["x"], pa.string()) for c in INPUT_COLUMNS})
    return ModelScorers(**kwargs)(empty).num_rows


def op_name(base: str, tracer, warm: bool) -> str:
    """``job``/``resume``, or ``warm_job``… before the loop, ``job_traced``…
    when traced; only plain loop operations count toward job_s."""
    return ("warm_" if warm else "") + base + ("" if tracer is None else "_traced")


def _report_partial_rows(final: "ray.data.Dataset") -> int:
    """Rows ``repo_report``'s per-batch partial aggregation emits: one per
    distinct repo per batch, batched the same way (map_batches defaults)."""

    def _n(batch: pa.Table) -> pa.Table:
        return pa.table({"n": [len(pc.unique(batch["repo"]))]})

    return int(final.map_batches(_n, batch_format="pyarrow").sum("n") or 0)


def _sha256(s: str) -> str:
    return hashlib.sha256(s.encode("utf-8", "surrogatepass")).hexdigest()


def check_against_oracle(out: pd.DataFrame, oracle: pd.DataFrame) -> tuple[bool, str, float]:
    """Keep/drop F1 against the single-process oracle, exact row set, and
    sha256 equality of every pass-through (not scrubbed) row with its
    input.  → (ok, why, keep_f1)."""
    if len(out) != len(oracle):
        return False, f"{len(out)} output rows, {len(oracle)} input rows", 0.0
    m = oracle.merge(out, on=["repo", "path"], how="inner", validate="one_to_one")
    if len(m) != len(oracle):
        return False, "output (repo, path) keys differ from the input", 0.0
    y_true = m["keep_x"].to_numpy(bool)
    y_pred = m["keep_y"].to_numpy(bool)
    tp = int((y_true & y_pred).sum())
    wrong = int((y_true != y_pred).sum())
    f1 = 2 * tp / (2 * tp + wrong) if (2 * tp + wrong) else 1.0
    if f1 < KEEP_F1_MIN:
        return False, f"keep_f1 {f1:.4f} < {KEEP_F1_MIN}", f1
    passed = m[~m["scrubbed"].to_numpy(bool)]
    out_sha = [_sha256(c or "") for c in passed["content"]]
    if not (
        (passed["content_sha256"] == passed["in_sha256"]).all()
        and (pd.Series(out_sha, index=passed.index) == passed["in_sha256"]).all()
    ):
        return False, "a pass-through row's content changed", f1
    return True, "", f1


class _CodeWorkload:
    """Shared by both code-corpus workloads."""

    def __init__(self, inputs_dir: str, work_dir: str):
        with open(os.path.join(inputs_dir, "expected.json")) as f:
            self.expected = json.load(f)
        self.corpus = os.path.join(inputs_dir, "corpus.parquet")
        self.oracle = pd.read_parquet(os.path.join(inputs_dir, "oracle.parquet"))
        self.work_dir = work_dir
        self.spool = os.path.join(work_dir, "spool")
        os.makedirs(self.spool, exist_ok=True)
        self.cfg = quality_config()
        self.rows = self.expected["rows"]
        self.first_report = None

    @property
    def work(self) -> dict:
        """Input size: rows and content megabytes."""
        return {"rows": self.rows, "content_mb": self.expected["content_mb"]}

    def warm_up(self) -> float:
        """First model build in a fresh worker; → its seconds."""
        t0 = time.perf_counter()
        ray.get(_build_models.remote(ModelScorers.from_config(self.cfg)))
        return time.perf_counter() - t0

    def _same_report(self, rep: dict) -> tuple[bool, str]:
        """Row count, and the same report as the first job of the run."""
        body = {k: v for k, v in rep.items() if k != "run"}
        if body["metadata"]["row_count"] != self.rows:
            return False, f"report row_count {body['metadata']['row_count']} != {self.rows}"
        if self.first_report is None:
            self.first_report = body
        elif body != self.first_report:
            return False, "report differs from the run's first report"
        return True, ""


class CodeUniform(_CodeWorkload):
    """quality_pipeline → repo_report → summary_report, realistic files."""

    def steady(self, rec) -> None:
        """Untimed: the row-level check, then one plain job."""
        self.final_check(rec)
        self.iteration(rec, warm=True)

    def iteration(self, rec, tracer=None, warm: bool = False) -> None:
        t = rec.start(op_name("job", tracer, warm))
        if tracer is None:
            rep = summary_report(
                repo_report(quality_pipeline(self.corpus, self.cfg), n_rows=self.rows)
            )
        else:
            rep = self._traced_job(tracer)
        s = rec.stop(t)
        ok, why = self._same_report(rep)
        rec.finish(t, s, ok, why)

    def _traced_job(self, tr) -> dict:
        """The blocks quality_pipeline composes, one materialized result
        per block.  A ``ray.block`` span covers each Ray job; the stage
        inside it runs as a TimedStage, so the block's self time is Ray's
        per-job overhead and the stage's span is its compute."""
        cfg = self.cfg
        no_scrub = copy.deepcopy(cfg)
        no_scrub.quality_filter.scrub_patterns = None
        no_scrub.quality_filter.toxicity_lexicon = None

        def block(ds, layer, stage, **kwargs):
            with tr.span("ray.block") as blk:
                out = ds.map_batches(
                    TimedStage(layer, stage, self.spool), batch_format="pyarrow", **kwargs
                ).materialize()
            tr.absorb_spool(self.spool, blk)
            return out

        with tr.span("job"):
            with tr.span("sources", rows=self.rows, content_mb=self.expected["content_mb"]):
                raw = read_parquet_with_row_index(self.corpus, columns=INPUT_COLUMNS).materialize()
            enriched = block(raw, "rules", RowRules(cfg))
            enriched = block(
                enriched, "models", ModelScorers(**ModelScorers.from_config(cfg)), batch_size=512
            )
            dup = tr.wrap(
                "pipeline.dup", duplicate_winners,
                lambda out, *_: {"keys": self.rows, "winners": len(out)},
            )
            winners = dup(content_keys(raw), n_rows=self.rows)
            scrubbed = block(enriched, "scrub", Scrubber.from_config(cfg))
            with tr.span("pipeline.keep"):
                # dup flag + keep_expression(); the scrub already ran above
                final = finalize(scrubbed, no_scrub, winners).materialize()
            report = tr.wrap(
                "pipeline.report", repo_report,
                lambda out, final, *_: {"partial_rows": _report_partial_rows(final)},
            )
            rep = summary_report(report(final, n_rows=self.rows))
        tr.resolve()
        return rep

    def final_check(self, rec) -> None:
        t = rec.start("check")
        out = quality_pipeline(self.corpus, self.cfg).to_pandas()
        s = rec.stop(t)
        ok, why, keep_f1 = check_against_oracle(out, self.oracle)
        rec.finish(t, s, ok, why, keep_f1=keep_f1)


class CodeSkewResume(_CodeWorkload):
    """run_checkpointed over short files with a giant repo and hot
    duplicates, then a resume after a fixed set of manifests is deleted."""

    def __init__(self, inputs_dir: str, work_dir: str):
        super().__init__(inputs_dir, work_dir)
        self.out = os.path.join(work_dir, "run")

    def steady(self, rec) -> None:
        """Untimed: one plain iteration, then the row-level check of its
        output."""
        self.iteration(rec, warm=True)
        self.final_check(rec)

    def _manifests(self) -> dict[str, tuple]:
        out = {}
        for p in glob.glob(os.path.join(self.out, "*", "part=*", "manifest.json")):
            st = os.stat(p)
            out[os.path.relpath(p, self.out)] = (st.st_mtime_ns, st.st_ino)
        return out

    @staticmethod
    def _invalidated() -> set[str]:
        return {f"enriched/part={k}/manifest.json" for k in INVALIDATE_ENRICHED} | {
            f"final/part={k}/manifest.json" for k in INVALIDATE_FINAL
        }

    def _run(self, tr) -> tuple[dict, Optional[dict]]:
        """run_checkpointed → (report, its checkpoint span).  Traced when
        ``tr`` is given: driver-side spans around the pipeline functions it
        calls, worker-side spans around its map_batches stages."""
        if tr is None:
            return run_checkpointed(self.corpus, self.out, self.cfg, num_shards=SKEW_SHARDS), None
        driver = {
            "duplicate_winners": tr.wrap(
                "pipeline.dup", duplicate_winners,
                lambda out, proj, *_: {"keys": proj.count(), "winners": len(out)},
            ),
            "repo_report": tr.wrap(
                "pipeline.report", repo_report,
                lambda out, final, *_: {"partial_rows": _report_partial_rows(final)},
            ),
            "locator_samples": tr.wrap("pipeline.report", pl_mod.locator_samples),
            "summary_report": tr.wrap("pipeline.report", summary_report),
        }
        with patched(pl_mod, {**worker_stages(pl_mod, self.spool), **driver}):
            with tr.span("job"):
                with tr.span("pipeline.checkpoint") as cp:
                    rep = run_checkpointed(
                        self.corpus, self.out, self.cfg, num_shards=SKEW_SHARDS
                    )
        return rep, cp

    def _count(self, tr, rep: dict, cp: dict, since_ns: int) -> None:
        """Counts of one traced run, taken after its clock stopped and
        before the next run rewrites the files its datasets read."""
        tr.absorb_spool(self.spool, cp)
        tr.resolve()
        run = rep["run"]
        written = 0
        for root, _dirs, files in os.walk(self.out):
            for name in files:
                st = os.stat(os.path.join(root, name))
                if st.st_mtime_ns >= since_ns:
                    written += st.st_size
        cp["counts"].update(
            shards_written=2 * run["shards"] - run["phase1_skipped"] - run["phase3_skipped"],
            shards_skipped=run["phase1_skipped"] + run["phase3_skipped"],
            mb_written=written / 1e6,
        )

    def _timed_run(self, rec, op: str, tracer) -> tuple[tuple, dict, float]:
        """→ (op token, report, seconds); counting stays outside the clock."""
        since_ns = time.time_ns()
        t = rec.start(op)
        rep, cp = self._run(tracer)
        s = rec.stop(t)
        if tracer is not None:
            self._count(tracer, rep, cp, since_ns)
        return t, rep, s

    def iteration(self, rec, tracer=None, warm: bool = False) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        t, full, s = self._timed_run(rec, op_name("job", tracer, warm), tracer)
        ok, why = self._same_report(full)
        if ok and full["run"] != {"shards": SKEW_SHARDS, "phase1_skipped": 0, "phase3_skipped": 0}:
            ok, why = False, f"fresh run skipped shards: {full['run']}"
        rec.finish(t, s, ok, why)

        before = self._manifests()
        for rel in self._invalidated():
            os.remove(os.path.join(self.out, rel))
        t, resumed, s = self._timed_run(rec, op_name("resume", tracer, warm), tracer)
        ok, why = self._same_report(resumed)
        after = self._manifests()
        recomputed = {k for k in after if before.get(k) != after[k]}
        if ok and set(after) != set(before):
            ok, why = False, "resume left a shard without a manifest"
        if ok and recomputed != self._invalidated():
            ok, why = False, f"recomputed {sorted(recomputed)}, invalidated {sorted(self._invalidated())}"
        want = {
            "shards": SKEW_SHARDS,
            "phase1_skipped": SKEW_SHARDS - len(INVALIDATE_ENRICHED),
            "phase3_skipped": SKEW_SHARDS - len(INVALIDATE_FINAL),
        }
        if ok and resumed["run"] != want:
            ok, why = False, f"resume stats {resumed['run']} != {want}"
        rec.finish(t, s, ok, why)

    def final_check(self, rec) -> None:
        t = rec.start("check")
        files = sorted(glob.glob(os.path.join(self.out, "final", "part=*", "data", "*.parquet")))
        cols = ["repo", "path", "keep", "content", "content_sha256", "scrubbed"]
        out = pa.concat_tables(pq.ParquetFile(f).read(columns=cols) for f in files).to_pandas()
        s = rec.stop(t)
        ok, why, keep_f1 = check_against_oracle(out, self.oracle)
        rec.finish(t, s, ok, why, keep_f1=keep_f1)


class StatHealthcheck:
    """health_check(default_config()) over one Stata .dta file."""

    def __init__(self, inputs_dir: str, work_dir: str):
        with open(os.path.join(inputs_dir, "expected.json")) as f:
            self.expected = json.load(f)
        self.path = os.path.join(inputs_dir, "data.dta")
        self.warm = os.path.join(inputs_dir, "warm.dta")
        self.cfg = default_config()
        self.rows = self.expected["rows"]
        self.first_report = None

    @property
    def work(self) -> dict:
        """Input size: rows, cells and file megabytes."""
        return {
            "rows": self.rows,
            "cells": self.rows * self.expected["variables"],
            "content_mb": self.expected["file_mb"],
        }

    def warm_up(self) -> float:
        health_check(self.warm, self.cfg)
        return 0.0

    def steady(self, rec) -> None:
        """Untimed: the distinct-value check, then one plain job."""
        self.final_check(rec)
        self.iteration(rec, warm=True)

    def _check(self, rep) -> tuple[bool, str]:
        n = rep.metadata.raw_case_count
        if n != self.rows:
            return False, f"raw_case_count {n} != {self.rows}"
        body = rep.to_dict()
        if self.first_report is None:
            self.first_report = body
        elif body != self.first_report:
            return False, "report differs from the run's first report"
        return True, ""

    def iteration(self, rec, tracer=None, warm: bool = False) -> None:
        t = rec.start(op_name("job", tracer, warm))
        if tracer is None:
            rep = health_check(self.path, self.cfg)
        else:
            rep = self._traced_job(tracer)
        s = rec.stop(t)
        ok, why = self._check(rep)
        rec.finish(t, s, ok, why)

    def _traced_job(self, tr):
        """health_check with spans around the read_stat_table and
        frequency_table calls it makes; the frequency table is
        materialized inside its span so its cost lands there."""
        def freq(ds, variables, **kwargs):
            return frequency_table(ds, variables, **kwargs).materialize()

        read = tr.wrap(
            "readers", read_stat_table,
            lambda out, *_: {"cells": out[0].count() * len(out[1].variables)},
        )
        freq = tr.wrap(
            "healthcheck.freq", freq, lambda out, *_: {"distinct_values": out.count()}
        )
        with patched(rd_mod, {"read_stat_table": read}), patched(
            hc_mod, {"frequency_table": freq}
        ):
            with tr.span("job"):
                with tr.span("healthcheck.checks"):
                    rep = health_check(self.path, self.cfg)
        tr.resolve()
        return rep

    def final_check(self, rec) -> None:
        t = rec.start("check")
        ds, meta = read_stat_table(self.path)
        distinct = frequency_table(ds, meta.variables).count()
        s = rec.stop(t)
        want = self.expected["distinct_total"]
        ok = distinct == want
        rec.finish(t, s, ok, "" if ok else f"frequency table has {distinct} values, pandas nunique {want}")


WORKLOADS = {
    "code_uniform": CodeUniform,
    "code_skew_resume": CodeSkewResume,
    "stat_healthcheck": StatHealthcheck,
}
