"""Flagship quality-filter pipeline tests: F1 vs the oracle, scrub
invariants, checkpoint/resume — mirrors the reference's e2e fixture
anchoring (src/readstat/read.rs:141-194) with the graft's synthetic corpus.
"""

import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pytest

import ray
import ray.data

from qamd_ray.gen_config import quality_config
from qamd_ray.oracle import oracle_labels
from qamd_ray.pipeline import (
    quality_pipeline,
    repo_report,
    run_checkpointed,
    locator_samples,
    summary_report,
)
from qamd_ray.synth import gen_corpus, strip_labels, write_corpus


@pytest.fixture(scope="module")
def corpus():
    return gen_corpus(n_rows=600, n_repos=12, seed=42)


@pytest.fixture(scope="module")
def cfg():
    return quality_config()


@pytest.fixture(scope="module")
def final_df(corpus, cfg):
    ds = quality_pipeline(ray.data.from_arrow(strip_labels(corpus)), cfg)
    return ds.to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)


def test_keep_drop_f1_vs_oracle(corpus, cfg, final_df):
    """BASELINE.json gate: keep/drop F1 >= 0.99 vs the reference-faithful
    single-process oracle. Deterministic rules on both sides → expect 1.0."""
    labels = oracle_labels(strip_labels(corpus), cfg).to_pandas()
    labels = labels.sort_values(["repo", "path"]).reset_index(drop=True)
    assert (final_df["repo"] == labels["repo"]).all()
    y_true = labels["keep"].to_numpy()
    y_pred = final_df["keep"].to_numpy()
    tp = int((y_true & y_pred).sum())
    fp = int((~y_true & y_pred).sum())
    fn = int((y_true & ~y_pred).sum())
    f1 = 2 * tp / (2 * tp + fp + fn)
    assert f1 >= 0.99, f"F1 {f1}: fp={fp} fn={fn}"


def test_scrubbed_text_matches_oracle(corpus, cfg, final_df):
    labels = oracle_labels(strip_labels(corpus), cfg).to_pandas()
    labels = labels.sort_values(["repo", "path"]).reset_index(drop=True)
    assert (final_df["content"].to_numpy() == labels["scrubbed_content"].to_numpy()).all()


def test_passthrough_sha256_invariant(corpus, cfg, final_df):
    """input_hint: rows the scrubber does not touch are byte-identical —
    sha256(content after) == content_sha256 (computed before scrub)."""
    untouched = final_df[~final_df["scrubbed"]]
    assert len(untouched) > 0
    for c, h in zip(untouched["content"], untouched["content_sha256"]):
        assert hashlib.sha256(c.encode("utf-8", "surrogatepass")).hexdigest() == h
    touched = final_df[final_df["scrubbed"]]
    assert len(touched) > 0
    assert (touched["n_scrubs"] > 0).all()


def test_planted_defects_are_dropped(corpus, cfg, final_df):
    """Every row with a droppable planted defect must be keep=False."""
    defects = corpus["defect"].to_pylist()
    key = list(zip(corpus["repo"].to_pylist(), corpus["path"].to_pylist(), defects))
    by_key = {(r, p): d for r, p, d in key}
    droppable = {
        "odd_chars", "control", "long_line", "tiny", "huge", "low_alnum",
        "gibberish", "stopword_only", "bad_path", "empty",
    }
    kept_defects = [
        by_key[(r, p)]
        for r, p, keep in zip(final_df["repo"], final_df["path"], final_df["keep"])
        if keep and by_key.get((r, p))
    ]
    assert not any(d in droppable for d in kept_defects), kept_defects


def test_duplicate_winners_exact(corpus, final_df):
    ds = ray.data.from_arrow(strip_labels(corpus))
    # independent check: python-side grouping
    rows = strip_labels(corpus).to_pylist()
    groups = {}
    for r in rows:
        h = hashlib.sha256(r["content"].encode("utf-8", "surrogatepass")).hexdigest()
        groups.setdefault(h, []).append((r["repo"], r["path"]))
    expected = set()
    for keys in groups.values():
        if len(keys) > 1:
            expected.update(sorted(keys)[1:])
    dup = final_df[final_df["f_duplicate"]]
    assert set(zip(dup["repo"], dup["path"])) == expected
    assert len(expected) > 0
    # distributed winner paths agree with each other and the expectation
    from qamd_ray.pipeline import duplicate_winners, content_keys

    keys_ds = content_keys(ds)
    win_driver = duplicate_winners(keys_ds)
    win_dist = duplicate_winners(content_keys(ds), driver_collect_threshold=0)
    assert win_driver == win_dist
    expected_winners = {
        hashlib.sha256(r["content"].encode("utf-8", "surrogatepass")).hexdigest()
        for r in rows
    }
    assert set(win_driver) <= expected_winners
    for sha, keys in groups.items():
        if len(keys) > 1:
            r0, p0 = sorted(keys)[0]
            assert win_driver[sha] == f"{r0}\x00{p0}"


def test_repo_report_and_summary(corpus, cfg, final_df):
    ds = ray.data.from_pandas(final_df)
    rt = repo_report(ds)
    assert rt.num_rows == len(set(corpus["repo"].to_pylist()))
    total = sum(rt["n_rows"].to_pylist())
    assert total == corpus.num_rows
    # per-repo flag sums must equal global sums
    assert sum(rt["f_langid"].to_pylist()) == int(final_df["f_langid"].sum())
    locs = locator_samples(ds)
    rep = summary_report(rt, locators=locs)
    assert rep["metadata"]["row_count"] == corpus.num_rows
    assert rep["metadata"]["keep_count"] == int(final_df["keep"].sum())
    for name, entry in rep["summary"].items():
        assert entry["pass"] + entry["fail"] == corpus.num_rows
        assert entry["fail"] == int(final_df["f_" + name].sum())
    # locators present, deterministic, capped
    assert any(locs.values())
    for name, ls in locs.items():
        assert ls == sorted(ls, key=lambda d: (d["repo"], d["path"]))
        assert len(ls) <= 1000
        assert len(ls) == min(int(final_df["f_" + name].sum()), 1000)


def test_repo_report_paths_equivalent(final_df):
    """The size-routed driver reduction and the distributed groupby must
    produce the identical per-repo table (n_rows below vs above the
    threshold forces each path)."""
    ds = ray.data.from_pandas(final_df)
    a = repo_report(ds, n_rows=len(final_df))  # driver path
    b = repo_report(ds, n_rows=len(final_df), driver_reduce_threshold=0)
    assert a.column_names == b.column_names
    assert a.equals(b)


def test_metadata_only_suppresses_locators(corpus, cfg, final_df):
    """macros.rs:12-13 semantics: metadata_only drops locators, keeps counts."""
    ds = ray.data.from_pandas(final_df)
    rt = repo_report(ds)
    locs = locator_samples(ds)
    rep = summary_report(rt, metadata_only=True, locators=locs)
    assert all("locators" not in e for e in rep["summary"].values())
    assert rep["metadata"]["row_count"] == corpus.num_rows


def test_checkpointed_run_and_resume(tmp_path, cfg):
    src = str(tmp_path / "in.parquet")
    out = str(tmp_path / "out")
    write_corpus(src, n_rows=300, n_repos=8, seed=11, row_group_size=50)
    rep = run_checkpointed(src, out, cfg, num_shards=3)
    assert rep["run"] == {"shards": 3, "phase1_skipped": 0, "phase3_skipped": 0}
    assert rep["metadata"]["row_count"] == 300

    # kill two partitions (one per phase) and resume: only those recompute
    shutil.rmtree(os.path.join(out, "final", "part=1"))
    shutil.rmtree(os.path.join(out, "enriched", "part=2"))
    rep2 = run_checkpointed(src, out, cfg, num_shards=3)
    assert rep2["run"]["phase1_skipped"] == 2
    assert rep2["run"]["phase3_skipped"] == 2
    assert rep2["metadata"] == rep["metadata"]
    assert {k: (v["pass"], v["fail"]) for k, v in rep2["summary"].items()} == {
        k: (v["pass"], v["fail"]) for k, v in rep["summary"].items()
    }
    # manifests carry lineage + metrics
    with open(os.path.join(out, "enriched", "part=0", "manifest.json")) as f:
        m = json.load(f)
    assert m["rows"] > 0 and m["inputs"] and "wall_s" in m and m["content_bytes"] > 0


def test_synth_determinism():
    a = gen_corpus(200, 5, seed=3)
    b = gen_corpus(200, 5, seed=3)
    assert a.equals(b)
    c = gen_corpus(200, 5, seed=4)
    assert not a.equals(c)


def test_dup_flag_join_matches_broadcast(corpus, cfg):
    """Dup-dominated fallback: finalize with the winner TABLE (Dataset →
    hash-shuffle join) must flag exactly the rows the broadcast dict
    flags.  Corpus: every content duplicated ~3× so the winner map is
    data-scale."""
    import pandas as pd

    from qamd_ray.pipeline import (
        content_keys,
        duplicate_winners,
        duplicate_winners_dataset,
        finalize,
        enrich,
    )

    base = strip_labels(corpus).to_pylist()[:120]
    rows = []
    for i, r in enumerate(base):
        rows.append(r)
        for c in range(2):  # two copies of every content in other repos
            rr = dict(r)
            rr["repo"] = f"copy{c}_{r['repo']}"
            rows.append(rr)
    t = pa.Table.from_pylist(rows)
    ds = ray.data.from_arrow(t)
    enriched = enrich(ds, cfg).materialize()

    win_dict = duplicate_winners(content_keys(ds))
    win_ds = duplicate_winners_dataset(content_keys(ds))
    assert win_ds.count() == len(win_dict)

    def collect(final):
        df = final.to_pandas()[["repo", "path", "f_duplicate", "keep"]]
        return df.sort_values(["repo", "path"]).reset_index(drop=True)

    a = collect(finalize(enriched, cfg, win_dict))
    b = collect(finalize(enriched, cfg, win_ds))
    assert a.equals(b)
    assert a["f_duplicate"].sum() >= 2 * 120  # all copies flagged

    # empty winner Dataset behaves like "no duplicates"
    empty = win_ds.filter(expr="winner == 'impossible'")
    c = finalize(enriched, cfg, empty).to_pandas()
    assert not c["f_duplicate"].any()


def test_chained_joins_finish_and_match_pandas():
    """Three chained hash-shuffle joins plus ``_compact`` in one plan at
    conftest's 4 CPUs.  Each right side carries an empty block (a
    filter drops its second block), whose shuffle task asks Ray for 2 GiB;
    with Ray's default aggregator sizing the three joins left too little
    memory for it and the plan stalled.  The plan runs in a worker thread
    bounded by a timeout, so a stall fails the test instead of hanging
    the suite."""
    import threading
    from concurrent.futures import Future

    import pandas as pd

    from qamd_ray.pipeline import _compact, hash_join

    k = np.arange(300, dtype=np.int64)
    left = pd.DataFrame({"k": k, "a": k * 2})
    sides = [
        pd.DataFrame({"k": k[::2], "b": k[::2] + 1}),
        pd.DataFrame({"k": k[::3], "c": k[::3] * 3}),
        pd.DataFrame({"k": k[::5], "d": -k[::5]}),
    ]
    names_types = [(c, pa.int64()) for c in ("k", "a", "b", "c", "d")]

    def plan() -> pd.DataFrame:
        ds = ray.data.from_pandas(left)
        for side in sides:
            right = ray.data.from_pandas([side, side + len(k)])
            ds = hash_join(ds, right.filter(expr=f"k < {len(k)}"), on="k")
        return _compact(ds, names_types).to_pandas()

    done: Future = Future()

    def run() -> None:
        try:
            done.set_result(plan())
        except Exception as e:  # surfaced by done.result()
            done.set_exception(e)

    threading.Thread(target=run, daemon=True).start()
    got = done.result(timeout=120)
    want = left
    for side in sides:
        want = want.merge(side, on="k")
    got = got.sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
