"""Flagship quality-filter pipeline tests: F1 vs the oracle, scrub
invariants, checkpoint/resume — mirrors the reference's e2e fixture
anchoring (src/readstat/read.rs:141-194) with the graft's synthetic corpus.
"""

import copy
import glob
import hashlib
import json
import os
import shutil

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray
import ray.data

from qamd_ray.config import Setting
from qamd_ray.gen_config import quality_config
from qamd_ray.oracle import oracle_labels
from qamd_ray.pipeline import (
    enrich,
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


def test_duplicate_winners_exact(tmp_path, corpus, final_df):
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
    # the Parquet-path and Dataset-path winner maps agree with each other
    # and with the expectation
    from qamd_ray.pipeline import _winners_from_files, content_keys, duplicate_winners

    src = str(tmp_path / "corpus.parquet")
    pq.write_table(strip_labels(corpus), src, row_group_size=50)
    win_files = _winners_from_files(src)
    win_ds = duplicate_winners(content_keys(ray.data.read_parquet(src)))
    assert win_files == win_ds
    expected_winners = {
        hashlib.sha256(r["content"].encode("utf-8", "surrogatepass")).hexdigest()
        for r in rows
    }
    assert set(win_ds) <= expected_winners
    for sha, keys in groups.items():
        if len(keys) > 1:
            r0, p0 = sorted(keys)[0]
            assert win_ds[sha] == f"{r0}\x00{p0}"


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
    # the whole report, locators included, is the uninterrupted one
    assert _body(rep2) == _body(rep)
    # manifests carry lineage + metrics
    with open(os.path.join(out, "enriched", "part=0", "manifest.json")) as f:
        m = json.load(f)
    assert m["rows"] > 0 and m["inputs"] and "wall_s" in m and m["content_bytes"] > 0


def _body(rep: dict) -> dict:
    return {k: v for k, v in rep.items() if k != "run"}


def _manifest_stamps(out: str) -> dict:
    stamps = {}
    for phase in ("enriched", "final"):
        for part in sorted(os.listdir(os.path.join(out, phase))):
            st = os.stat(os.path.join(out, phase, part, "manifest.json"))
            stamps[f"{phase}/{part}"] = (st.st_mtime_ns, st.st_ino)
    return stamps


@pytest.fixture(scope="module")
def checkpointed(tmp_path_factory, cfg):
    """A 4-shard checkpointed run over 400 rows: (input, out_dir, report)."""
    d = tmp_path_factory.mktemp("ckpt")
    src = str(d / "in.parquet")
    write_corpus(src, n_rows=400, n_repos=8, seed=13, row_group_size=50)
    out = str(d / "out")
    return src, out, run_checkpointed(src, out, cfg, num_shards=4)


def test_resume_after_manifest_deletion(tmp_path, cfg, checkpointed):
    """Deleting manifests (1 of 4 enriched, 2 of 4 final, as the benchmark
    does) recomputes exactly those shards, and the resumed report is the
    uninterrupted one, locators included."""
    src, out0, rep = checkpointed
    out = str(tmp_path / "out")
    shutil.copytree(out0, out)
    before = _manifest_stamps(out)
    gone = {"enriched/part=1", "final/part=1", "final/part=3"}
    for rel in gone:
        os.remove(os.path.join(out, rel, "manifest.json"))
    rep2 = run_checkpointed(src, out, cfg, num_shards=4)
    assert rep2["run"] == {"shards": 4, "phase1_skipped": 3, "phase3_skipped": 2}
    after = _manifest_stamps(out)
    assert set(after) == set(before)
    assert {k for k in after if after[k] != before[k]} == gone
    assert _body(rep2) == _body(rep)
    assert any(e.get("locators") for e in rep["summary"].values())


def test_old_layout_final_manifest_is_recomputed(tmp_path, cfg, checkpointed):
    """A final manifest without per-repo partials (the earlier layout) does
    not validate: that shard is recomputed and the report is unchanged."""
    src, out0, rep = checkpointed
    out = str(tmp_path / "out")
    shutil.copytree(out0, out)
    mpath = os.path.join(out, "final", "part=2", "manifest.json")
    with open(mpath) as f:
        m = json.load(f)
    with open(mpath, "w") as f:
        json.dump({"rows": m["rows"], "keep": m["keep"], "wall_s": m["wall_s"]}, f)
    rep2 = run_checkpointed(src, out, cfg, num_shards=4)
    assert rep2["run"] == {"shards": 4, "phase1_skipped": 4, "phase3_skipped": 3}
    with open(mpath) as f:
        assert "partials" in json.load(f)
    assert _body(rep2) == _body(rep)


@pytest.mark.parametrize("change", ["duplicate_content_on", "max_content_length_200"])
def test_resume_under_changed_config_equals_fresh_run(tmp_path, cfg, checkpointed, change):
    """Re-running into the same out_dir under a changed config recomputes
    every shard and reports what a fresh run under the new config reports
    (switching duplicate_content on used to raise KeyError 'f_duplicate';
    a smaller max_content_length used to return the old report)."""
    src, out0, rep = checkpointed
    out = str(tmp_path / "out")
    if change == "duplicate_content_on":
        before = copy.deepcopy(cfg)
        before.quality_filter.duplicate_content = None
        run_checkpointed(src, out, before, num_shards=4)
        after, want = cfg, rep
    else:
        shutil.copytree(out0, out)
        after = copy.deepcopy(cfg)
        after.quality_filter.max_content_length = Setting(setting=200, desc="Max content bytes")
        want = run_checkpointed(src, str(tmp_path / "fresh"), after, num_shards=4)
        assert _body(want) != _body(rep)
    got = run_checkpointed(src, out, after, num_shards=4)
    assert got["run"] == {"shards": 4, "phase1_skipped": 0, "phase3_skipped": 0}
    assert _body(got) == _body(want)


def test_checkpointed_shards_hold_the_pipeline_rows(cfg, checkpointed):
    """Each shard's Parquet rows are the streaming pipeline's rows of that
    shard's input row groups, with the same columns and no shard column;
    the report equals repo_report + locator_samples over final/."""
    src, out, rep = checkpointed
    want_final = quality_pipeline(src, cfg).to_pandas()
    want_enriched = enrich(ray.data.read_parquet(src), cfg).to_pandas()
    files = []
    for k in range(4):
        with open(os.path.join(out, "enriched", f"part={k}", "manifest.json")) as f:
            inputs = json.load(f)["inputs"]
        keys = set()
        for t in inputs:
            rg = pq.ParquetFile(t["path"]).read_row_group(t["row_group"], columns=["repo", "path"])
            keys |= set(zip(rg["repo"].to_pylist(), rg["path"].to_pylist()))
        for phase, want in (("enriched", want_enriched), ("final", want_final)):
            part = sorted(glob.glob(os.path.join(out, phase, f"part={k}", "data", "*.parquet")))
            got = pa.concat_tables([pq.read_table(p) for p in part]).to_pandas()
            assert list(got.columns) == list(want.columns)
            mine = want[[(r, p) in keys for r, p in zip(want["repo"], want["path"])]]
            pd.testing.assert_frame_equal(
                got.sort_values(["repo", "path"]).reset_index(drop=True),
                mine.sort_values(["repo", "path"]).reset_index(drop=True),
            )
            if phase == "final":
                files += part
    final = ray.data.read_parquet(files, partitioning=None)
    assert _body(rep) == summary_report(repo_report(final), locators=locator_samples(final))


def test_zero_row_input_checkpointed(tmp_path, corpus, cfg):
    """A zero-row Parquet input (one empty row group) publishes empty
    shards that validate on resume; the report is the streaming
    pipeline's empty report."""
    empty = strip_labels(corpus).slice(0, 0)
    src = str(tmp_path / "empty.parquet")
    pq.write_table(empty, src)
    out = str(tmp_path / "out")
    rep = run_checkpointed(src, out, cfg, num_shards=4)
    want = summary_report(repo_report(quality_pipeline(ray.data.from_arrow(empty), cfg)))
    assert _body(rep) == want
    assert rep["run"] == {"shards": 1, "phase1_skipped": 0, "phase3_skipped": 0}
    rep2 = run_checkpointed(src, out, cfg, num_shards=4)
    assert rep2["run"] == {"shards": 1, "phase1_skipped": 1, "phase3_skipped": 1}
    assert _body(rep2) == want


def test_winners_json_bytes_are_stable(tmp_path, cfg):
    """The winner checkpoint is written with sorted keys: two runs over the
    same input write the same bytes, whatever order Ray's blocks finish."""
    src = str(tmp_path / "in.parquet")
    write_corpus(src, n_rows=160, n_repos=6, seed=5, row_group_size=20)
    written = []
    for run in ("a", "b"):
        out = str(tmp_path / run)
        run_checkpointed(src, out, cfg, num_shards=2)
        with open(os.path.join(out, "winners.json"), "rb") as f:
            written.append(f.read())
    assert written[0] == written[1]
    winners = json.loads(written[0])
    assert len(winners) >= 2
    assert list(winners) == sorted(winners)


def test_zero_row_input_gives_an_empty_report(corpus, cfg, final_df):
    """A zero-row corpus gives an empty per-repo table and a summary with
    the usual checks, all at 0 — not a KeyError from the empty collect."""
    empty = strip_labels(corpus).slice(0, 0)
    rt = repo_report(quality_pipeline(ray.data.from_arrow(empty), cfg))
    full_rt = repo_report(ray.data.from_pandas(final_df))
    assert rt.num_rows == 0
    assert [(f.name, f.type) for f in rt.schema] == [(f.name, f.type) for f in full_rt.schema]
    rep = summary_report(rt)
    assert rep["metadata"] == {
        "row_count": 0, "repo_count": 0, "keep_count": 0, "scrubbed_count": 0
    }
    assert set(rep["summary"]) == set(summary_report(full_rt)["summary"])
    assert all((e["pass"], e["fail"]) == (0, 0) for e in rep["summary"].values())


def test_synth_determinism():
    a = gen_corpus(200, 5, seed=3)
    b = gen_corpus(200, 5, seed=3)
    assert a.equals(b)
    c = gen_corpus(200, 5, seed=4)
    assert not a.equals(c)


def test_dup_flag_join_matches_broadcast(corpus, cfg):
    """Dup-dominated corpus: every content occurs 3× (the original plus
    two copies in other repos), so the winner map is a third of the rows.
    ``finalize`` must flag exactly the non-winning copies, and an empty
    winner map must flag nothing."""
    from qamd_ray.pipeline import content_keys, duplicate_winners, enrich, finalize

    base = strip_labels(corpus).to_pylist()[:120]
    rows = []
    for r in base:
        rows.append(r)
        for c in range(2):  # two copies of every content in other repos
            rr = dict(r)
            rr["repo"] = f"copy{c}_{r['repo']}"
            rows.append(rr)
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows))
    enriched = enrich(ds, cfg).materialize()

    groups = {}
    for r in rows:
        h = hashlib.sha256(r["content"].encode("utf-8", "surrogatepass")).hexdigest()
        groups.setdefault(h, []).append((r["repo"], r["path"]))
    expected = {k for keys in groups.values() if len(keys) > 1 for k in sorted(keys)[1:]}
    assert len(expected) >= 2 * 120  # every copy is a loser

    winners = duplicate_winners(content_keys(ds), n_rows=len(rows))
    df = finalize(enriched, cfg, winners).to_pandas()
    dup = df[df["f_duplicate"]]
    assert set(zip(dup["repo"], dup["path"])) == expected
    assert not dup["keep"].any()

    # an empty winner map means "no duplicates"
    assert not finalize(enriched, cfg, {}).to_pandas()["f_duplicate"].any()


def test_row_count_hints_are_checked(corpus, final_df):
    """``n_rows`` is a checked expectation: a collected row count that
    differs (a lost block) raises instead of reporting short counts."""
    from qamd_ray.pipeline import content_keys, duplicate_winners

    ds = ray.data.from_pandas(final_df)
    n = len(final_df)
    assert repo_report(ds, n_rows=n).equals(repo_report(ds))
    with pytest.raises(ValueError, match="repo_report"):
        repo_report(ds, n_rows=n + 1)
    keys = content_keys(ray.data.from_arrow(strip_labels(corpus)))
    assert duplicate_winners(keys, n_rows=n) == duplicate_winners(keys)
    with pytest.raises(ValueError, match="duplicate_winners"):
        duplicate_winners(keys, n_rows=n - 1)


@pytest.fixture
def executions(monkeypatch):
    """Counts the Ray Data executions started while the test runs."""
    from ray.data._internal.execution import streaming_executor as se

    started = []
    real = se.StreamingExecutor.execute

    def spy(self, *args, **kwargs):
        started.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(se.StreamingExecutor, "execute", spy)
    return started


def test_checkpointed_run_starts_two_ray_data_executions(tmp_path, cfg, checkpointed, executions):
    """Phases 1 and 3 are one Ray Data job each; the duplicate verdict is
    merged on the driver without one.  A resume starts at most 2, and a
    resume with every shard valid starts none."""
    src, _, rep = checkpointed
    out = str(tmp_path / "out")
    assert _body(run_checkpointed(src, out, cfg, num_shards=4)) == _body(rep)
    assert len(executions) == 2
    executions.clear()
    for rel in ("enriched/part=1", "final/part=1", "final/part=3"):
        os.remove(os.path.join(out, rel, "manifest.json"))
    assert _body(run_checkpointed(src, out, cfg, num_shards=4)) == _body(rep)
    assert len(executions) == 2
    executions.clear()
    run_checkpointed(src, out, cfg, num_shards=4)
    assert executions == []


def test_tampered_winners_json_is_recomputed(tmp_path, cfg, checkpointed):
    """The winner map is recomputed on every run: a tampered
    ``winners.json`` is rewritten, and the resume reports what the fresh
    run reported.  The final shards, flagged with the recomputed map's
    digest, stay valid."""
    src, out0, rep = checkpointed
    out = str(tmp_path / "out")
    shutil.copytree(out0, out)
    wpath = os.path.join(out, "winners.json")
    with open(wpath, "rb") as f:
        good = f.read()
    winners = json.loads(good)
    assert winners
    with open(wpath, "w") as f:
        json.dump({sha: "zz\x00zz" for sha in winners}, f, sort_keys=True)
    rep2 = run_checkpointed(src, out, cfg, num_shards=4)
    assert _body(rep2) == _body(rep)
    with open(wpath, "rb") as f:
        assert f.read() == good
    digest = hashlib.sha256(good).hexdigest()
    for k in range(4):
        with open(os.path.join(out, "final", f"part={k}", "manifest.json")) as f:
            assert json.load(f)["winners"] == digest


def test_final_manifest_of_another_winner_map_is_recomputed(tmp_path, cfg, checkpointed):
    """A final manifest whose winner digest is not the current map's does
    not validate: that shard is recomputed, and the report is unchanged."""
    src, out0, rep = checkpointed
    out = str(tmp_path / "out")
    shutil.copytree(out0, out)
    mpath = os.path.join(out, "final", "part=2", "manifest.json")
    with open(mpath) as f:
        m = json.load(f)
    with open(mpath, "w") as f:
        json.dump({**m, "winners": "0" * 64}, f)
    rep2 = run_checkpointed(src, out, cfg, num_shards=4)
    assert rep2["run"] == {"shards": 4, "phase1_skipped": 4, "phase3_skipped": 3}
    assert _body(rep2) == _body(rep)
    with open(mpath) as f:
        assert json.load(f)["winners"] == m["winners"]


def test_resume_with_other_num_shards_equals_fresh_run(tmp_path, cfg, checkpointed):
    """A manifest validates only for the head it was built from (row count
    and input row groups included): re-running with another ``num_shards``
    recomputes every shard, ignores the surplus ``part=3`` and reports what
    a fresh 3-shard run reports (the 4-shard manifests' row counts used to
    add up, so 100 of the 400 rows went missing)."""
    src, out0, rep = checkpointed
    out = str(tmp_path / "out")
    shutil.copytree(out0, out)
    got = run_checkpointed(src, out, cfg, num_shards=3)
    assert got["run"] == {"shards": 3, "phase1_skipped": 0, "phase3_skipped": 0}
    assert _body(got) == _body(run_checkpointed(src, str(tmp_path / "fresh"), cfg, num_shards=3))
    assert got["metadata"]["row_count"] == 400


def test_winner_paths_agree(cfg, checkpointed):
    """The file-based verdict, the Dataset verdict and the checkpointed
    run's driver-side merge find the same winners."""
    from qamd_ray.pipeline import _winners_from_files, content_keys, duplicate_winners

    src, out, _ = checkpointed
    with open(os.path.join(out, "winners.json")) as f:
        written = json.load(f)
    assert written
    assert _winners_from_files(src) == written
    assert duplicate_winners(content_keys(ray.data.read_parquet(src)), n_rows=400) == written


def test_null_repo_and_path_rows_are_counted(tmp_path, corpus, cfg):
    """Rows with a null repo count under a null repo group (they used to
    vanish from ``row_count``, and ``repo_report(n_rows=N)`` raised); a
    null repo or path keys the duplicate verdict as ``"None"``."""
    t = strip_labels(corpus).slice(0, 60)
    repo = [None if i < 5 else r for i, r in enumerate(t["repo"].to_pylist())]
    path = [None if 3 <= i < 8 else p for i, p in enumerate(t["path"].to_pylist())]
    content = t["content"].to_pylist()
    content[1] = content[0] = content[20]  # a duplicate with a null repo
    t = t.set_column(0, "repo", pa.array(repo, pa.string()))
    t = t.set_column(t.column_names.index("path"), "path", pa.array(path, pa.string()))
    t = t.set_column(t.column_names.index("content"), "content", pa.array(content, pa.string()))
    final = quality_pipeline(ray.data.from_arrow(t), cfg).materialize()
    rt = repo_report(final, n_rows=60)
    rep = summary_report(rt, locators=locator_samples(final))
    assert rep["metadata"]["row_count"] == 60
    assert rep["metadata"]["repo_count"] == len(set(repo)) == rt.num_rows
    assert rt["repo"].to_pylist()[-1] is None and rt["n_rows"].to_pylist()[-1] == 5

    groups = {}
    for r, p, c in zip(repo, path, content):
        groups.setdefault(c, []).append(f"{r}\x00{p}")
    df = final.to_pandas()
    want = [len(groups[c]) > 1 and f"{r}\x00{p}" != min(groups[c])
            for r, p, c in zip(df["repo"], df["path"], df["content_sha256"].map(
                {hashlib.sha256(c.encode()).hexdigest(): c for c in content}.get))]
    assert df["f_duplicate"].tolist() == want and sum(want) >= 2

    src = str(tmp_path / "nulls.parquet")
    pq.write_table(t, src, row_group_size=20)
    ck = run_checkpointed(src, str(tmp_path / "out"), cfg, num_shards=2)
    assert _body(ck) == rep
