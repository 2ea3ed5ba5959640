"""The flagship pipeline: language-ID + quality-filter + scrub over code repos.

Ray-Data-native rendering of BASELINE.json's north rule.  Lifecycle
(SURVEY.md §3.4):

    read_parquet (schema repo,path,commit,lang,content)
      → RowRules          (stateless map_batches, zero-copy Arrow)
      → ModelScorers      (langid + perplexity; deterministic models
                           built lazily in each worker process and cached
                           module-level — no actor spin-up)
      → duplicate verdict (only (sha, "repo\\x00path") leaves each task —
                           content never reaches the driver; winner map
                           reduced there and broadcast back)
      → Scrubber + keep   (stateless map_batches)
      → write partitioned Parquet + per-shard lineage manifests
      → per-repo report   (per-batch partial counts → one driver groupby)

Scale notes, explicit:

* Content streams straight from read to write; there is no all-to-all
  exchange.  The two driver reductions are QAMD's one in-RAM table
  (src/readstat/handler.rs:133-151), at every input size.
* The duplicate verdict collects one (sha, key) pair per input row and
  reduces it in pandas.  That is O(rows) driver memory — see README.md
  for the measured cost per million rows.
* The per-repo report collects one partial-count row per (repo × batch),
  so giant-repo skew never grows it beyond the batch count — the
  salted-key pattern of SURVEY.md §4 strengthened to a full combiner.
* Checkpoint/resume (north rule): ``run_checkpointed`` shards the input by
  Parquet row group, writes ``part=<k>/data/`` (task-written Parquet files,
  atomically published by directory rename) + ``manifest.json`` per shard,
  and on restart skips shards whose manifest validates.
"""

from __future__ import annotations

import glob
import json
import os
import time
from typing import Optional, Sequence, Union

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

from . import kernels as K
from .config import Config
from .models import ModelScorers
from .report import LOCATOR_CAP
from .rules import RULES, RowRules, flag_col, keep_expression
from .scrub import Scrubber

Datasetish = Union[str, Sequence[str], "ray.data.Dataset"]

INPUT_COLUMNS = ["repo", "path", "commit", "lang", "content"]


def _as_dataset(source: Datasetish, columns: Optional[list[str]] = None) -> "ray.data.Dataset":
    if isinstance(source, (str, list, tuple)):
        return ray.data.read_parquet(list(source) if not isinstance(source, str) else source,
                                     columns=columns)
    return source


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


MODEL_BATCH_SIZE = 512


def enrich(ds: "ray.data.Dataset", config: Config) -> "ray.data.Dataset":
    """rules → fused langid+perplexity, all stateless tasks.

    The models are deterministic and cheap to build (~0.5 s), so each
    worker process constructs them lazily on first use and caches them
    module-level (models._CACHE, via ``default()``) — measured faster
    than both an actor pool (per-run actor spin-up) and object-store
    broadcast (fetch + localize of ~70 MB of tables costs more than
    re-training)."""
    out = ds.map_batches(RowRules(config), batch_format="pyarrow")
    kw = ModelScorers.from_config(config)
    if kw is not None:
        # plain tasks with lazy per-worker model construction — no actor
        # spin-up; warm worker processes keep the models cached
        out = out.map_batches(
            ModelScorers(**kw),
            batch_format="pyarrow",
            batch_size=MODEL_BATCH_SIZE,
        )
    return out


def content_keys(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """(content_sha256, repo, path) straight from the input — the light
    projection for the dup-winner pass.  Content is read and hashed, then
    dropped in the same task; only three short string columns leave it."""

    def _keys(batch: pa.Table) -> pa.Table:
        # hash straight from the Arrow values buffer — no per-row Python
        # str allocation (kernels.digest_rows); nulls hash as ""
        sha = K.digest_rows(batch["content"], "sha256")
        return pa.table(
            {
                "content_sha256": pa.array(sha, pa.string()),
                "repo": batch["repo"],
                "path": batch["path"],
            }
        )

    return ds.map_batches(_keys, batch_format="pyarrow")


def _row_keys(batch: pa.Table) -> list[str]:
    """The winner identity "repo\\x00path" of every row of ``batch``."""
    return [
        f"{r}\x00{p}"
        for r, p in zip(batch["repo"].to_pylist(), batch["path"].to_pylist())
    ]


def _winner_map(df: pd.DataFrame) -> dict[str, str]:
    """{content_sha256 → lexicographic-min key} for every sha that occurs
    more than once in ``df`` (columns ``content_sha256``, ``key``) — one
    vectorized pandas reduction, no per-group Python.  An empty ``df``
    (a zero-row input collects to a frame without columns) has none."""
    if df.empty:
        return {}
    dups = df[df.duplicated("content_sha256", keep=False)]
    return dict(dups.groupby("content_sha256", sort=False)["key"].min().items())


def _check_rows(what: str, got: int, n_rows: Optional[int]) -> None:
    """``n_rows`` is the caller's expected input row count; a different
    collected count means a block was lost on the way to the driver."""
    if n_rows is not None and got != n_rows:
        raise ValueError(f"{what}: expected {n_rows} input rows, collected {got}")


def duplicate_winners(
    enriched: "ray.data.Dataset",
    n_rows: Optional[int] = None,
) -> dict[str, str]:
    """{content_sha256 → winner "repo\\x00path"} for every sha seen >1×.

    DuplicateValues re-expressed (reference counts singletons in its in-RAM
    frequency table, src/check/post.rs:229-260).  "First" = lexicographic
    min (repo,path) — order-independent under any parallelism.  The winner
    map is small (one entry per DUPLICATED distinct content) and is
    broadcast to the dup-flag stage.

    The (sha, key) projection is built in Ray tasks and collected to the
    driver, which reduces it with :func:`_winner_map` — QAMD's one in-RAM
    table.  ``n_rows``, when given, must equal the collected row count.
    """

    def _with_key(batch: pa.Table) -> pa.Table:
        key = pa.array(_row_keys(batch), pa.string())
        return pa.table({"content_sha256": batch["content_sha256"], "key": key})

    df = (
        enriched.select_columns(["content_sha256", "repo", "path"])
        .map_batches(_with_key, batch_format="pyarrow")
        .to_pandas()
    )
    _check_rows("duplicate_winners", len(df), n_rows)
    return _winner_map(df)


# most Ray tasks of the file-based duplicate verdict
WINNER_CHUNKS = 64


def _winners_from_files(paths: Sequence[str] | str) -> dict[str, str]:
    """:func:`duplicate_winners` for Parquet sources: one plain Ray task
    per row-group chunk reads (repo, path, content), hashes, and returns
    only (sha, key) arrays; the driver reduces them with
    :func:`_winner_map`.  Skips a whole Ray-Data job's worth of driver
    choreography (~0.5 s) — significant against a seconds-long run.
    """
    chunks = _shard_row_groups(paths, WINNER_CHUNKS)

    @ray.remote
    def _keys_chunk(chunk: list[dict]) -> tuple[list[str], list[str]]:
        shas: list[str] = []
        keys: list[str] = []
        for t in chunk:
            tbl = pq.ParquetFile(t["path"]).read_row_group(
                t["row_group"], columns=["repo", "path", "content"]
            )
            shas.extend(K.digest_rows(tbl["content"], "sha256"))
            keys.extend(_row_keys(tbl))
        return shas, keys

    parts = ray.get([_keys_chunk.remote(c) for c in chunks])
    return _winner_map(
        pd.DataFrame(
            {
                "content_sha256": np.concatenate([p[0] for p in parts]) if parts else [],
                "key": np.concatenate([p[1] for p in parts]) if parts else [],
            }
        )
    )


def finalize(
    enriched: "ray.data.Dataset",
    config: Config,
    winners: Optional[dict[str, str]] = None,
) -> "ray.data.Dataset":
    """dup flag → scrub → keep column.

    ``winners`` (from :func:`duplicate_winners`) is broadcast to the
    dup-flag tasks: O(duplicated distinct contents) entries."""
    ds = enriched
    q = config.quality_filter
    if q.duplicate_content is not None and q.duplicate_content.setting:
        win_ref = ray.put(winners or {})

        def _dup(batch: pa.Table) -> pa.Table:
            wmap = ray.get(win_ref)
            if not wmap:
                return batch.append_column(
                    "f_duplicate", pa.array(np.zeros(len(batch), dtype=bool))
                )
            shas = batch["content_sha256"].to_pylist()
            hit = np.fromiter(
                (
                    s in wmap and key != wmap[s]
                    for s, key in zip(shas, _row_keys(batch))
                ),
                bool,
                len(batch),
            )
            return batch.append_column("f_duplicate", pa.array(hit))

        ds = ds.map_batches(_dup, batch_format="pyarrow")
    scrubber = Scrubber.from_config(config)
    if scrubber is not None:
        ds = ds.map_batches(scrubber, batch_format="pyarrow")
    # keep_expression derives the drop columns from each batch's own
    # column names — calling ds.schema() here would execute the lazy
    # finalize chain once per probe just to learn the names
    ds = ds.map_batches(keep_expression(), batch_format="pyarrow")
    # propagate the known output column names so downstream report helpers
    # don't need a limit-1 execution of this chain just to read the schema
    try:
        base = enriched.schema(fetch_if_missing=False)
        names = (
            list(base.names) if base is not None else _enriched_columns(config)
        )
        if q.duplicate_content is not None and q.duplicate_content.setting:
            names.append("f_duplicate")
        if scrubber is not None:
            names.extend(["scrubbed", "n_scrubs"])
        names.append("keep")
        ds._qamd_columns = names
    except Exception:  # pragma: no cover - advisory only
        pass
    return ds


def _enriched_columns(config: Config, input_names: Sequence[str] = INPUT_COLUMNS) -> list[str]:
    """Expected columns of enrich(config) output, derived without
    executing the lazy chain (membership is what the report helpers need;
    exact ordering is irrelevant)."""
    r = RowRules(config)
    names = list(input_names) + ["content_sha256", "n_bytes", "n_lines", "max_line_len"]
    if "odd_ratio" in r.enabled:
        names.append("odd_char_ratio")
    names += [flag_col(n) for n in r.enabled]
    kw = ModelScorers.from_config(config)
    if kw is not None:
        if kw.get("langid_kwargs") is not None:
            names += ["langid_pred", "langid_conf", "f_langid"]
        if kw.get("ppl_kwargs") is not None:
            names += ["ppl_bits", "f_perplexity"]
    return names


def quality_pipeline(source: Datasetish, config: Config) -> "ray.data.Dataset":
    """End-to-end, fully streaming — nothing is materialized.

    Two passes over the SOURCE (the standard dedup-then-filter shape):

    1. light key pass — ``content_keys``: content is hashed and dropped
       inside each task; only (sha, repo, path) leave it, reduced to the
       winner map;
    2. one fused pass — read → rules → models → dup flag → scrub → keep:
       all plain ``map_batches`` stages, which Ray fuses into a single
       task chain per block, so content never round-trips the object
       store (an earlier materialize-based variant pushed ~2 bytes of
       plasma traffic per content byte and capped scaling).

    Re-reading the source twice assumes a re-readable input (Parquet; a
    ``from_arrow``/trivially-recomputable Dataset).  For expensive
    upstream lineage or restartable jobs use :func:`run_checkpointed`,
    which persists the enriched intermediate to Parquet instead.
    """
    ds = _as_dataset(source, columns=INPUT_COLUMNS)
    winners = None
    q = config.quality_filter
    if q.duplicate_content is not None and q.duplicate_content.setting:
        if isinstance(source, (str, list, tuple)):
            winners = _winners_from_files(source)
        else:
            winners = duplicate_winners(content_keys(ds))
    enriched = enrich(ds, config)
    return finalize(enriched, config, winners)


# ---------------------------------------------------------------------------
# per-repo report — QAMD's summary, grouped by repo (the "data file" unit)
# ---------------------------------------------------------------------------

# rule name → QAMD category (SURVEY.md §2.2 mapping)
RULE_CATEGORY = {
    "bad_path": "BasicFile",
    "path_odd": "Metadata",
    "path_len": "Metadata",
    "missing_lang": "Metadata",
    "content_odd": "DataIntegrity",
    "odd_ratio": "DataIntegrity",
    "control_ratio": "DataIntegrity",
    "line_len": "Metadata",
    "avg_line_len": "Metadata",
    "min_len": "DataIntegrity",
    "max_len": "DataIntegrity",
    "alnum": "DataIntegrity",
    "date": "DataIntegrity",
    "stopword_only": "DisclosureRisk",
    "spell_ratio": "DataIntegrity",
    "langid": "DataIntegrity",
    "perplexity": "DataIntegrity",
    "duplicate": "DataIntegrity",
}


def _flag_columns(names: Sequence[str]) -> list[str]:
    return [c for c in names if c.startswith("f_")] + [
        c for c in ("scrubbed",) if c in names
    ]


def repo_report(
    final: "ray.data.Dataset",
    *,
    n_rows: Optional[int] = None,
) -> pa.Table:
    """Per-repo pass/fail counts for every flag — one row per repo.

    Per-batch partial aggregation (pandas groupby inside map_batches)
    bounds what reaches the driver to O(repos × batches) rows regardless
    of skew; the driver sums the partials per repo with one pandas
    groupby.  The reference's whole-file counters (report summary
    HashMap) fall out as the column sums of this table.  ``n_rows``,
    when given, must equal the number of rows the partials counted.
    """
    names = getattr(final, "_qamd_columns", None) or final.schema().names
    flags = _flag_columns(names)
    keep_col = "keep" in names

    cols = ["repo", *flags] + (["keep"] if keep_col else [])

    def _partials(batch: pa.Table) -> pd.DataFrame:
        # project away content BEFORE the pandas conversion (zero-copy
        # Arrow select) — pandas-ifying the wide final table (content
        # strings → objects) costs more than the aggregation itself.
        # A dataset-level select_columns would break task fusion / force
        # an extra schema-resolving execution of the lazy chain.
        batch = batch.select(cols).to_pandas()
        agg = {c: (c, "sum") for c in flags}
        if keep_col:
            agg["n_keep"] = ("keep", "sum")
        g = batch.groupby("repo", sort=False).agg(
            n_rows=("repo", "size"), **agg
        )
        return g.reset_index()

    partials = final.map_batches(_partials, batch_format="pyarrow")
    sum_cols = flags + ["n_rows"] + (["n_keep"] if keep_col else [])
    pdf = partials.to_pandas()
    if pdf.empty:
        # a zero-row input collects to a frame without columns
        _check_rows("repo_report", 0, n_rows)
        return pa.table(
            {"repo": pa.array([], pa.string()), **{c: pa.array([], pa.int64()) for c in sum_cols}}
        )
    _check_rows("repo_report", int(pdf["n_rows"].sum()), n_rows)
    rep = pdf.groupby("repo", sort=False)[sum_cols].sum().reset_index()
    return pa.Table.from_pandas(rep, preserve_index=False).sort_by("repo")


def summary_report(repo_table: pa.Table, metadata_only: bool = False,
                   locators: Optional[dict[str, list]] = None) -> dict:
    """QAMD-shaped global summary: per-check {pass, fail, desc, category}
    (Status shape, /root/reference/src/report/mod.rs:126-132), with
    pass = total_rows − fail (row-level accounting)."""
    total = int(pc.sum(repo_table["n_rows"]).as_py() or 0)
    rule_desc = {r.name: r.desc for r in RULES}
    summary = {}
    for col in repo_table.column_names:
        if not col.startswith("f_"):
            continue
        name = col[2:]
        fail = int(pc.sum(repo_table[col]).as_py() or 0)
        entry = {
            "pass": total - fail,
            "fail": fail,
            "desc": rule_desc.get(name, name),
            "category": RULE_CATEGORY.get(name, "DataIntegrity"),
        }
        if not metadata_only and locators and name in locators:
            entry["locators"] = locators[name][:LOCATOR_CAP]
        summary[name] = entry
    out = {
        "metadata": {
            "row_count": total,
            "repo_count": repo_table.num_rows,
            "keep_count": int(pc.sum(repo_table["n_keep"]).as_py() or 0)
            if "n_keep" in repo_table.column_names
            else None,
            "scrubbed_count": int(pc.sum(repo_table["scrubbed"]).as_py() or 0)
            if "scrubbed" in repo_table.column_names
            else None,
        },
        "summary": summary,
    }
    return out


def locator_samples(final: "ray.data.Dataset") -> dict[str, list]:
    """Deterministic failure locators per rule: up to ``LOCATOR_CAP``
    smallest (repo, path) pairs — one pass, per-batch top-k partials
    merged on the driver (reference emits per-failure locators, capped at
    1000 in the HTML report, src/report/html/mod.rs:110,115)."""
    all_names = getattr(final, "_qamd_columns", None) or final.schema().names
    names = [c for c in all_names if c.startswith("f_")]
    if not names:
        return {}
    loc_cols = ["repo", "path", *names]

    def _partials(batch: pa.Table) -> pd.DataFrame:
        # project away content before the pandas conversion, as
        # repo_report does
        batch = batch.select(loc_cols).to_pandas()
        outs = []
        for c in names:
            sub = batch.loc[batch[c].fillna(False), ["repo", "path"]]
            if len(sub):
                sub = sub.sort_values(["repo", "path"]).head(LOCATOR_CAP)
                sub = sub.assign(rule=c[2:])
                outs.append(sub)
        if not outs:
            return pd.DataFrame({"repo": [], "path": [], "rule": []})
        return pd.concat(outs, ignore_index=True)

    parts = final.map_batches(_partials, batch_format="pyarrow").to_pandas()
    out: dict[str, list] = {}
    for rule, g in parts.groupby("rule"):
        g = g.sort_values(["repo", "path"]).head(LOCATOR_CAP)
        out[rule] = [{"repo": r, "path": p} for r, p in zip(g["repo"], g["path"])]
    return out


# ---------------------------------------------------------------------------
# checkpointed, resumable run (north rule: restart skips finished partitions)
# ---------------------------------------------------------------------------


def _shard_row_groups(paths: Sequence[str] | str, num_shards: int) -> list[list[dict]]:
    from .sources import row_group_tasks

    tasks = row_group_tasks(paths)
    shards: list[list[dict]] = [[] for _ in range(min(num_shards, max(1, len(tasks))))]
    for i, t in enumerate(tasks):
        shards[i % len(shards)].append(t)
    return [s for s in shards if s]


def _read_shard(tasks: list[dict], columns: Optional[list[str]]) -> "ray.data.Dataset":
    def _read(batch: pa.Table) -> pa.Table:
        out = []
        for task in batch.to_pylist():
            pf = pq.ParquetFile(task["path"])
            out.append(pf.read_row_group(task["row_group"], columns=columns))
        return pa.concat_tables(out)

    return ray.data.from_items(tasks, override_num_blocks=len(tasks)).map_batches(
        _read, batch_size=1, batch_format="pyarrow"
    )


def _shard_files(part_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(part_dir, "data", "*.parquet")))


def _manifest_ok(manifest_path: str) -> bool:
    """A shard is complete iff its manifest parses and the data directory's
    Parquet row counts (metadata only — no data read) sum to the recorded
    count."""
    try:
        with open(manifest_path) as f:
            m = json.load(f)
        files = _shard_files(os.path.dirname(manifest_path))
        return bool(files) and sum(pq.read_metadata(p).num_rows for p in files) == m["rows"]
    except (OSError, ValueError, KeyError):
        return False


def _write_shard(ds: "ray.data.Dataset", part_dir: str) -> tuple[int, list[str]]:
    """Distributed, atomic shard write: Ray tasks write Parquet files to a
    temp dir (data never passes through the driver), then one rename
    publishes it.  → (row_count, files)."""
    import shutil

    tmp = os.path.join(part_dir, ".data.tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    ds.write_parquet(tmp)
    rows = sum(pq.read_metadata(p).num_rows for p in glob.glob(os.path.join(tmp, "*.parquet")))
    data_dir = os.path.join(part_dir, "data")
    shutil.rmtree(data_dir, ignore_errors=True)
    os.replace(tmp, data_dir)
    return rows, _shard_files(part_dir)


def run_checkpointed(
    input_paths: Sequence[str] | str,
    out_dir: str,
    config: Config,
    *,
    num_shards: int = 16,
) -> dict:
    """Three-phase resumable run; returns the run summary (also written to
    ``out_dir/report.json``).

    Layout:  ``out_dir/enriched/part=<k>/{data/,manifest.json}``
             ``out_dir/final/part=<k>/{data/,manifest.json}``
             ``out_dir/winners.json``  ``out_dir/report.json``

    Each manifest records its input row groups, row count and wall time;
    a shard whose manifest validates is skipped on restart — lineage +
    metrics per partition, recompute = 0 for finished shards.
    """
    shards = _shard_row_groups(input_paths, num_shards)
    enr_dir = os.path.join(out_dir, "enriched")
    fin_dir = os.path.join(out_dir, "final")
    os.makedirs(enr_dir, exist_ok=True)
    os.makedirs(fin_dir, exist_ok=True)
    stats = {"shards": len(shards), "phase1_skipped": 0, "phase3_skipped": 0}

    # ---- phase 1: rules + models per shard -------------------------------
    for k, tasks in enumerate(shards):
        part = os.path.join(enr_dir, f"part={k}")
        mpath = os.path.join(part, "manifest.json")
        if _manifest_ok(mpath):
            stats["phase1_skipped"] += 1
            continue
        t0 = time.time()
        os.makedirs(part, exist_ok=True)
        ds = _read_shard(tasks, INPUT_COLUMNS)
        enriched = enrich(ds, config)
        rows, files = _write_shard(enriched, part)
        content_bytes = 0
        for p in files:
            md = pq.read_metadata(p)
            sch = md.schema.to_arrow_schema()
            ci = sch.get_field_index("content")
            if ci >= 0:
                content_bytes += sum(
                    md.row_group(i).column(ci).total_uncompressed_size
                    for i in range(md.num_row_groups)
                )
        with open(mpath + ".tmp", "w") as f:
            json.dump(
                {
                    "rows": rows,
                    "inputs": tasks,
                    "wall_s": round(time.time() - t0, 3),
                    "content_bytes": content_bytes,
                },
                f,
            )
        os.replace(mpath + ".tmp", mpath)

    # ---- phase 2: global duplicate verdict over the enriched projection --
    winners_path = os.path.join(out_dir, "winners.json")
    q = config.quality_filter
    winners: dict[str, str] = {}
    if q.duplicate_content is not None and q.duplicate_content.setting:
        if os.path.exists(winners_path):
            with open(winners_path) as f:
                winners = json.load(f)
        else:
            proj = ray.data.read_parquet(
                sorted(glob.glob(os.path.join(enr_dir, "part=*", "data", "*.parquet"))),
                columns=["content_sha256", "repo", "path"],
            )
            winners = duplicate_winners(proj)
            with open(winners_path + ".tmp", "w") as f:
                json.dump(winners, f, sort_keys=True)
            os.replace(winners_path + ".tmp", winners_path)

    # ---- phase 3: dup flag + scrub + keep, per shard ---------------------
    for k in range(len(shards)):
        part = os.path.join(fin_dir, f"part={k}")
        mpath = os.path.join(part, "manifest.json")
        if _manifest_ok(mpath):
            stats["phase3_skipped"] += 1
            continue
        t0 = time.time()
        os.makedirs(part, exist_ok=True)
        src = _shard_files(os.path.join(enr_dir, f"part={k}"))
        ds = ray.data.read_parquet(src)
        final = finalize(ds, config, winners)
        rows, files = _write_shard(final, part)
        n_keep = 0
        for p in files:
            t = pq.read_table(p, columns=["keep"])
            n_keep += int(pc.sum(t["keep"]).as_py() or 0)
        with open(mpath + ".tmp", "w") as f:
            json.dump(
                {
                    "rows": rows,
                    "keep": n_keep,
                    "wall_s": round(time.time() - t0, 3),
                },
                f,
            )
        os.replace(mpath + ".tmp", mpath)

    # ---- report ----------------------------------------------------------
    final_files = sorted(
        glob.glob(os.path.join(fin_dir, "part=*", "data", "*.parquet"))
    )
    final_ds = ray.data.read_parquet(final_files)
    rt = repo_report(final_ds)
    locs = locator_samples(final_ds)
    rep = summary_report(rt, metadata_only=bool(config.metadata_only), locators=locs)
    rep["run"] = stats
    with open(os.path.join(out_dir, "report.json"), "w") as f:
        json.dump(rep, f, indent=2)
    return rep
