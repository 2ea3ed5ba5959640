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
  Parquet row group and runs ONE Ray Data job per phase over all pending
  shards.  Its writer stage writes each shard's ``part=<k>/`` Parquet
  files; the driver publishes a shard (``data/`` by directory rename, then
  ``manifest.json``) as soon as its rows are written, and on restart skips
  shards whose manifest validates.  The final manifests carry per-repo
  partial counts and per-rule locators, so the report is merged from the
  manifests without reading any written file back.
"""

from __future__ import annotations

import glob
import json
import os
import time
from typing import Callable, Optional, Sequence, Union

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
        ds._qamd_columns = _final_columns(
            config, list(base.names) if base is not None else None
        )
    except Exception:  # pragma: no cover - advisory only
        pass
    return ds


def _final_columns(config: Config, enriched_names: Optional[list[str]] = None) -> list[str]:
    """Columns of finalize(config) output over an enriched table with
    ``enriched_names`` (default: :func:`_enriched_columns`)."""
    names = enriched_names if enriched_names is not None else _enriched_columns(config)
    q = config.quality_filter
    if q.duplicate_content is not None and q.duplicate_content.setting:
        names.append("f_duplicate")
    if Scrubber.from_config(config) is not None:
        names.extend(["scrubbed", "n_scrubs"])
    names.append("keep")
    return names


def _enriched_columns(config: Config, input_names: Sequence[str] = INPUT_COLUMNS) -> list[str]:
    """Expected columns of enrich(config) output, derived without
    executing the lazy chain.  The ``f_`` columns come in the order the
    stages append them, which orders the checks of every report built
    from these names."""
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


def _repo_partials(batch: pa.Table, flags: Sequence[str], keep_col: bool) -> pd.DataFrame:
    """One partial-count row per repo of ``batch``: ``n_rows``, the sum of
    every column of ``flags`` and, with ``keep_col``, ``n_keep``."""
    # project away content BEFORE the pandas conversion (zero-copy Arrow
    # select) — pandas-ifying the wide final table (content strings →
    # objects) costs more than the aggregation itself
    df = batch.select(["repo", *flags] + (["keep"] if keep_col else [])).to_pandas()
    agg = {c: (c, "sum") for c in flags}
    if keep_col:
        agg["n_keep"] = ("keep", "sum")
    return df.groupby("repo", sort=False).agg(n_rows=("repo", "size"), **agg).reset_index()


def _sum_partials(pdf: pd.DataFrame, sum_cols: Sequence[str]) -> pa.Table:
    """Per-repo sums of :func:`_repo_partials` rows, sorted by repo.  An
    empty ``pdf`` (a zero-row input collects to a frame without columns)
    gives an empty table with the same columns."""
    if pdf.empty:
        return pa.table(
            {"repo": pa.array([], pa.string()), **{c: pa.array([], pa.int64()) for c in sum_cols}}
        )
    rep = pdf.groupby("repo", sort=False)[list(sum_cols)].sum().reset_index()
    return pa.Table.from_pandas(rep, preserve_index=False).sort_by("repo")


def repo_report(
    final: "ray.data.Dataset",
    *,
    n_rows: Optional[int] = None,
) -> pa.Table:
    """Per-repo pass/fail counts for every flag — one row per repo.

    Per-batch partial aggregation (:func:`_repo_partials` inside
    map_batches) bounds what reaches the driver to O(repos × batches) rows
    regardless of skew; the driver sums the partials per repo with one
    pandas groupby.  The reference's whole-file counters (report summary
    HashMap) fall out as the column sums of this table.  ``n_rows``,
    when given, must equal the number of rows the partials counted.
    """
    names = getattr(final, "_qamd_columns", None) or final.schema().names
    flags = _flag_columns(names)
    keep_col = "keep" in names

    def _partials(batch: pa.Table) -> pd.DataFrame:
        # a dataset-level select_columns would break task fusion / force
        # an extra schema-resolving execution of the lazy chain
        return _repo_partials(batch, flags, keep_col)

    pdf = final.map_batches(_partials, batch_format="pyarrow").to_pandas()
    _check_rows("repo_report", 0 if pdf.empty else int(pdf["n_rows"].sum()), n_rows)
    return _sum_partials(pdf, flags + ["n_rows"] + (["n_keep"] if keep_col else []))


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


def _locator_partials(batch: pa.Table, flags: Sequence[str]) -> pd.DataFrame:
    """Up to ``LOCATOR_CAP`` smallest (repo, path) pairs of ``batch`` per
    flag column set → columns ``repo``, ``path``, ``rule``."""
    # project away content before the pandas conversion, as
    # _repo_partials does
    df = batch.select(["repo", "path", *flags]).to_pandas()
    outs = []
    for c in flags:
        sub = df.loc[df[c].fillna(False), ["repo", "path"]]
        if len(sub):
            sub = sub.sort_values(["repo", "path"]).head(LOCATOR_CAP)
            outs.append(sub.assign(rule=c[2:]))
    if not outs:
        return pd.DataFrame({"repo": [], "path": [], "rule": []})
    return pd.concat(outs, ignore_index=True)


def _merge_locators(parts: pd.DataFrame) -> dict[str, list]:
    """{rule → the ``LOCATOR_CAP`` smallest {repo, path}} over partials
    with columns ``repo``, ``path``, ``rule``.  Each partial is already
    smallest-k, so merging is exact in any grouping of the rows."""
    out: dict[str, list] = {}
    if parts.empty:
        return out
    top = parts.sort_values(["rule", "repo", "path"]).groupby("rule", sort=False).head(LOCATOR_CAP)
    for rule, r, p in zip(top["rule"], top["repo"], top["path"]):
        out.setdefault(rule, []).append({"repo": r, "path": p})
    return out


def locator_samples(final: "ray.data.Dataset") -> dict[str, list]:
    """Deterministic failure locators per rule: up to ``LOCATOR_CAP``
    smallest (repo, path) pairs — one pass, per-batch top-k partials
    (:func:`_locator_partials`) merged on the driver (reference emits
    per-failure locators, capped at 1000 in the HTML report,
    src/report/html/mod.rs:110,115)."""
    all_names = getattr(final, "_qamd_columns", None) or final.schema().names
    names = [c for c in all_names if c.startswith("f_")]
    if not names:
        return {}

    def _partials(batch: pa.Table) -> pd.DataFrame:
        return _locator_partials(batch, names)

    return _merge_locators(final.map_batches(_partials, batch_format="pyarrow").to_pandas())


# ---------------------------------------------------------------------------
# checkpointed, resumable run (north rule: restart skips finished partitions)
# ---------------------------------------------------------------------------

# shard number of each row inside a checkpoint job; never written
SHARD_COL = "__shard__"
# what the writer stage returns: one row per Parquet file it wrote
WRITTEN_SCHEMA = pa.schema(
    [("shard", pa.int64()), ("file", pa.string()), ("rows", pa.int64()), ("stats", pa.string())]
)


def _shard_row_groups(paths: Sequence[str] | str, num_shards: int) -> list[list[dict]]:
    from .sources import row_group_tasks

    tasks = row_group_tasks(paths)
    shards: list[list[dict]] = [[] for _ in range(min(num_shards, max(1, len(tasks))))]
    for i, t in enumerate(tasks):
        shards[i % len(shards)].append(t)
    return [s for s in shards if s]


def _read_shard(tasks: list[dict], columns: Optional[list[str]]) -> "ray.data.Dataset":
    """One Ray task per read task: the row group ``row_group`` of ``path``,
    or the whole file when ``row_group`` is None.  Each row carries the
    task's ``shard`` in ``SHARD_COL``."""

    def _read(batch: pa.Table) -> pa.Table:
        out = []
        for task in batch.to_pylist():
            pf = pq.ParquetFile(task["path"])
            if task["row_group"] is None:
                t = pf.read(columns=columns)
            else:
                t = pf.read_row_group(task["row_group"], columns=columns)
            shard = pa.array(np.full(len(t), task["shard"], dtype=np.int64))
            out.append(t.append_column(SHARD_COL, shard))
        return pa.concat_tables(out)

    return ray.data.from_items(tasks, override_num_blocks=len(tasks)).map_batches(
        _read, batch_size=1, batch_format="pyarrow"
    )


def _shard_files(part_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(part_dir, "data", "*.parquet")))


def _config_digest(config: Config) -> str:
    """sha256 of the resolved config, every section and setting included."""
    import dataclasses
    import hashlib

    body = json.dumps(dataclasses.asdict(config), sort_keys=True, default=repr)
    return hashlib.sha256(body.encode()).hexdigest()


def _valid_manifest(part_dir: str, keys: Sequence[str], config: str) -> Optional[dict]:
    """The shard's manifest if the shard is complete, else None.  Complete:
    the manifest parses, carries every key of ``keys``, was written under
    the config whose digest is ``config``, and the Parquet row counts of
    ``data/`` (metadata only — no data read) sum to its ``rows`` (an empty
    shard has an empty ``data/``)."""
    try:
        with open(os.path.join(part_dir, "manifest.json")) as f:
            m = json.load(f)
        if (
            not os.path.isdir(os.path.join(part_dir, "data"))
            or any(k not in m for k in keys)
            or m.get("config") != config
        ):
            return None
        rows = sum(pq.read_metadata(p).num_rows for p in _shard_files(part_dir))
        return m if rows == m["rows"] else None
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _merge_final_stats(parts: Sequence[dict], sum_cols: list[str]) -> tuple[pa.Table, dict]:
    """Per-repo ``partials`` and per-rule ``locators`` of final files (into
    a shard's) or of final shards (into the run's) → (repo table, locators).
    Partials sum per repo; locators are smallest-k, so they merge exactly."""
    rt = _sum_partials(pd.DataFrame([p for s in parts for p in s["partials"]]), sum_cols)
    locs = pd.DataFrame(
        [{**loc, "rule": r} for s in parts for r, ls in s["locators"].items() for loc in ls]
    )
    return rt, _merge_locators(locs)


def _content_bytes(rows: pa.Table, footer: "pq.FileMetaData") -> dict:
    """Enriched-file stats: the content column's uncompressed bytes."""
    ci = footer.schema.to_arrow_schema().get_field_index("content")
    return {
        "content_bytes": sum(
            footer.row_group(i).column(ci).total_uncompressed_size
            for i in range(footer.num_row_groups)
        )
    }


def _publish(part_dir: str, files: set[str], manifest: dict) -> None:
    """Publishes a shard: drops any file in ``.data.tmp`` the writer did
    not report (left by a retried task), renames it to ``data``, then
    writes ``manifest.json``."""
    import shutil

    tmp = os.path.join(part_dir, ".data.tmp")
    for name in os.listdir(tmp):
        if name not in files:
            os.remove(os.path.join(tmp, name))
    data_dir = os.path.join(part_dir, "data")
    shutil.rmtree(data_dir, ignore_errors=True)
    os.replace(tmp, data_dir)
    mpath = os.path.join(part_dir, "manifest.json")
    with open(mpath + ".tmp", "w") as f:
        json.dump(manifest, f)
    os.replace(mpath + ".tmp", mpath)


def _run_phase(
    phase_dir: str,
    heads: list[dict],
    keys: Sequence[str],
    job: Callable[[list[int]], "ray.data.Dataset"],
    stats: Callable[[pa.Table, "pq.FileMetaData"], dict],
    summarize: Callable[[list[dict]], dict],
) -> tuple[list[dict], int]:
    """One checkpoint phase → (every shard's manifest, shards skipped).

    ``heads[k]`` starts shard k's manifest; its ``rows`` is the row count
    the shard must reach and its ``config`` the run's config digest.  A
    shard whose manifest validates (carries ``keys`` and that digest) is
    skipped.  ``job(pending)`` builds ONE Dataset over all
    pending shards, whose rows carry ``SHARD_COL``; a writer stage ends it.
    The writer writes each shard's rows of a batch to one Parquet file in
    that shard's ``part=<k>/.data.tmp/`` and returns one small row per
    file: ``stats(rows, footer)`` from the batch and the writer's own
    footer (``metadata_collector``), so nothing written is read back.  The
    driver reads these rows as they stream in and publishes a shard as
    soon as its rows have all arrived, so a crash mid-phase keeps every
    shard already published.  ``summarize`` turns a shard's per-file
    stats into the rest of its manifest.
    """
    import shutil

    def _write(batch: pa.Table) -> pa.Table:
        import uuid

        out: dict[str, list] = {name: [] for name in WRITTEN_SCHEMA.names}
        shard = batch[SHARD_COL]
        shards = pc.unique(shard).to_pylist()
        for k in shards:
            rows = batch if len(shards) == 1 else batch.filter(pc.equal(shard, k))
            rows = rows.drop_columns([SHARD_COL])
            name = f"{uuid.uuid4().hex}.parquet"
            md: list = []
            pq.write_table(
                rows, os.path.join(phase_dir, f"part={k}", ".data.tmp", name),
                metadata_collector=md,
            )
            out["shard"].append(k)
            out["file"].append(name)
            out["rows"].append(md[0].num_rows)
            out["stats"].append(json.dumps(stats(rows, md[0])))
        return pa.table(out, schema=WRITTEN_SCHEMA)

    t0 = time.time()
    parts = [os.path.join(phase_dir, f"part={k}") for k in range(len(heads))]
    done = {
        k: m
        for k, p in enumerate(parts)
        if (m := _valid_manifest(p, keys, heads[k]["config"])) is not None
    }
    skipped = len(done)
    pending = [k for k in range(len(heads)) if k not in done]
    for k in pending:
        # a stale manifest must not validate a half-published shard
        if os.path.exists(os.path.join(parts[k], "manifest.json")):
            os.remove(os.path.join(parts[k], "manifest.json"))
        shutil.rmtree(os.path.join(parts[k], ".data.tmp"), ignore_errors=True)
        os.makedirs(os.path.join(parts[k], ".data.tmp"))
    written: dict[int, list[tuple[str, dict]]] = {k: [] for k in pending}
    got = dict.fromkeys(pending, 0)

    def publish(k: int) -> None:
        files = written[k]
        done[k] = {**heads[k], "wall_s": round(time.time() - t0, 3),
                   **summarize([s for _, s in files])}
        _publish(parts[k], {f for f, _ in files}, done[k])

    for k in pending:
        if heads[k]["rows"] == 0:
            publish(k)
    if len(done) < len(heads):
        ds = job(pending).map_batches(_write, batch_size=None, batch_format="pyarrow")
        for block in ds.iter_batches(batch_size=None, batch_format="pyarrow"):
            for row in block.to_pylist():
                k = row["shard"]
                written[k].append((row["file"], json.loads(row["stats"])))
                got[k] += row["rows"]
                if got[k] == heads[k]["rows"]:
                    publish(k)
    short = {k: (got[k], heads[k]["rows"]) for k in pending if k not in done}
    if short:
        raise RuntimeError(f"{phase_dir}: shards written short, (rows, expected): {short}")
    return [done[k] for k in range(len(heads))], skipped


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

    Phase 1 (rules + models) and phase 3 (dup flag + scrub + keep) each
    run ONE Ray Data job over all of their pending shards; phase 2 (the
    duplicate verdict) is one more.  A shard is published (``data/`` by
    rename, then ``manifest.json``) as soon as its rows are written, and a
    shard whose manifest validates is skipped on restart — lineage +
    metrics per partition, recompute = 0 for finished shards.  Every
    manifest records its row count, wall time and the digest of the config
    it was written under (a manifest of another config, or of none, does
    not validate, so that shard is recomputed); phase 1's also its input
    row groups and content bytes, phase 3's its keep count, per-repo
    partial counts and per-rule smallest locators.  The report is merged
    from the phase-3 manifests alone: no file under ``final/`` is read.
    """
    shards = _shard_row_groups(input_paths, num_shards)
    digest = _config_digest(config)
    enr_dir = os.path.join(out_dir, "enriched")
    fin_dir = os.path.join(out_dir, "final")
    os.makedirs(enr_dir, exist_ok=True)
    os.makedirs(fin_dir, exist_ok=True)

    # ---- phase 1: rules + models -----------------------------------------
    enr, enr_skipped = _run_phase(
        enr_dir,
        [
            {"rows": sum(t["num_rows"] for t in tasks), "config": digest, "inputs": tasks}
            for tasks in shards
        ],
        (),
        lambda pending: enrich(
            _read_shard([{**t, "shard": k} for k in pending for t in shards[k]], INPUT_COLUMNS),
            config,
        ),
        _content_bytes,
        lambda files: {"content_bytes": sum(s["content_bytes"] for s in files)},
    )

    # ---- phase 2: global duplicate verdict over the enriched projection --
    winners_path = os.path.join(out_dir, "winners.json")
    q = config.quality_filter
    winners: dict[str, str] = {}
    if q.duplicate_content is not None and q.duplicate_content.setting:
        if os.path.exists(winners_path):
            with open(winners_path) as f:
                winners = json.load(f)
        else:
            enriched_files = sorted(glob.glob(os.path.join(enr_dir, "part=*", "data", "*.parquet")))
            if enriched_files:  # a zero-row input writes none
                proj = ray.data.read_parquet(
                    enriched_files, columns=["content_sha256", "repo", "path"]
                )
                winners = duplicate_winners(proj)
            with open(winners_path + ".tmp", "w") as f:
                json.dump(winners, f, sort_keys=True)
            os.replace(winners_path + ".tmp", winners_path)

    # ---- phase 3: dup flag + scrub + keep --------------------------------
    flags = _flag_columns(_final_columns(config))
    sum_cols = flags + ["n_rows", "n_keep"]

    def _final_stats(rows: pa.Table, footer: "pq.FileMetaData") -> dict:
        fails = [c for c in flags if c.startswith("f_")]
        return {
            "partials": _repo_partials(rows, flags, True).to_dict("records"),
            "locators": _merge_locators(_locator_partials(rows, fails)),
        }

    def _final_summary(files: list[dict]) -> dict:
        rt, locs = _merge_final_stats(files, sum_cols)
        keep = int(pc.sum(rt["n_keep"]).as_py() or 0)
        return {"keep": keep, "partials": rt.to_pylist(), "locators": locs}

    fin, fin_skipped = _run_phase(
        fin_dir,
        [{"rows": m["rows"], "config": digest} for m in enr],
        ("partials", "locators"),
        lambda pending: finalize(
            _read_shard(
                [
                    {"path": p, "row_group": None, "shard": k}
                    for k in pending
                    for p in _shard_files(os.path.join(enr_dir, f"part={k}"))
                ],
                None,
            ),
            config,
            winners,
        ),
        _final_stats,
        _final_summary,
    )

    # ---- report: merged from the phase-3 manifests ------------------------
    rt, locs = _merge_final_stats(fin, sum_cols)
    rep = summary_report(rt, metadata_only=bool(config.metadata_only), locators=locs)
    rep["run"] = {"shards": len(shards), "phase1_skipped": enr_skipped, "phase3_skipped": fin_skipped}
    with open(os.path.join(out_dir, "report.json"), "w") as f:
        json.dump(rep, f, indent=2)
    return rep
