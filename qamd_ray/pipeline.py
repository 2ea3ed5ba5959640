"""The flagship pipeline: language-ID + quality-filter + scrub over code repos.

Ray-Data-native rendering of BASELINE.json's north rule.  Lifecycle
(SURVEY.md §3.4):

    read_parquet (schema repo,path,commit,lang,content)
      → RowRules          (stateless map_batches, zero-copy Arrow)
      → ModelScorers      (langid + perplexity; deterministic models
                           built lazily in each worker process and cached
                           module-level — no actor spin-up)
      → duplicate verdict (each task reduces its (sha, "repo\\x00path")
                           pairs to one Arrow hash aggregate — content
                           never reaches the driver; the partials are
                           merged there and broadcast back)
      → Scrubber + keep   (stateless map_batches)
      → write partitioned Parquet + per-shard lineage manifests
      → per-repo report   (per-batch partial counts → one driver groupby)

Scale notes, explicit:

* Content streams straight from read to write; there is no all-to-all
  exchange.  The two driver reductions are QAMD's one in-RAM table
  (src/readstat/handler.rs:133-151), at every input size.
* The duplicate verdict collects one (sha, row count, smallest key) row
  per distinct content per block and merges them with one Arrow hash
  aggregate.  That is O(distinct contents) driver memory — see README.md
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


def _winner_keys(batch: pa.Table) -> pa.ChunkedArray:
    """The winner identity "repo\\x00path" of every row of ``batch``; a null
    repo or path reads ``None``, as in ``f"{repo}\\x00{path}"``."""
    repo, path = (pc.cast(batch[c], pa.string()) for c in ("repo", "path"))
    return pc.binary_join_element_wise(
        repo, path, "\x00", null_handling="replace", null_replacement="None"
    )


def _winner_partials(batch: pa.Table) -> pa.Table:
    """One row per distinct ``content_sha256`` of ``batch``: its row count
    ``n`` and its smallest key ``min_key`` — one hash aggregate.  Arrow's
    string ``min`` compares UTF-8 bytes, which orders like Python's code
    points, so the smallest key is the lexicographic-min (repo, path)."""
    t = pa.table({"content_sha256": pc.cast(batch["content_sha256"], pa.string()),
                  "key": _winner_keys(batch)})
    g = t.group_by("content_sha256", use_threads=False).aggregate(
        [("key", "min"), ("key", "count")]
    )
    return pa.table({"content_sha256": g["content_sha256"], "n": g["key_count"],
                     "min_key": g["key_min"]})


def _merge_winners(parts: Sequence[pa.Table]) -> dict[str, str]:
    """{content_sha256 → lexicographic-min key} for every sha that
    :func:`_winner_partials` of any grouping of the rows counts more than
    once in total.  A null sha has no winner."""
    if not parts:
        return {}
    g = pa.concat_tables(parts).group_by("content_sha256", use_threads=False).aggregate(
        [("n", "sum"), ("min_key", "min")]
    )
    dup = g.filter(pc.and_(pc.greater(g["n_sum"], 1), pc.is_valid(g["content_sha256"])))
    return dict(zip(dup["content_sha256"].to_pylist(), dup["min_key_min"].to_pylist()))


def _partial_rows(parts: Sequence[pa.Table], col: str) -> int:
    """The rows a set of partials counted in column ``col``."""
    return sum(int(pc.sum(p[col]).as_py() or 0) for p in parts)


def _collect(ds: "ray.data.Dataset") -> list[pa.Table]:
    """Every block of ``ds`` on the driver, as Arrow tables.  (Collecting
    with ``to_arrow_refs`` + ``ray.get`` measured 0.5 s slower per job.)"""
    return list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))


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

    Each block is reduced in its Ray task to :func:`_winner_partials`; the
    driver merges the partials with :func:`_merge_winners` — QAMD's one
    in-RAM table.  ``n_rows``, when given, must equal the row count the
    partials counted.
    """
    parts = _collect(
        enriched.select_columns(["content_sha256", "repo", "path"]).map_batches(
            _winner_partials, batch_format="pyarrow"
        )
    )
    _check_rows("duplicate_winners", _partial_rows(parts, "n"), n_rows)
    return _merge_winners(parts)


# most Ray tasks of the file-based duplicate verdict
WINNER_CHUNKS = 64


def _winners_from_files(paths: Sequence[str] | str) -> dict[str, str]:
    """:func:`duplicate_winners` for Parquet sources: one plain Ray task
    per row-group chunk reads (repo, path, content), hashes, and returns
    only its :func:`_winner_partials`; the driver merges them.  Skips a
    whole Ray-Data job's worth of driver choreography (~0.5 s) —
    significant against a seconds-long run.
    """
    chunks = _shard_row_groups(paths, WINNER_CHUNKS)

    @ray.remote
    def _keys_chunk(chunk: list[dict]) -> pa.Table:
        tbl = pa.concat_tables(
            pq.ParquetFile(t["path"]).read_row_group(t["row_group"], columns=["repo", "path", "content"])
            for t in chunk
        )
        sha = pa.array(K.digest_rows(tbl["content"], "sha256"), pa.string())
        return _winner_partials(tbl.append_column("content_sha256", sha))

    return _merge_winners(ray.get([_keys_chunk.remote(c) for c in chunks]))


def finalize(
    enriched: "ray.data.Dataset",
    config: Config,
    winners: Optional[dict[str, str]] = None,
) -> "ray.data.Dataset":
    """dup flag → scrub → keep column.

    ``winners`` (from :func:`duplicate_winners`) is broadcast to the
    dup-flag tasks as two Arrow arrays (sha, key): O(duplicated distinct
    contents) entries.  A row is a duplicate when its sha has a winner
    whose key is not the row's own."""
    ds = enriched
    q = config.quality_filter
    if q.duplicate_content is not None and q.duplicate_content.setting:
        win = winners or {}
        win_ref = ray.put(
            (pa.array(list(win), pa.string()), pa.array(list(win.values()), pa.string()))
        )

        def _dup(batch: pa.Table) -> pa.Table:
            win_sha, win_key = ray.get(win_ref)
            at = pc.index_in(batch["content_sha256"], value_set=win_sha)
            hit = pc.not_equal(pc.take(win_key, at), _winner_keys(batch))
            return batch.append_column("f_duplicate", pc.fill_null(hit, False))

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


def _partial_schema(sum_cols: Sequence[str]) -> pa.Schema:
    """A per-repo partial count: its repo and one int64 per counted column."""
    return pa.schema([("repo", pa.string())] + [(c, pa.int64()) for c in sum_cols])


# a sum over the rows of a group whose every value is null is 0, not null
_SUM = pc.ScalarAggregateOptions(min_count=0)


def _repo_partials(batch: pa.Table, flags: Sequence[str], keep_col: bool) -> pa.Table:
    """One partial-count row per repo of ``batch`` (a null repo is a group
    of its own): ``n_rows``, the sum of every column of ``flags`` (a null
    flag counts as not set) and, with ``keep_col``, ``n_keep`` — one hash
    aggregate over the projected columns."""
    cols = [*flags] + (["keep"] if keep_col else [])
    g = batch.select(["repo", *cols]).group_by("repo", use_threads=False).aggregate(
        [([], "count_all")] + [(c, "sum", _SUM) for c in cols]
    )
    names = ["n_rows", *flags] + (["n_keep"] if keep_col else [])
    return pa.table(
        [g["repo"], g["count_all"]] + [g[f"{c}_sum"] for c in cols], names=["repo", *names]
    ).cast(_partial_schema(names))


def _sum_partials(parts: Sequence[pa.Table], sum_cols: Sequence[str]) -> pa.Table:
    """Per-repo sums of :func:`_repo_partials` rows, sorted by repo (a null
    repo last).  No partials give an empty table with the same columns."""
    t = pa.concat_tables(parts) if parts else _partial_schema(sum_cols).empty_table()
    g = t.group_by("repo", use_threads=False).aggregate([(c, "sum") for c in sum_cols])
    return pa.table(
        [g["repo"]] + [g[f"{c}_sum"] for c in sum_cols], names=["repo", *sum_cols]
    ).sort_by("repo")


def repo_report(
    final: "ray.data.Dataset",
    *,
    n_rows: Optional[int] = None,
) -> pa.Table:
    """Per-repo pass/fail counts for every flag — one row per repo.

    Per-batch partial aggregation (:func:`_repo_partials` inside
    map_batches) bounds what reaches the driver to O(repos × batches) rows
    regardless of skew; the driver sums the partials per repo with one
    Arrow hash aggregate.  The reference's whole-file counters (report
    summary HashMap) fall out as the column sums of this table.
    ``n_rows``, when given, must equal the number of rows the partials
    counted.
    """
    names = getattr(final, "_qamd_columns", None) or final.schema().names
    flags = _flag_columns(names)
    keep_col = "keep" in names

    def _partials(batch: pa.Table) -> pa.Table:
        # a dataset-level select_columns would break task fusion / force
        # an extra schema-resolving execution of the lazy chain
        return _repo_partials(batch, flags, keep_col)

    parts = _collect(final.map_batches(_partials, batch_format="pyarrow"))
    _check_rows("repo_report", _partial_rows(parts, "n_rows"), n_rows)
    return _sum_partials(parts, flags + ["n_rows"] + (["n_keep"] if keep_col else []))


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


LOCATOR_SCHEMA = pa.schema([("rule", pa.string()), ("repo", pa.string()), ("path", pa.string())])


def _locators(rows: pa.Table, masks: dict) -> pa.Table:
    """Locator rows (``LOCATOR_SCHEMA``): for each rule of ``masks``, in
    rule order, the ``LOCATOR_CAP`` smallest (repo, path) of ``rows`` whose
    mask (a boolean column; null = not set) is set, smallest first.  One
    sort of (repo, path) serves every rule; nulls sort last, as pandas
    places them.  Each output is smallest-k, so applying this again to
    concatenated outputs (masks: ``rule == r``) merges them exactly."""
    keys = rows.select(["repo", "path"])
    order = np.asarray(
        pc.sort_indices(keys, sort_keys=[("repo", "ascending"), ("path", "ascending")],
                        null_placement="at_end")
    )
    rules = sorted(masks)
    picks = [
        order[np.flatnonzero(np.asarray(pc.fill_null(masks[r], False))[order])[:LOCATOR_CAP]]
        for r in rules
    ]
    picked = keys.take(np.concatenate(picks) if picks else np.zeros(0, np.int64))
    rule = pa.array(np.repeat(np.array(rules, dtype=object), [len(p) for p in picks]), pa.string())
    return pa.table(
        [rule, picked["repo"], picked["path"]], names=LOCATOR_SCHEMA.names
    ).cast(LOCATOR_SCHEMA)


def _locator_dict(locs: pa.Table) -> dict[str, list]:
    """{rule → [{repo, path}, …]} of :func:`_locators` rows, in their order."""
    out: dict[str, list] = {}
    for rule, loc in zip(locs["rule"].to_pylist(), locs.select(["repo", "path"]).to_pylist()):
        out.setdefault(rule, []).append(loc)
    return out


def _merge_locators(locs: pa.Table) -> dict[str, list]:
    """{rule → the ``LOCATOR_CAP`` smallest {repo, path}} over locator rows
    of any grouping of the rows."""
    rules = pc.unique(locs["rule"]).to_pylist()
    return _locator_dict(_locators(locs, {r: pc.equal(locs["rule"], r) for r in rules}))


def locator_samples(final: "ray.data.Dataset") -> dict[str, list]:
    """Deterministic failure locators per rule: up to ``LOCATOR_CAP``
    smallest (repo, path) pairs — one pass, per-batch top-k partials
    (:func:`_locators`) merged on the driver (reference emits
    per-failure locators, capped at 1000 in the HTML report,
    src/report/html/mod.rs:110,115)."""
    all_names = getattr(final, "_qamd_columns", None) or final.schema().names
    names = [c for c in all_names if c.startswith("f_")]
    if not names:
        return {}

    def _partials(batch: pa.Table) -> pa.Table:
        return _locators(batch, {c[2:]: batch[c] for c in names})

    parts = _collect(final.map_batches(_partials, batch_format="pyarrow"))
    return _merge_locators(pa.concat_tables(parts) if parts else LOCATOR_SCHEMA.empty_table())


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


def _valid_manifest(part_dir: str, keys: Sequence[str], head: dict) -> Optional[dict]:
    """The shard's manifest if the shard is complete, else None.  Complete:
    the manifest parses, carries every key of ``keys`` and every entry of
    ``head`` (what this run builds the shard from: its row count, config
    digest, input row groups and, in phase 3, winner digest), and the Parquet row counts of
    ``data/`` (metadata only — no data read) sum to its ``rows`` (an empty
    shard has an empty ``data/``)."""
    try:
        with open(os.path.join(part_dir, "manifest.json")) as f:
            m = json.load(f)
        if (
            not os.path.isdir(os.path.join(part_dir, "data"))
            or any(k not in m for k in keys)
            or any(m.get(k) != v for k, v in head.items())
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
    partials = pa.Table.from_pylist(
        [p for s in parts for p in s["partials"]], schema=_partial_schema(sum_cols)
    )
    locs = pa.Table.from_pylist(
        [{"rule": r, **loc} for s in parts for r, ls in s["locators"].items() for loc in ls],
        schema=LOCATOR_SCHEMA,
    )
    return _sum_partials([partials], sum_cols), _merge_locators(locs)


def _write_if_changed(path: str, body: bytes) -> str:
    """Writes ``body`` to ``path`` (atomically) unless the file already
    holds exactly these bytes; → the sha256 of ``body``."""
    import hashlib

    try:
        with open(path, "rb") as f:
            same = f.read() == body
    except OSError:
        same = False
    if not same:
        with open(path + ".tmp", "wb") as f:
            f.write(body)
        os.replace(path + ".tmp", path)
    return hashlib.sha256(body).hexdigest()


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
    the shard must reach.  A shard whose manifest validates (carries
    ``keys`` and every entry of ``heads[k]``) is skipped.  ``job(pending)`` builds ONE Dataset over all
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
        if (m := _valid_manifest(p, keys, heads[k])) is not None
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
    duplicate verdict) runs no Ray job: on every run the driver merges the
    winner partials of the enriched files' (sha, repo, path) columns and
    rewrites ``winners.json`` only when its bytes change.  A shard is published (``data/`` by
    rename, then ``manifest.json``) as soon as its rows are written, and a
    shard whose manifest validates is skipped on restart — lineage +
    metrics per partition, recompute = 0 for finished shards.  Every
    manifest records its row count, wall time and the digest of the config
    it was written under (a manifest of another config, or of none, does
    not validate, so that shard is recomputed); phase 1's also its input
    row groups and content bytes, phase 3's the same input row groups, the
    sha256 of the ``winners.json`` bytes it was flagged with, its keep
    count, per-repo
    partial counts and per-rule smallest locators.  A shard whose manifest
    differs from this run's in any of these is recomputed.  The report is merged
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

    # ---- phase 2: global duplicate verdict, merged on the driver ---------
    # recomputed on every run from the enriched files' (sha, repo, path)
    # columns, so a re-enriched shard can never meet a stale winner map;
    # each final manifest records the digest of the map it was flagged with
    q = config.quality_filter
    winners: dict[str, str] = {}
    win_digest = None
    if q.duplicate_content is not None and q.duplicate_content.setting:
        winners = _merge_winners([
            _winner_partials(pq.read_table(f, columns=["content_sha256", "repo", "path"]))
            for k in range(len(enr))
            for f in _shard_files(os.path.join(enr_dir, f"part={k}"))
        ])
        win_digest = _write_if_changed(
            os.path.join(out_dir, "winners.json"), json.dumps(winners, sort_keys=True).encode()
        )

    # ---- phase 3: dup flag + scrub + keep --------------------------------
    flags = _flag_columns(_final_columns(config))
    fails = [c for c in flags if c.startswith("f_")]
    sum_cols = flags + ["n_rows", "n_keep"]

    def _final_stats(rows: pa.Table, footer: "pq.FileMetaData") -> dict:
        return {
            "partials": _repo_partials(rows, flags, True).to_pylist(),
            "locators": _locator_dict(_locators(rows, {c[2:]: rows[c] for c in fails})),
        }

    def _final_summary(files: list[dict]) -> dict:
        rt, locs = _merge_final_stats(files, sum_cols)
        keep = int(pc.sum(rt["n_keep"]).as_py() or 0)
        return {"keep": keep, "partials": rt.to_pylist(), "locators": locs}

    fin, fin_skipped = _run_phase(
        fin_dir,
        [
            {"rows": m["rows"], "config": digest, "inputs": m["inputs"], "winners": win_digest}
            for m in enr
        ],
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
