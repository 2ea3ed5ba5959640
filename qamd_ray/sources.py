"""Sources: Parquet readers for the engine.

``read_parquet_with_row_index`` replaces the reference's push-streaming
readers (src/readstat/read.rs:21-39 dispatch; csv/read.rs:23-187): the
reference assigns each cell a row number as the file streams through one
thread. Distributed, the same provenance is recovered deterministically by
mapping Parquet row groups to global row offsets from file metadata, then
reading one row group per task — no ordering assumption on block delivery,
arbitrarily many files, no driver-side data movement.
"""

from __future__ import annotations

import glob
import os
from typing import Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

ROW_COL = "__row__"


def _expand(paths: str | Sequence[str]) -> list[str]:
    if isinstance(paths, str):
        paths = [paths]
    out: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            hits: list[str] = []
            for ext in (
                "parquet",
                "csv",
                "csv.gz",
                "jsonl",
                "jsonl.gz",
                "ndjson",
                "ndjson.gz",
                "json",
                "json.gz",
                "feather",
                "arrow",
                "ipc",
                "orc",
                "dta",
                "sav",
                "por",
                "sas7bdat",
                "xpt",
            ):
                hits = sorted(
                    glob.glob(os.path.join(p, "**", f"*.{ext}"), recursive=True)
                )
                if hits:
                    break
            out.extend(hits)
        elif any(ch in p for ch in "*?["):
            out.extend(sorted(glob.glob(p)))
        else:
            out.append(p)
    return out


def row_group_tasks(paths: str | Sequence[str]) -> list[dict]:
    """One task per Parquet row group with its global row offset.

    Offsets are assigned in (sorted file, row-group) order — a total order
    independent of execution, so "first occurrence" is well-defined under
    any parallelism (SURVEY.md §4 ordering note).
    """
    tasks: list[dict] = []
    offset = 0
    for path in _expand(paths):
        meta = pq.ParquetFile(path).metadata
        for rg in range(meta.num_row_groups):
            n = meta.row_group(rg).num_rows
            tasks.append({"path": path, "row_group": rg, "offset": offset, "num_rows": n})
            offset += n
    return tasks


def read_parquet_with_row_index(
    paths: str | Sequence[str],
    columns: Optional[list[str]] = None,
    row_col: str = ROW_COL,
) -> "ray.data.Dataset":
    """Read Parquet into a Dataset carrying a global row-index column.

    Columns are pruned at the read (only ``columns`` leave storage).
    Each task reads exactly one row group — bounded memory, scales with
    row-group count, resumable at row-group granularity.
    """
    tasks = row_group_tasks(paths)
    if not tasks:
        raise FileNotFoundError(f"no parquet files under {paths!r}")

    def _read(batch: pa.Table) -> pa.Table:
        out = []
        for task in batch.to_pylist():
            pf = pq.ParquetFile(task["path"])
            tbl = pf.read_row_group(task["row_group"], columns=columns)
            idx = pa.array(
                np.arange(task["offset"], task["offset"] + len(tbl), dtype=np.int64)
            )
            out.append(tbl.append_column(row_col, idx))
        return pa.concat_tables(out)

    # one BLOCK per task: from_items defaults to a single block, which
    # would make the whole read (and everything fused onto it) run in one
    # serial Ray task
    return ray.data.from_items(tasks, override_num_blocks=len(tasks)).map_batches(
        _read, batch_size=1, batch_format="pyarrow"
    )


def read_table(
    paths: str | Sequence[str],
    columns: Optional[list[str]] = None,
    empty_string_is_null: bool = True,
) -> "ray.data.Dataset":
    """Fuzzy reader dispatch by file extension (reference: read() picks a
    parser by extension and errors otherwise, src/readstat/read.rs:21-39).

    The statistical formats collapse to the two formats this engine
    ingests: ``.parquet`` and ``.csv`` (the reference's pure-Rust CSV path,
    src/readstat/csv/read.rs).  For CSV, the reference's "empty cell ⇒
    SYSTEM_MISSING" rule (csv/read.rs:112-115) is applied as a vectorized
    empty→null rewrite so downstream null handling is uniform.
    Unknown extensions raise, like the reference's dispatcher.
    """
    files = _expand(paths)
    if not files:
        raise FileNotFoundError(f"no input files under {paths!r}")

    def _ext(f: str) -> str:
        # honour the double suffix of compressed text formats (.csv.gz,
        # .jsonl.gz) — pyarrow's open_input_stream(compression='detect')
        # decompresses them transparently inside the read tasks
        base, gz = (f[:-3], ".gz") if f.lower().endswith(".gz") else (f, "")
        return os.path.splitext(base)[1].lower() + gz

    exts = {_ext(f) for f in files}
    if exts <= {".feather", ".arrow", ".ipc"}:
        # Arrow IPC / Feather v1+v2 — one read task per file (Ray Data has
        # no built-in IPC datasource; the file is the natural block unit)
        import pyarrow.feather as _feather

        def _read_ipc(batch: pa.Table) -> pa.Table:
            t = _feather.read_table(batch["path"][0].as_py(), columns=columns)
            return t

        ds = ray.data.from_items(
            [{"path": f} for f in files], override_num_blocks=len(files)
        ).map_batches(_read_ipc, batch_size=1, batch_format="pyarrow")
        return ds
    if exts <= {".parquet", ".pq"}:
        return ray.data.read_parquet(files, columns=columns)
    if exts <= {".orc"}:
        # ORC — one read task per STRIPE (ORC's row-group analogue), so a
        # few huge files still parallelize; stripe enumeration is a cheap
        # driver-side footer read, column pruning happens inside the task
        import pyarrow.orc as _orc

        units = [
            {"path": f, "stripe": s}
            for f in files
            for s in range(_orc.ORCFile(f).nstripes)
        ]

        def _read_stripe(batch: pa.Table) -> pa.Table:
            import pyarrow.orc as _o

            path = batch["path"][0].as_py()
            stripe = batch["stripe"][0].as_py()
            rb = _o.ORCFile(path).read_stripe(stripe, columns=columns)
            return pa.Table.from_batches([rb])

        return ray.data.from_items(
            units, override_num_blocks=len(units)
        ).map_batches(_read_stripe, batch_size=1, batch_format="pyarrow")
    if exts <= {".dta", ".sav", ".por", ".sas7bdat", ".xpt"}:
        # native statistical readers (data only — use readers.read_stat_table
        # directly when the header metadata is needed too)
        from .readers import read_stat_table

        ds, _meta = read_stat_table(files)
        if columns:
            ds = ds.select_columns(columns)
        return ds
    if exts <= {".jsonl", ".ndjson", ".json", ".jsonl.gz", ".ndjson.gz", ".json.gz"}:
        # newline-delimited JSON — the other lingua franca of corpus
        # interchange (read_json handles both jsonl and json arrays)
        ds = ray.data.read_json(files)
        if columns:
            ds = ds.select_columns(columns)
        return ds
    if exts <= {".csv", ".csv.gz"}:
        # pin every column to string so cells keep their raw text — CSV
        # columns are always Text in the reference (csv/read.rs:84-91);
        # inference would normalize '01'→1, '1.50'→1.5
        import csv as _csv

        import pyarrow.csv as pacsv

        # utf-8-sig: strip a UTF-8 BOM if present so the pinned column name
        # matches Arrow's (pyarrow.csv strips the BOM; plain utf-8 would keep
        # '﻿' in the first name and silently un-pin that column)
        if files[0].lower().endswith(".gz"):
            import gzip as _gzip

            opener = _gzip.open(files[0], "rt", encoding="utf-8-sig", newline="")
        else:
            opener = open(files[0], "r", encoding="utf-8-sig", newline="")
        with opener as fh:
            header = next(_csv.reader(fh), None)
        if header is None:
            raise ValueError(f"empty CSV file: {files[0]}")
        ds = ray.data.read_csv(
            files,
            convert_options=pacsv.ConvertOptions(
                strings_can_be_null=True,
                column_types={name: pa.string() for name in header},
            ),
        )
        if columns:
            ds = ds.select_columns(columns)
        if empty_string_is_null:
            import pyarrow.compute as pc

            def _null_empty(batch: pa.Table) -> pa.Table:
                for i, field in enumerate(batch.schema):
                    if pa.types.is_string(field.type) or pa.types.is_large_string(field.type):
                        col = batch.column(i)
                        mask = pc.equal(col, "")
                        batch = batch.set_column(
                            i, field.name, pc.if_else(pc.fill_null(mask, False), None, col)
                        )
                return batch

            ds = ds.map_batches(_null_empty, batch_format="pyarrow")
        return ds
    raise ValueError(
        f"unsupported input extension(s) {sorted(exts)}; expected parquet/orc/"
        "csv[.gz]/jsonl[.gz]/feather/arrow or a statistical format "
        "(.dta/.sav/.por/.sas7bdat/.xpt)"
    )


def total_rows(paths: str | Sequence[str]) -> int:
    return sum(t["num_rows"] for t in row_group_tasks(paths))
