"""Sources: Parquet readers for the engine.

``read_parquet_with_row_index`` and ``read_row_group`` replace the
reference's push-streaming readers (src/readstat/read.rs:21-39 dispatch;
csv/read.rs:23-187): the reference assigns each cell a row number as the
file streams through one thread. Here the same provenance is recovered
deterministically by mapping Parquet row groups to global row offsets from
file metadata, then reading one row group at a time — in a Ray task per
row group (``read_parquet_with_row_index``, no ordering assumption on block
delivery) or in this process (``read_row_group``).
"""

from __future__ import annotations

import glob
import os
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

if TYPE_CHECKING:
    import ray.data

ROW_COL = "__row__"


def _expand(paths: str | Sequence[str]) -> list[str]:
    if isinstance(paths, str):
        paths = [paths]
    out: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            hits: list[str] = []
            for ext in ("parquet", "dta", "sav", "por", "sas7bdat", "xpt", "csv"):
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


def read_row_group(task: dict, columns: Optional[list[str]]) -> pa.Table:
    """One row group of a :func:`row_group_tasks` task, with its global row
    index in ``ROW_COL``."""
    tbl = pq.ParquetFile(task["path"]).read_row_group(task["row_group"], columns=columns)
    idx = pa.array(np.arange(task["offset"], task["offset"] + len(tbl), dtype=np.int64))
    return tbl.append_column(ROW_COL, idx)


def read_parquet_with_row_index(
    paths: str | Sequence[str],
    columns: Optional[list[str]] = None,
) -> "ray.data.Dataset":
    """Read Parquet into a Dataset carrying a global row-index column
    (``ROW_COL``).

    Columns are pruned at the read (only ``columns`` leave storage).
    Each task reads exactly one row group — bounded memory, scales with
    row-group count, resumable at row-group granularity.
    """
    import ray.data

    tasks = row_group_tasks(paths)
    if not tasks:
        raise FileNotFoundError(f"no parquet files under {paths!r}")

    def _read(batch: pa.Table) -> pa.Table:
        return pa.concat_tables(
            [read_row_group(task, columns) for task in batch.to_pylist()]
        )

    # one BLOCK per task: from_items defaults to a single block, which
    # would make the whole read (and everything fused onto it) run in one
    # serial Ray task
    return ray.data.from_items(tasks, override_num_blocks=len(tasks)).map_batches(
        _read, batch_size=1, batch_format="pyarrow"
    )
