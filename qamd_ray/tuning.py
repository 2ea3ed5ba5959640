"""Read-parallelism tuning for Parquet inputs.

Ray's parquet reader splits work at row-group granularity, and the
streaming executor sizes the read op's output from
``DataContext.read_op_min_num_blocks`` (default 200).  Two effects,
both measured on this repo's 24k-row / 61 MB / 32-CPU flagship bench:

* The DEFAULT (200) splinters a small input into ~3 MB blocks whose
  per-task driver round trips dominate the job — ``2 × num_cpus``
  blocks was consistently faster (round-2 finding, BENCH.md).
* Asking for MORE output blocks than the input has row groups makes
  the read op append a block-split stage, which blocks
  ReadParquet->MapBatches operator fusion — the table then round-trips
  the object store once between the read and the first map chain.
  Controlled interleaved A/B of split-64-blocks vs fused-47-blocks on
  the flagship was INCONCLUSIVE (each direction won one session by
  ~0.6 s): the extra copy is cheap on shared-memory plasma, while
  47 blocks over 32 CPUs quantizes into 1.5 task waves and idles half
  the cores in the tail.  Block-count balance matters at least as much
  as fusion, so we do NOT cap at the row-group count.

``tune_read_parallelism`` therefore sets ``max(2 * num_cpus, 32)`` —
enough blocks for every core to get two waves of work.  At real corpus
scale row groups vastly outnumber this and the read op never splits;
the setting exists for the small-input regime (tests, sandbox benches,
per-shard reads), where the default's splintering is the real cost.
"""

from __future__ import annotations

import os
from typing import Optional


def tune_read_parallelism(num_cpus: Optional[int] = None) -> int:
    """Set ``DataContext.read_op_min_num_blocks`` to
    ``max(2 * num_cpus, 32)`` and return it.  Call once per job, after
    ``ray.init``.  The value does not depend on the input — the module
    docstring records why row-group capping is deliberately not
    applied."""
    import ray
    from ray.data import DataContext

    if num_cpus is None:
        try:
            num_cpus = int(ray.cluster_resources().get("CPU", 0)) or None
        except Exception:  # pragma: no cover - cluster not up
            num_cpus = None
    if num_cpus is None:
        num_cpus = os.cpu_count() or 8
    value = max(2 * num_cpus, 32)
    DataContext.get_current().read_op_min_num_blocks = value
    return value
