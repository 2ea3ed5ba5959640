"""Seeded input generators for the three workloads, cached per seed.

Everything here runs single-process, without Ray, before any timing
starts.  Each workload's inputs go to
``.bench_cache/v<GEN_VERSION>/<workload>/s<seed>/``
in the checkout together with ``expected.json`` — the values the
correctness checks compare against (row counts, oracle keep labels,
distinct-value totals).  A directory is published by one rename, so an
interrupted generation is redone on the next run.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np

CACHE_ROOT = ".bench_cache"
# bump when a generator changes so stale caches are not reused
GEN_VERSION = 2

CODE_ROWS = 1500
CODE_REPOS = 40
CODE_LINES = (40, 160)  # realistic 2-6 KB source files
CODE_ROW_GROUP = 256

SKEW_ROWS = 1200
SKEW_REPOS = 40
SKEW_LINES = (2, 6)  # short files: a few lines each
SKEW_SHARDS = 4
SKEW_GIANT_SHARE = 0.5
SKEW_HOT_SHARE = 0.3
SKEW_COPIES_PER_HOT_TEXT = 15

STAT_ROWS = 1000
WARM_ROWS = 40


def _sha256(s: str) -> str:
    return hashlib.sha256(s.encode("utf-8", "surrogatepass")).hexdigest()


def _oracle_file(table, out_path: str) -> dict:
    """Oracle keep labels + input hashes keyed by (repo, path)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from qamd_ray.gen_config import quality_config
    from qamd_ray.oracle import oracle_labels

    keys = list(zip(table["repo"].to_pylist(), table["path"].to_pylist()))
    if len(set(keys)) != len(keys):
        raise ValueError("generated corpus has repeated (repo, path) keys")
    labels = oracle_labels(table, quality_config())
    contents = [c or "" for c in table["content"].to_pylist()]
    pq.write_table(
        pa.table(
            {
                "repo": table["repo"],
                "path": table["path"],
                "keep": labels["keep"],
                "in_sha256": pa.array([_sha256(c) for c in contents], pa.string()),
            }
        ),
        out_path,
    )
    keep = labels["keep"].to_pylist()
    return {
        "rows": table.num_rows,
        "content_mb": sum(len(c.encode("utf-8", "surrogatepass")) for c in contents) / 1e6,
        "oracle_keep": int(sum(keep)),
    }


def _write_code_corpus(d: str, seed: int) -> dict:
    from qamd_ray.synth import strip_labels, write_corpus

    t = write_corpus(
        os.path.join(d, "corpus.parquet"), n_rows=CODE_ROWS, n_repos=CODE_REPOS,
        seed=seed, row_group_size=CODE_ROW_GROUP, lines=CODE_LINES,
    )
    return _oracle_file(strip_labels(t), os.path.join(d, "oracle.parquet"))


def skew_table(seed: int):
    """Short-file corpus with one giant repo holding ~half the rows and
    ~30% of rows rewritten to a small pool of hot texts (exact duplicates).
    Giant-repo rows keep their old repo name as a path prefix, so every
    (repo, path) stays unique."""
    import pyarrow as pa

    from qamd_ray.synth import _rng, gen_content, gen_corpus, strip_labels

    t = strip_labels(
        gen_corpus(n_rows=SKEW_ROWS, n_repos=SKEW_REPOS, seed=seed, lines=SKEW_LINES)
    )
    rng = _rng(seed + 7)
    n_hot = max(1, int(SKEW_ROWS * SKEW_HOT_SHARE) // SKEW_COPIES_PER_HOT_TEXT)
    hot = [gen_content("python", rng, n_lines=4) for _ in range(n_hot)]
    giant = rng.random(SKEW_ROWS) < SKEW_GIANT_SHARE
    hot_of = np.where(
        rng.random(SKEW_ROWS) < SKEW_HOT_SHARE, rng.integers(0, n_hot, SKEW_ROWS), -1
    )
    repo = t["repo"].to_pylist()
    path = t["path"].to_pylist()
    content = t["content"].to_pylist()
    for i in range(SKEW_ROWS):
        if giant[i]:
            path[i] = f"{repo[i].split('/', 1)[1]}/{path[i]}"
            repo[i] = "org/giant"
        if hot_of[i] >= 0:
            content[i] = hot[hot_of[i]]
    return (
        t.set_column(0, "repo", pa.array(repo, pa.string()))
        .set_column(1, "path", pa.array(path, pa.string()))
        .set_column(4, "content", pa.array(content, pa.string()))
    )


def _write_skew_corpus(d: str, seed: int) -> dict:
    import pyarrow.parquet as pq

    t = skew_table(seed)
    # two row groups per shard
    pq.write_table(
        t, os.path.join(d, "corpus.parquet"),
        row_group_size=-(-SKEW_ROWS // (2 * SKEW_SHARDS)),
    )
    return _oracle_file(t, os.path.join(d, "oracle.parquet"))


def stat_frame(n_rows: int, seed: int):
    """16 variables: low-cardinality labelled numerics with NaN missing,
    high-cardinality floats with NaN, integer codes, low-cardinality
    strings (with empty values) and high-cardinality string ids."""
    import pandas as pd

    rng = np.random.default_rng(seed)
    cols: dict = {}
    for j in range(4):
        v = rng.integers(1, 6, n_rows).astype(np.float64)
        v[rng.random(n_rows) < 0.05] = np.nan
        cols[f"cat{j}"] = v
    for j in range(4):
        v = np.round(rng.normal(50.0, 10.0, n_rows), 3)
        v[rng.random(n_rows) < 0.03] = np.nan
        cols[f"num{j}"] = v
    for j in range(2):
        cols[f"code{j}"] = rng.integers(0, 40, n_rows).astype(np.int32)
    words = np.array(["alpha", "beta", "gamma", "delta", "epsilon", ""])
    for j in range(3):
        cols[f"word{j}"] = words[rng.integers(0, len(words), n_rows)]
    for j in range(3):
        cols[f"id{j}"] = [f"id{x:09d}" for x in rng.integers(0, 10**9, n_rows)]
    return pd.DataFrame(cols)


def _write_dta(path: str, n_rows: int, seed: int) -> tuple[int, int]:
    """→ (variables, distinct values summed over variables, pandas nunique
    with NaN counted as one value — the frequency table's "" cell)."""
    import pandas as pd

    df = stat_frame(n_rows, seed)
    labels = {f"cat{j}": {1: "one", 2: "two", 3: "three", 4: "four", 5: "five"} for j in range(4)}
    df.to_stata(
        path, write_index=False, version=118, value_labels=labels,
        variable_labels={c: f"variable {c}" for c in df.columns},
    )
    back = pd.read_stata(path, convert_categoricals=False)
    return back.shape[1], int(sum(back[c].nunique(dropna=False) for c in back.columns))


def _write_stat_file(d: str, seed: int) -> dict:
    n_vars, distinct = _write_dta(os.path.join(d, "data.dta"), STAT_ROWS, seed)
    _write_dta(os.path.join(d, "warm.dta"), WARM_ROWS, seed + 1)
    return {
        "rows": STAT_ROWS,
        "variables": n_vars,
        "distinct_total": distinct,
        "file_mb": os.path.getsize(os.path.join(d, "data.dta")) / 1e6,
    }


GENERATORS = {
    "code_uniform": _write_code_corpus,
    "code_skew_resume": _write_skew_corpus,
    "stat_healthcheck": _write_stat_file,
}


def ensure_inputs(workload: str, seed: int) -> str:
    """Generate (or reuse) the inputs for ``workload`` at ``seed``; returns
    the absolute input directory."""
    d = os.path.abspath(os.path.join(CACHE_ROOT, f"v{GEN_VERSION}", workload, f"s{seed}"))
    if os.path.isfile(os.path.join(d, "expected.json")):
        return d
    tmp = d + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    expected = GENERATORS[workload](tmp, seed)
    with open(os.path.join(tmp, "expected.json"), "w") as f:
        json.dump(expected, f)
    shutil.rmtree(d, ignore_errors=True)
    os.replace(tmp, d)
    return d
