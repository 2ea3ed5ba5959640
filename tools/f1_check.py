"""Keep/drop F1 + scrub byte-equality vs the single-process oracle at
bench scale — the BASELINE.json headline metric measured beyond the
600/5k-row pytest corpora.

    python tools/f1_check.py [n_rows] [seed]     # default 24000, seed 4242

Generates a fresh labeled corpus (qamd_ray.synth.gen_corpus — single
process so (repo, path) keys stay unique), writes it to /tmp as
multi-row-group parquet (so the pipeline runs genuinely parallel, not one
from_arrow block), starts Ray on the machine's usable CPUs, runs the flagship
`quality_pipeline`, and diffs keep/scrub decisions row-by-row against
`qamd_ray.oracle.oracle_labels`. Prints one JSON line.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    n_rows = int(sys.argv[1]) if len(sys.argv) > 1 else 24000
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 4242

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=len(os.sched_getaffinity(0)),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from qamd_ray.gen_config import quality_config
    from qamd_ray.oracle import oracle_labels
    from qamd_ray.pipeline import quality_pipeline
    from qamd_ray.synth import gen_corpus, strip_labels

    corpus = gen_corpus(n_rows=n_rows, n_repos=120, seed=seed, lines=(40, 160))
    cfg = quality_config()
    labels = (
        oracle_labels(strip_labels(corpus), cfg)
        .to_pandas()
        .sort_values(["repo", "path"])
        .reset_index(drop=True)
    )

    src = tempfile.mkdtemp(prefix="f1_corpus_")
    pq.write_table(
        strip_labels(corpus), os.path.join(src, "part0.parquet"), row_group_size=512
    )
    final = (
        quality_pipeline(src, cfg)
        .to_pandas()
        .sort_values(["repo", "path"])
        .reset_index(drop=True)
    )

    assert (final["repo"] == labels["repo"]).all() and (
        final["path"] == labels["path"]
    ).all(), "row alignment broke — (repo, path) keys must be unique"

    y_true = labels["keep"].to_numpy()
    y_pred = final["keep"].to_numpy()
    tp = int((y_true & y_pred).sum())
    fp = int((~y_true & y_pred).sum())
    fn = int((y_true & ~y_pred).sum())
    f1 = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 1.0

    scrub_equal = bool(
        (final["content"].to_numpy() == labels["scrubbed_content"].to_numpy()).all()
    )
    untouched = final[~final["scrubbed"]]
    sha_ok = all(
        hashlib.sha256(c.encode("utf-8", "surrogatepass")).hexdigest() == h
        for c, h in zip(untouched["content"], untouched["content_sha256"])
    )

    print(
        json.dumps(
            {
                "metric": "keep/drop F1 vs oracle labels",
                "value": round(f1, 6),
                "n_rows": n_rows,
                "seed": seed,
                "fp": fp,
                "fn": fn,
                "keep_rate": round(float(y_pred.mean()), 4),
                "scrubbed_text_byte_equal": scrub_equal,
                "passthrough_sha256_ok": bool(sha_ok),
                "n_scrubbed": int(final["scrubbed"].sum()),
            }
        )
    )
    ray.shutdown()
    return 0 if (f1 >= 0.99 and scrub_equal and sha_ok) else 1


if __name__ == "__main__":
    raise SystemExit(main())
