"""qamd_ray — a Ray-Data-native data-quality / quality-filter engine.

A from-scratch reimplementation of the capabilities of ukdataservice/qamd
("QAMyData", reference at /root/reference) on top of ray.data.Dataset:

* ``qamd_ray.healthcheck`` — the QAMD check registry (16 named checks,
  reference src/check/mod.rs:26-55) run in one process over Arrow tables:
  in-RAM frequency table via Arrow hash group-by, vectorized rule kernels,
  QAMD-shaped report.
* ``qamd_ray.pipeline`` — the scale path: a language-ID + quality-filter +
  PII/toxicity-scrub pipeline over Parquet tables of source-code repos
  (schema ``repo,path,commit,lang,content`` — BASELINE.json input_hint),
  streaming map_batches over zero-copy Arrow with per-worker cached model
  stages, per-repo report aggregation, checkpointed resumability.
* ``qamd_ray.models`` — deterministic langid + perplexity models.

Nothing here calls ray.init(); the caller owns the Ray session.
"""

__version__ = "0.1.0"
