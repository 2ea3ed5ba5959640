"""CLI — the reference's ``qamd`` surface, Ray-side.

Mirrors /root/reference/src/bin/qamd.rs (parse_arguments 57-135):

    python -m qamd_ray run INPUT [-o OUT_DIR] [--config FILE]
        [--encoded-config B64] [--output-format {json,html}]
        [--metadata-only] [--num-shards N]
    python -m qamd_ray check INPUT [--config FILE] ...   # healthcheck report
    python -m qamd_ray gen-config [--full]               # default YAML (K4)

``run`` executes the flagship quality-filter pipeline checkpointed
(scrubbed parquet + manifests + report.json/html under OUT_DIR);
``check`` runs the QAMD 16-check health report over a statistical, CSV or
Parquet file, in this process.
Flag semantics preserved: ``--encoded-config`` is base64 YAML
(qamd.rs:196-209); ``--metadata-only`` suppresses locators but not counts
(src/check/macros.rs:12-13).

``run`` owns a Ray session (scripts do; library code never calls
ray.init); ``check`` starts none.
"""

from __future__ import annotations

import argparse
import base64
import json
import os
import sys


def _load_config(args):
    from .config import Config
    from .gen_config import default_config, quality_config

    if args.encoded_config:
        text = base64.b64decode(args.encoded_config).decode("utf-8")
        cfg = Config.from_yaml(text)
    elif args.config:
        cfg = Config.from_yaml_file(args.config)
    else:
        cfg = quality_config() if args.cmd == "run" else default_config()
    if args.metadata_only:
        cfg.metadata_only = True
    return cfg


def _init_ray(disable_progress: bool = True):
    """``--disable-progress`` mirrors qamd.rs:121-123; unlike the reference
    (progress on by default, flag turns it off) we also honour it when the
    flag is absent only for non-TTY runs — scripts stay quiet, interactive
    runs get Ray Data's progress bars back."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    import logging

    from ray.data import DataContext

    show = (not disable_progress) and sys.stderr.isatty()
    DataContext.get_current().enable_progress_bars = show
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def _emit(payload: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(payload)
    else:
        print(payload)


def quality_summary_html(rep: dict) -> str:
    """Minimal self-contained HTML for the quality-pipeline summary (the
    reference ships a single-page HTML report, src/report/html/mod.rs)."""
    import html as _h

    parts = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'><title>Quality report</title>",
        "<style>body{font-family:sans-serif;margin:2em}table{border-collapse:collapse}"
        "td,th{border:1px solid #ccc;padding:4px 8px}.fail{color:#b00}</style></head><body>",
        "<h1>Quality-filter report</h1><h3>Metadata</h3><table>",
    ]
    for k, v in rep.get("metadata", {}).items():
        parts.append(f"<tr><th>{_h.escape(str(k))}</th><td>{_h.escape(str(v))}</td></tr>")
    parts.append("</table><h3>Checks</h3><table><tr><th>check</th><th>category</th>"
                 "<th>pass</th><th>fail</th><th>description</th></tr>")
    for name, st in rep.get("summary", {}).items():
        parts.append(
            f"<tr><td>{_h.escape(name)}</td><td>{_h.escape(st.get('category',''))}</td>"
            f"<td>{st.get('pass',0)}</td><td class='fail'>{st.get('fail',0)}</td>"
            f"<td>{_h.escape(st.get('desc',''))}</td></tr>"
        )
    parts.append("</table></body></html>")
    return "".join(parts)


# A compact public-knowledge English wordlist for the offline `init`
# scaffold.  The reference (qamd.rs:162 get_file) downloads the full dwyl
# english-words list; this sandbox has no network, so init writes this
# stand-in and prints the reference-style warning pointing at the full list.
_EN_BASIC = (
    "a about above after again all also an and any are as at be because been "
    "before being below between both but by can could data did do does down "
    "during each few file first for from further had has have he her here "
    "hers him his how i if in into is it its just like me more most my no "
    "nor not now of off on once only or other our out over own same she "
    "should so some such table than that the their them then there these "
    "they this those through to too under until up value very was we were "
    "what when where which while who why will with you your "
    "count index buffer result node item row batch stream query parse merge "
    "split cache config handler worker offset total input output state flag "
    "score group filter reduce label variable check report missing unique "
    "household age income region survey year month code name type number"
).split()

_STOPWORDS = (
    "the of and a to in is it you that he was for on are with as i his they "
    "be at one have this from or had by hot word but what some"
).split()


def init_scaffold(base: str | None = None) -> int:
    """No-network `init` (qamd.rs:137-192): scaffold config/ dictionaries/
    data/ data/test/ in the current directory, write config/default.yaml,
    an offline dictionaries/en.txt + stopword.txt, and a deterministic
    synthetic sample corpus in place of the mtcars downloads (for which we
    print the reference's couldn't-get warning with the original URLs)."""
    base = base or os.getcwd()
    dirs = ["config", "dictionaries", "data", "data/test"]
    for d in dirs:
        path = os.path.join(base, d)
        if os.path.exists(path):
            print(f"Directory {d} already exists, exiting...")
            return 1
        os.makedirs(path)

    from .gen_config import default_yaml

    with open(os.path.join(base, "config", "default.yaml"), "w") as f:
        f.write(default_yaml())
    with open(os.path.join(base, "dictionaries", "en.txt"), "w") as f:
        f.write("\n".join(sorted(set(_EN_BASIC))) + "\n")
    # the default config's string_value_stopword references stopword.txt
    with open(os.path.join(base, "dictionaries", "stopword.txt"), "w") as f:
        f.write("\n".join(_STOPWORDS) + "\n")

    # deterministic sample corpus (input_hint schema) — the offline stand-in
    # for the reference's mtcars test downloads
    from .synth import write_corpus

    test_dir = os.path.join(base, "data", "test")
    t = write_corpus(os.path.join(test_dir, "sample.parquet"), n_rows=200, seed=7)
    from .synth import strip_labels

    strip_labels(t).to_pandas().to_csv(
        os.path.join(test_dir, "sample.csv"), index=False
    )

    github = "https://github.com/ukdataservice/qamd/blob/master/"
    for fname, uri in [
        ("dictionaries/en.txt (full list)",
         "https://raw.githubusercontent.com/dwyl/english-words/master/words.txt"),
        ("data/test/mtcars.dta", f"{github}test/mtcars.dta?raw=true"),
        ("data/test/mtcars.sav", f"{github}test/mtcars.sav?raw=true"),
        ("data/test/mtcars.sas7bdat", f"{github}test/mtcars.sas?raw=true"),
        ("data/test/mtcars.csv", f"{github}test/mtcars.csv?raw=true"),
    ]:
        print(f"Warning: Couldn't get {fname} You can find it here: {uri}")
    print(f"Initialised qamd_ray project under {base}")
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="qamd_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    def _common(sp):
        sp.add_argument("input", help="parquet file/dir")
        sp.add_argument("-c", "--config", help="YAML config file")
        sp.add_argument("--encoded-config", help="base64-encoded YAML config")
        sp.add_argument("-o", "--output", help="output path (run: directory)")
        sp.add_argument("--output-format", choices=["json", "html"], default="json")
        sp.add_argument("--metadata-only", action="store_true",
                        help="suppress locators (counts unaffected)")
        sp.add_argument("-p", "--disable-progress", action="store_true",
                        help="disable the progress bar (qamd.rs:121-123); "
                             "useful if running inside scripts")

    runp = sub.add_parser("run", help="quality-filter pipeline (checkpointed)")
    _common(runp)
    runp.add_argument("--num-shards", type=int, default=16)

    checkp = sub.add_parser("check", help="QAMD health-check report")
    _common(checkp)

    initp = sub.add_parser(
        "init", help="scaffold config/ dictionaries/ data/test/ (offline)"
    )
    initp.add_argument("--base", help="target directory (default: cwd)")

    genp = sub.add_parser("gen-config", help="print default YAML config")
    genp.add_argument("--full", action="store_true")
    genp.add_argument("--quality", action="store_true",
                      help="quality_filter section instead of the QAMD registry")

    args = p.parse_args(argv)

    if args.cmd == "init":
        return init_scaffold(args.base)

    if args.cmd == "gen-config":
        from .gen_config import default_yaml, generated_yaml, quality_yaml

        if args.quality:
            print(quality_yaml())
        else:
            print(generated_yaml() if args.full else default_yaml())
        return 0

    import yaml as _yaml

    try:
        cfg = _load_config(args)
    except FileNotFoundError as e:
        print(f"error: config file not found: {e.filename}", file=sys.stderr)
        return 2
    except (ValueError, _yaml.YAMLError) as e:
        print(f"error: invalid config: {e}", file=sys.stderr)
        return 2

    if args.cmd == "run":
        _init_ray(disable_progress=args.disable_progress)
        from .pipeline import run_checkpointed

        out_dir = args.output or (args.input.rstrip("/") + ".qamd_out")
        rep = run_checkpointed(args.input, out_dir, cfg, num_shards=args.num_shards)
        if args.output_format == "html":
            _emit(quality_summary_html(rep), os.path.join(out_dir, "report.html"))
        print(json.dumps(rep["metadata"]))
        print(f"report: {os.path.join(out_dir, 'report.json')}")
        return 0

    if args.cmd == "check":
        from .healthcheck import health_check

        report = health_check(args.input, cfg)
        payload = (
            report.to_html() if args.output_format == "html" else report.to_json(indent=2)
        )
        _emit(payload, args.output)
        return 0

    return 1  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
