"""CLI smoke tests: the reference's `qamd` surface end-to-end in-process
(src/bin/qamd.rs parity — run / check / gen-config)."""

import json
import os
import subprocess
import sys

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from qamd_ray.cli import main


def test_cli_check_parquet(tmp_path, ray_session, capsys):
    t = pa.table(
        {
            "name": pa.array(["ann", "bob", "", "ann"], pa.string()),
            "score": pa.array([1.0, 2.0, None, 1.0], pa.float64()),
        }
    )
    src = str(tmp_path / "t.parquet")
    pq.write_table(t, src)
    out = str(tmp_path / "report.json")
    assert main(["check", src, "-o", out]) == 0
    rep = json.load(open(out))
    assert rep["metadata"]["raw_case_count"] == 4
    assert rep["metadata"]["variable_count"] == 2


def test_cli_check_dta(tmp_path, ray_session, capsys):
    src = str(tmp_path / "t.dta")
    pd.DataFrame(
        {"age": np.array([30.0, 40.0], dtype="float64"), "name": ["a", "b"]}
    ).to_stata(src, write_index=False, version=117)
    out = str(tmp_path / "report.json")
    assert main(["check", src, "-o", out]) == 0
    rep = json.load(open(out))
    assert rep["metadata"]["raw_case_count"] == 2


def test_cli_check_starts_no_ray(tmp_path):
    """``check`` and ``health_check`` run in this process: no Ray session
    is started (a fresh interpreter, so no test fixture's session counts),
    and the CLI JSON is the API's report."""
    from qamd_ray.gen_config import default_config
    from qamd_ray.healthcheck import health_check

    src = str(tmp_path / "t.dta")
    pd.DataFrame(
        {"age": np.array([30.0, 40.0, 30.0], dtype="float64"), "name": ["a", "b", ""]}
    ).to_stata(src, write_index=False, version=117)
    out = str(tmp_path / "report.json")
    code = (
        "import sys, ray\n"
        "from qamd_ray.cli import main\n"
        "from qamd_ray.gen_config import default_config\n"
        "from qamd_ray.healthcheck import health_check\n"
        "health_check(sys.argv[1], default_config())\n"
        "rc = main(['check', sys.argv[1], '-o', sys.argv[2]])\n"
        "print(rc, ray.is_initialized())\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    r = subprocess.run(
        [sys.executable, "-c", code, src, out],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["0", "False"]
    with open(out) as f:
        assert f.read() == health_check(src, default_config()).to_json(indent=2)


def test_cli_run_pipeline(tmp_path, ray_session, capsys):
    from qamd_ray.synth import write_corpus

    src = str(tmp_path / "in.parquet")
    write_corpus(src, n_rows=120, n_repos=5, seed=3, row_group_size=40)
    out_dir = str(tmp_path / "out")
    assert main(["run", src, "-o", out_dir, "--num-shards", "2"]) == 0
    rep = json.load(open(f"{out_dir}/report.json"))
    assert rep["metadata"]["row_count"] == 120
    assert rep["run"]["shards"] == 2


def test_cli_run_resume_gives_the_same_report_bytes(tmp_path, ray_session, capsys):
    """``run`` into an existing output directory after shards were deleted
    (a manifest, a whole ``part=<k>``) writes the fresh run's report.html
    bytes, and its report.json bytes but for the ``run`` skip counts."""
    import shutil

    from qamd_ray.synth import write_corpus

    src = str(tmp_path / "in.parquet")
    write_corpus(src, n_rows=200, n_repos=5, seed=9, row_group_size=25)
    out_dir = str(tmp_path / "out")
    argv = ["run", src, "-o", out_dir, "--num-shards", "4", "--output-format", "html"]

    def read(name):
        with open(os.path.join(out_dir, name), "rb") as f:
            return f.read()

    assert main(argv) == 0
    fresh = read("report.json"), read("report.html")
    os.remove(os.path.join(out_dir, "final", "part=0", "manifest.json"))
    shutil.rmtree(os.path.join(out_dir, "enriched", "part=3"))
    assert main(argv) == 0
    assert read("report.html") == fresh[1]
    resumed = json.loads(read("report.json"))
    assert resumed["run"] == {"shards": 4, "phase1_skipped": 3, "phase3_skipped": 3}
    fresh_json = json.loads(fresh[0])
    assert fresh_json["run"]["phase3_skipped"] == 0
    assert read("report.json") == json.dumps({**fresh_json, "run": resumed["run"]}, indent=2).encode()


def test_cli_run_zero_row_input(tmp_path, ray_session, capsys):
    """``run`` on a zero-row Parquet file writes the streaming pipeline's
    empty report, not a FileNotFoundError from an unwritten shard."""
    import ray.data

    from qamd_ray.gen_config import quality_config
    from qamd_ray.pipeline import INPUT_COLUMNS, quality_pipeline, repo_report, summary_report

    empty = pa.table({c: pa.array([], pa.string()) for c in INPUT_COLUMNS})
    src = str(tmp_path / "empty.parquet")
    pq.write_table(empty, src)
    out_dir = str(tmp_path / "out")
    assert main(["run", src, "-o", out_dir, "--num-shards", "4"]) == 0
    with open(os.path.join(out_dir, "report.json")) as f:
        rep = json.load(f)
    want = summary_report(repo_report(quality_pipeline(ray.data.from_arrow(empty), quality_config())))
    assert {k: v for k, v in rep.items() if k != "run"} == want
    assert rep["metadata"]["row_count"] == 0


def test_cli_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("quality_filter: [unbalanced\n  - : : :")
    assert main(["check", "x.parquet", "-c", str(bad)]) == 2
    assert main(["check", "x.parquet", "-c", str(tmp_path / "absent.yaml")]) == 2


@pytest.mark.parametrize("ext", ["dta", "sav", "csv"])
def test_cli_check_directory_of_stat_files(tmp_path, ext):
    """``check DIR`` reads the statistical files in the directory: its JSON
    is ``health_check`` over the list of those files (the reader is picked
    from the files, not from the directory name)."""
    from savgen import write_sav

    from qamd_ray.gen_config import default_config
    from qamd_ray.healthcheck import health_check

    d = tmp_path / "in"
    d.mkdir()
    files = [str(d / f"{k}.{ext}") for k in ("a", "b")]
    for k, path in enumerate(files):
        age = [30.0 + k, 40.0, None]
        name = ["x", "", f"n{k}"]
        if ext == "dta":
            pd.DataFrame({"age": np.array(age, dtype="float64"), "name": name}).to_stata(
                path, write_index=False, version=117
            )
        elif ext == "csv":
            pd.DataFrame({"age": age, "name": name}).to_csv(path, index=False)
        else:
            write_sav(path, {"AGE": age, "NAME": name})
    out = str(tmp_path / "report.json")
    assert main(["check", str(d), "-o", out]) == 0
    with open(out) as f:
        got = f.read()
    assert got == health_check(files, default_config()).to_json(indent=2)
    assert json.loads(got)["metadata"]["raw_case_count"] == 6
    assert json.loads(got)["metadata"]["file_name"] == f"a.{ext}"


@pytest.mark.parametrize("ext", ["csv", "parquet"])
def test_report_named_after_first_expanded_file(tmp_path, ext):
    """A glob or directory input names its report after the first file it
    expands to, so BadFileName judges a file name, not ``*.csv``: CLI
    ``check`` on the glob and on the directory give the list's JSON."""
    from qamd_ray.gen_config import default_config
    from qamd_ray.healthcheck import health_check

    d = tmp_path / "in"
    d.mkdir()
    files = [str(d / f"{k}.{ext}") for k in ("a", "b")]
    for k, path in enumerate(files):
        df = pd.DataFrame({"age": [30 + k, 40], "name": ["x", f"n{k}"]})
        df.to_csv(path, index=False) if ext == "csv" else df.to_parquet(path, index=False)
    want = health_check(files, default_config()).to_json(indent=2)
    assert json.loads(want)["metadata"]["file_name"] == f"a.{ext}"
    for arg in (str(d / f"*.{ext}"), str(d)):
        out = str(tmp_path / "report.json")
        assert main(["check", arg, "-o", out]) == 0
        with open(out) as f:
            assert f.read() == want, arg


def test_cli_init_scaffold(tmp_path, capsys):
    """Offline `init` (qamd.rs:137-192): scaffolds the four directories,
    writes a loadable default.yaml + dictionaries, synthesizes sample data,
    and exits 1 on re-run when a directory already exists."""
    base = str(tmp_path / "proj")
    assert main(["init", "--base", base]) == 0
    out = capsys.readouterr().out
    assert "Couldn't get" in out  # reference-parity warning for downloads
    for d in ("config", "dictionaries", "data/test"):
        assert (tmp_path / "proj" / d).is_dir()
    from qamd_ray.config import Config

    cfg = Config.from_yaml_file(str(tmp_path / "proj" / "config" / "default.yaml"))
    assert cfg is not None
    words = (tmp_path / "proj" / "dictionaries" / "en.txt").read_text().split()
    assert "the" in words and len(words) > 100
    sample = pq.read_table(str(tmp_path / "proj" / "data" / "test" / "sample.parquet"))
    assert sample.num_rows == 200
    assert set(sample.column_names) == {"repo", "path", "commit", "lang", "content"}
    # second run must refuse (reference exits 1 on existing dirs)
    assert main(["init", "--base", base]) == 1


def test_cli_disable_progress_flag(tmp_path, ray_session, capsys):
    """-p/--disable-progress parses and the run still completes."""
    t = pa.table({"name": pa.array(["a", "b"], pa.string())})
    src = str(tmp_path / "t.parquet")
    pq.write_table(t, src)
    out = str(tmp_path / "rep.json")
    assert main(["check", src, "-p", "-o", out]) == 0
    assert json.load(open(out))["metadata"]["raw_case_count"] == 2
