"""Statistical-format readers: .dta parity with the reference's e2e anchor
(/root/reference/src/readstat/read.rs:141-194 asserts variable_count /
case_count / labels for mtcars.dta) plus TAGGED_MISSING derivation
(src/readstat/handler.rs:104-114)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from qamd_ray.healthcheck import (
    TAGGED_MISSING,
    SYSTEM_MISSING,
    _flag_freq,
    build_frequency_table,
    health_check,
)
from qamd_ray.readers import read_stat_table, read_stata_file


@pytest.fixture(scope="module")
def dta_path(tmp_path_factory):
    """A .dta with variable labels, value labels, system missing, and one
    tagged missing (int16 sentinel 31000 byte-patched to .a = 32742 —
    pandas cannot WRITE tagged missing; the patch is validated by pandas
    itself reading the tag back)."""
    path = str(tmp_path_factory.mktemp("dta") / "t.dta")
    df = pd.DataFrame(
        {
            "age": np.array([34.0, 67.0, np.nan, 21.5], dtype="float64"),
            "grp": np.array([1, 2, 1, 2], dtype="int8"),
            "score": np.array([10, 31000, 25, 12], dtype="int16"),
            "name": ["ann", "bob", "", "zoe"],
        }
    )
    df.to_stata(
        path,
        write_index=False,
        version=117,
        variable_labels={"age": "Age in years", "grp": "Group code"},
        value_labels={"grp": {1: "control", 2: "treatment"}},
        data_label="test file",
    )
    raw = open(path, "rb").read()
    pat = (31000).to_bytes(2, "little")
    rep = (32742).to_bytes(2, "little")  # int16 '.a'
    assert raw.count(pat) == 1
    open(path, "wb").write(raw.replace(pat, rep))
    return path


def test_read_stata_meta_and_rendering(dta_path):
    t, meta = read_stata_file(dta_path)
    # e2e anchor shape (read.rs:148-181): counts + labels + formats
    assert len(meta.variables) == 4 and len(t) == 4
    by_name = {v.name: v for v in meta.variables}
    assert by_name["age"].label == "Age in years"
    assert by_name["age"].type_ == "Numeric"
    assert by_name["name"].type_ == "Text"
    assert meta.file_label == "test file"
    # value labels keyed by label-set, rendered like the column's cells
    assert meta.value_labels[by_name["grp"].value_labels] == {
        "1": "control",
        "2": "treatment",
    }
    # rendering identity (anyvalue.rs:25-41): float "34.0", sysmiss "",
    # tagged ".a"
    assert t["age"].to_pylist() == ["34.0", "67.0", "", "21.5"]
    # integer columns keep the bare rendering even when tagged (value
    # identity must match untagged files)
    assert t["score"].to_pylist() == ["10", ".a", "25", "12"]
    assert meta.tagged_missing == {"score": {".a"}}
    assert t["__row__"].to_pylist() == [0, 1, 2, 3]


def test_tagged_missing_rank(dta_path):
    """The missing rank the health check computes per distinct value
    (``_flag_freq`` over the file's frequency table), in row order: the
    tagged ``.a`` of ``score`` and the system missing of ``age``."""
    from qamd_ray.gen_config import default_config

    t, meta = read_stata_file(dta_path)
    freq, _ = build_frequency_table([t], meta.variables)
    flagged = _flag_freq(freq, meta, default_config())
    vi = {v.name: v.index for v in meta.variables}

    def ranks(name: str) -> list[int]:
        rows = flagged.filter(pc.equal(flagged["vi"], vi[name]))
        return rows.sort_by("first_row")["missing"].to_pylist()

    assert ranks("score") == [0, TAGGED_MISSING, 0, 0]
    assert ranks("age") == [0, 0, SYSTEM_MISSING, 0]


def test_health_check_over_dta(dta_path, ray_session):
    """String-path dispatch: `qamd_ray check file.dta` parity — metadata
    (labels, value labels, tagged missing) derived from the file header,
    no sidecar needed."""
    from qamd_ray.gen_config import default_config

    report = health_check(dta_path, default_config())
    md = report.metadata
    assert md.raw_case_count == 4
    assert md.variable_count == 4
    assert md.data_type_occurrences == {"Text": 1, "Numeric": 3}
    # MissingVariableLabels (C2): score + name carry no label → 2 fail
    assert report.summary["MissingVariableLabels"].fail == 2


@pytest.mark.parametrize("compression", [0, 1])
def test_read_sav_roundtrip(tmp_path, compression):
    """read_sav_file against an independent encoder of the documented
    system-file byte layout (tests/savgen.py): values, labels, value-label
    sets, discrete user-missing declarations, both compressions."""
    from savgen import write_sav

    from qamd_ray.readers import read_sav_file

    path = str(tmp_path / f"t{compression}.sav")
    write_sav(
        path,
        {
            "age": [34.0, 67.0, None, 21.5],
            "grp": [1.0, 2.0, 1.0, 9.0],
            "city": ["london", "york", "", "leeds"],
        },
        var_labels={"age": "Age in years", "grp": "Group code"},
        missing={"grp": [9.0]},
        value_labels=("grp", {1.0: "control", 2.0: "treatment"}),
        file_label="sav test",
        compression=compression,
    )
    t, meta = read_sav_file(path)
    assert t["age"].to_pylist() == [34.0, 67.0, None, 21.5]
    assert t["grp"].to_pylist() == [1.0, 2.0, 1.0, 9.0]
    assert t["city"].to_pylist() == ["london", "york", "", "leeds"]
    by_name = {v.name: v for v in meta.variables}
    assert by_name["age"].label == "Age in years"
    assert by_name["age"].type_ == "Numeric"
    assert by_name["city"].type_ == "Text"
    assert meta.file_label == "sav test"
    assert meta.defined_missing == {"grp": {"9.0"}}
    assert meta.value_labels[by_name["grp"].value_labels] == {
        "1.0": "control",
        "2.0": "treatment",
    }


def test_health_check_over_sav(tmp_path, ray_session):
    """C9 ValueDefinedMissingNoLabel lights up from REAL declared-missing
    metadata (SPSS-only in the reference, src/check/value.rs:18-44): grp=9
    is declared missing, carries no label, and occurs twice → 2 cell
    fails."""
    from savgen import write_sav

    from qamd_ray.gen_config import default_config
    from qamd_ray.healthcheck import health_check

    path = str(tmp_path / "c9.sav")
    write_sav(
        path,
        {"grp": [1.0, 9.0, 2.0, 9.0]},
        missing={"grp": [9.0]},
        value_labels=("grp", {1.0: "control", 2.0: "treatment"}),
        compression=1,
    )
    report = health_check(path, default_config())
    assert report.metadata.raw_case_count == 4
    st = report.summary["ValueDefinedMissingNoLabel"]
    assert st.fail == 2  # two cells of the unlabelled declared-missing 9.0


def test_sav_long_variable_names(tmp_path):
    """Type-7 subtype-13 long variable names: the 8-char dictionary name
    is replaced by the declared long name."""
    import struct

    from savgen import write_sav

    from qamd_ray.readers import read_sav_file

    path = str(tmp_path / "ln.sav")
    write_sav(path, {"SCORE_VA": [1.0, 2.0]}, compression=0)
    raw = open(path, "rb").read()
    # splice a subtype-13 record right before the 999 terminator
    term = struct.pack("<2i", 999, 0)
    payload = b"SCORE_VA=score_value_total"
    rec = struct.pack("<4i", 7, 13, 1, len(payload)) + payload
    assert raw.count(term) == 1
    open(path, "wb").write(raw.replace(term, rec + term))
    t, meta = read_sav_file(path)
    assert meta.variables[0].name == "score_value_total"
    assert t.column_names[0] == "score_value_total"
    assert t["score_value_total"].to_pylist() == [1.0, 2.0]


def test_sav_missing_ranges(tmp_path, ray_session):
    """SPSS 'lo THRU hi' declared-missing ranges rank cells
    DEFINED_MISSING through the frequency flags (values 90-99 declared
    missing; 95 occurs twice without a label → 2 C9 fails)."""
    from savgen import write_sav

    from qamd_ray.gen_config import default_config
    from qamd_ray.healthcheck import health_check
    from qamd_ray.readers import read_sav_file

    path = str(tmp_path / "rng.sav")
    write_sav(
        path,
        {"score": [10.0, 95.0, 20.0, 95.0, 30.0]},
        missing_ranges={"score": (90.0, 99.0)},
        compression=1,
    )
    t, meta = read_sav_file(path)
    assert meta.defined_missing_ranges == {"score": [(90.0, 99.0)]}
    report = health_check(path, default_config())
    assert report.summary["ValueDefinedMissingNoLabel"].fail == 2


def test_read_por_roundtrip(tmp_path):
    """read_por_file against an independent base-30 encoder of the
    documented portable layout (tests/porgen.py): values incl. sysmis and
    fractions, labels, value labels, discrete missing."""
    from porgen import write_por

    from qamd_ray.readers import read_por_file

    path = str(tmp_path / "t.por")
    write_por(
        path,
        {
            "age": [34.0, 67.0, None, 21.5],
            "grp": [1.0, 2.0, 1.0, 9.0],
            "city": ["london", "york", "", "leeds"],
        },
        var_labels={"age": "Age in years"},
        missing={"grp": [9.0]},
        value_labels=(["grp"], {1.0: "control", 2.0: "treatment"}),
    )
    t, meta = read_por_file(path)
    assert t["age"].to_pylist() == [34.0, 67.0, None, 21.5]
    assert t["grp"].to_pylist() == [1.0, 2.0, 1.0, 9.0]
    assert t["city"].to_pylist() == ["london", "york", "", "leeds"]
    by_name = {v.name: v for v in meta.variables}
    assert by_name["age"].label == "Age in years"
    assert by_name["city"].type_ == "Text"
    assert meta.defined_missing == {"grp": {"9.0"}}
    assert meta.value_labels[by_name["grp"].value_labels] == {
        "1.0": "control",
        "2.0": "treatment",
    }


def test_read_stat_table_multi_file(tmp_path, ray_session):
    """Multi-file inputs parse one file after another, with global row
    indices in sorted-file order."""
    for i in range(3):
        pd.DataFrame(
            {"x": np.array([i * 10.0, i * 10.0 + 1], dtype="float64")}
        ).to_stata(str(tmp_path / f"f{i}.dta"), write_index=False, version=117)
    ds, meta = read_stat_table(str(tmp_path))
    df = ds.to_pandas().sort_values("__row__").reset_index(drop=True)
    assert df["__row__"].tolist() == [0, 1, 2, 3, 4, 5]
    assert df["x"].tolist() == [0.0, 1.0, 10.0, 11.0, 20.0, 21.0]
    assert len(meta.variables) == 1


def test_empty_csv_clean_error(tmp_path, ray_session):
    from qamd_ray.gen_config import default_config

    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty CSV"):
        health_check(str(empty), default_config())


def test_read_stat_table_dispatch_errors(tmp_path):
    bad = tmp_path / "t.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="unsupported statistical"):
        read_stat_table(str(bad))
    with pytest.raises(FileNotFoundError):
        read_stat_table(str(tmp_path / "missing.dta"))
    # a corrupt payload surfaces the format reader's own error
    corrupt = tmp_path / "t.sav"
    corrupt.write_text("nope")
    with pytest.raises(ValueError, match="not an SPSS system file"):
        read_stat_table(str(corrupt))


def test_multi_file_sav_metadata_union(tmp_path, ray_session):
    """Missing declarations living in LATER files of a directory read must
    still reach TableMeta — dropping them would change DEFINED_MISSING
    ranks and C9 results (first file wins only on label conflicts)."""
    from tests.savgen import write_sav

    from qamd_ray.readers import read_stat_table

    write_sav(str(tmp_path / "a.sav"), {"x": [1.0, 2.0], "y": [0.0, 1.0]})
    write_sav(
        str(tmp_path / "b.sav"),
        {"x": [9.0, 3.0], "y": [2.0, 3.0]},
        missing={"y": [9.0]},
        missing_ranges={"x": (100.0, 200.0)},
        value_labels=("x", {3.0: "three"}),
    )
    _ds, meta = read_stat_table(str(tmp_path))
    assert "9.0" in meta.defined_missing.get("y", set())
    assert (100.0, 200.0) in meta.defined_missing_ranges.get("x", [])
    labels = meta.value_labels.get(meta.variables[0].value_labels, {})
    assert labels.get("3.0") == "three"


def test_report_metadata_parity(dta_path, tmp_path, ray_session):
    """compression / file_format_version / creation+modified times flow
    from the file header into ReportMetadata, matching the reference's
    metadata handler (handler.rs:19-58)."""
    from savgen import write_sav

    from qamd_ray.gen_config import default_config
    from qamd_ray.readers import read_sav_file, read_stata_file

    _t, meta = read_stata_file(dta_path)
    assert meta.compression == "None"
    assert meta.file_format_version == "117"
    assert meta.creation_time and meta.modified_time == meta.creation_time

    p = str(tmp_path / "m.sav")
    write_sav(p, {"x": [1.0, 2.0]}, compression=1)
    _t2, m2 = read_sav_file(p)
    assert m2.compression == "Rows"  # bytecode compression
    assert m2.file_format_version == "2"
    assert m2.creation_time == "2026-01-01T00:00:00"  # savgen stamp

    # the fields surface into the check report
    report = health_check(dta_path, default_config())
    md = report.metadata
    assert md.compression == "None"
    assert md.file_format_version == "117"
    assert md.creation_time is not None and md.modified_time is not None


def test_por_charset_translation(tmp_path):
    """Portable files written in an EBCDIC code page (the real-world
    charset-translation case) decode through signature-based code-page
    detection; non-ASCII labels/values round-trip in both latin-1 and
    cp037.  A file matching no known code page fails loudly."""
    from porgen import write_por

    from qamd_ray.readers import read_por_file

    for enc in ("latin-1", "cp037"):
        p = str(tmp_path / f"t_{enc}.por")
        write_por(
            p,
            {"age": [34.0, 21.0], "city": ["Orléans", "León"]},
            var_labels={"age": "Âge en années"},
            encoding=enc,
        )
        t, meta = read_por_file(p)
        assert t["age"].to_pylist() == [34.0, 21.0], enc
        assert t["city"].to_pylist() == ["Orléans", "León"], enc
        by_name = {v.name: v for v in meta.variables}
        assert by_name["age"].label == "Âge en années", enc

    bad = tmp_path / "bad.por"
    bad.write_bytes(b"\x01\x02\x03" * 200)
    with pytest.raises(ValueError, match="no SPSSPORT signature"):
        read_por_file(str(bad))


def test_read_por_bespoke_translation_table(tmp_path):
    """A portable file in a bespoke charset (an arbitrary byte permutation
    matching NO known code page) decodes through its own embedded
    translation table (``readers._por_decode_via_table``) and reads
    identically to its .sav twin and to the plain latin-1 portable
    encoding of the same data."""
    from porgen import write_por
    from savgen import write_sav

    from qamd_ray.readers import read_por_file, read_sav_file

    cols = {
        "age": [34.0, 67.0, None, 21.5],
        "grp": [1.0, 2.0, 1.0, 9.0],
        "city": ["london", "york", "", "leeds"],
    }
    sigma = {b: (b + 47) % 256 for b in range(256)}
    p_bespoke = str(tmp_path / "bespoke.por")
    p_plain = str(tmp_path / "plain.por")
    p_sav = str(tmp_path / "twin.sav")
    kw = dict(var_labels={"age": "Age in years"}, missing={"grp": [9.0]})
    write_por(p_bespoke, cols, byte_map=sigma, **kw)
    write_por(p_plain, cols, **kw)
    write_sav(p_sav, cols, **kw)

    tb, mb = read_por_file(p_bespoke)
    tp, mp = read_por_file(p_plain)
    ts, ms = read_sav_file(p_sav)
    # bespoke == plain portable: identical table AND metadata
    assert tb.equals(tp)
    assert [(v.name, v.label, v.type_) for v in mb.variables] == [
        (v.name, v.label, v.type_) for v in mp.variables
    ]
    assert mb.defined_missing == mp.defined_missing
    # bespoke == .sav twin on the data values + labels + missing decls
    for c in cols:
        assert tb[c].to_pylist() == ts[c].to_pylist(), c
    bl = {v.name: v.label for v in mb.variables}
    sl = {v.name: v.label for v in ms.variables}
    assert bl == sl
    assert mb.defined_missing == ms.defined_missing
