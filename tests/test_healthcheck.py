"""Conformance tests for the health check.

Every expected (pass, fail) pair below is ported from the reference's own
unit tests over its canonical 4-variable / 10-case fixture Context
(/root/reference/src/check/post.rs:459-598 fixture; expectations at
post.rs:600-858). The fixture is reproduced as a Parquet table + sidecar
TableMeta, and the health check must land on the identical counts.

The reference tests each check in isolation; checks are independent, so one
combined run asserts them all (one health check instead of twelve).
"""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from qamd_ray.config import Config
from qamd_ray.healthcheck import TableMeta, VariableMeta, health_check
from qamd_ray.sources import ROW_COL

WORDS = os.path.join(os.path.dirname(__file__), "fixtures", "words.txt")
STOPWORDS = os.path.join(os.path.dirname(__file__), "fixtures", "stopwords.txt")


def _fixture_table() -> pa.Table:
    # post.rs:459-598: `first` Text (3×"bar#", 3×"!baz", 4×"qux");
    # `second` Text (2×"g@regs", 8 system-missing); `badid` Numeric
    # (1,1,2,3,5..10 — one dup, one gap); `id` Numeric 1..10 unique.
    return pa.table(
        {
            "first": ["bar#"] * 3 + ["!baz"] * 3 + ["qux"] * 4,
            "second": ["g@regs", "g@regs"] + [None] * 8,
            "badid": [1, 1, 2, 3, 5, 6, 7, 8, 9, 10],
            "id": list(range(1, 11)),
        }
    )


def _meta() -> TableMeta:
    return TableMeta(
        variables=[
            VariableMeta(0, "first", "first fine label", "Text", "", "labels1"),
            VariableMeta(1, "second", "second fine label", "Text", "", ""),
            VariableMeta(2, "badid", "this is nt ok", "Numeric", "", ""),
            VariableMeta(3, "id", "this is nt ok either", "Numeric", "", ""),
        ],
        value_labels={
            "labels1": {
                "qux": "this is fine",
                "bar#": "this@ is far too long to pss the test",
            }
        },
        file_name="goodfilename.dta",
    )


FULL_CONFIG = {
    "basic_file_checks": {
        "bad_filename": {"setting": "^([a-zA-Z0-9]+)\\.([a-zA-Z0-9]+)$", "desc": "d"}
    },
    "metadata": {
        "primary_variable": {"setting": "first", "desc": "d"},
        "missing_variable_labels": {"setting": True, "desc": "d"},
        "variable_label_max_length": {"setting": 15, "desc": "d"},
        "variable_odd_characters": {"setting": ["#", "@"], "desc": "d"},
        "value_label_max_length": {"setting": 20, "desc": "d"},
        "value_label_odd_characters": {"setting": ["#", "@", "!"], "desc": "d"},
        "value_label_spellcheck": {"setting": [WORDS], "desc": "d"},
        "variable_label_spellcheck": {"setting": [WORDS], "desc": "d"},
    },
    "data_integrity": {
        "duplicate_values": {"setting": ["id", "badid"], "desc": "d"},
        "system_missing_value_threshold": {"setting": 25, "desc": "d"},
        "string_value_odd_characters": {"setting": ["#", "@", "!"], "desc": "d"},
        "string_value_spellcheck": {"setting": [WORDS], "desc": "d"},
    },
    "disclosure_risk": {
        "unique_values": {"setting": 2, "desc": "d"},
        "regex_patterns": {"setting": ["^qux"], "desc": "d"},
        "string_value_stopword": {"setting": [STOPWORDS], "desc": "d"},
    },
}


@pytest.fixture(scope="module")
def fixture_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("hc") / "fixture.parquet"
    pq.write_table(_fixture_table(), p)
    return str(p)


@pytest.fixture(scope="module")
def report(fixture_path):
    return health_check(fixture_path, Config.from_dict(FULL_CONFIG), meta=_meta())


def _assert_setting(report, check, expect_pass, expect_fail):
    st = report.summary[check]
    assert (st.pass_, st.fail) == (expect_pass, expect_fail), (
        f"{check}: got ({st.pass_}, {st.fail})"
    )


# --- expectations ported from the reference's unit tests -------------------


def test_bad_filename(report):  # post.rs:600-620
    _assert_setting(report, "BadFileName", 1, 0)


def test_primary_variable(report):  # post.rs:622-644
    assert report.metadata.case_count == 3


def test_duplicate_values(report):  # post.rs:647-661
    _assert_setting(report, "DuplicateValues", 1, 1)


def test_system_missing_over_threshold(report):  # post.rs:663-686
    _assert_setting(report, "SystemMissingOverThreshold", 3, 1)


def test_unique_values(report):  # post.rs:688-707 (threshold 2)
    _assert_setting(report, "VariablesWithUniqueValues", 1, 3)


def test_value_label_max_length(report):  # post.rs:709-724 (max 20)
    _assert_setting(report, "ValueLabelMaxLength", 3, 1)


def test_value_label_odd_characters(report):  # post.rs:726-748
    _assert_setting(report, "ValueLabelOddCharacters", 1, 1)


def test_string_value_odd_characters(report):
    # post.rs:262-299 semantics: distinct Str values "bar#", "!baz",
    # "g@regs" fail; "qux" and "" pass; locators carry first-seen rows.
    _assert_setting(report, "StringValueOddCharacters", 2, 3)
    st = report.summary["StringValueOddCharacters"]
    assert {(l.variable_index, l.value_index) for l in st.locators} == {
        (0, 0),
        (0, 3),
        (1, 0),
    }


def test_regex_patterns(report):  # post.rs:771-786 (^qux)
    _assert_setting(report, "ValueRegexPatterns", 3, 1)


def test_value_label_spellcheck(report):  # post.rs:788-804
    _assert_setting(report, "ValueLabelSpellcheck", 1, 1)


def test_variable_label_spellcheck(report):  # post.rs:806-821
    _assert_setting(report, "VariableLabelSpellcheck", 2, 2)


def test_string_value_spellcheck(report):  # post.rs:823-839
    _assert_setting(report, "StringValueSpellcheck", 3, 2)


def test_string_value_stopword(report):  # post.rs:841-857
    _assert_setting(report, "StringValueStopword", 4, 1)


def test_variable_checks(report):
    # variable.rs:48-116 over this fixture's 4 variables: all labeled,
    # label byte lengths 16/17/13/20 vs max 15, no odd chars in names/labels
    _assert_setting(report, "MissingVariableLabels", 4, 0)
    _assert_setting(report, "VariableLabelMaxLength", 1, 3)
    _assert_setting(report, "VariableOddCharacters", 4, 0)


def test_report_shape(report):
    d = report.to_dict()
    assert d["metadata"]["raw_case_count"] == 10
    assert d["metadata"]["variable_count"] == 4
    assert d["metadata"]["data_type_occurrences"] == {"Text": 2, "Numeric": 2}
    keys = list(d["summary"].keys())
    # iteration order = CheckName ordinal (report/mod.rs:30-42)
    assert keys[0] == "BadFileName" and keys[-1] == "StringValueStopword"
    html = report.to_html()
    assert "Basic file checks" in html and "Disclosure risk" in html


def test_report_metadata_html_golden():
    """Mirror of the reference's golden-string test
    (src/report/html/mod.rs:269-290): a default-constructed metadata block
    renders CHARACTER-IDENTICAL HTML."""
    from qamd_ray.report import ReportMetadata, metadata_html

    md = ReportMetadata(file_name="test")
    actual = (
        '<div id="title" class="row"><h1 id="file-name">test</h1></div>'
        '<div class="row metadata"><strong>Raw Case Count: 0</strong></div>'
        '<div class="row metadata"></div>'
        '<div class="row metadata"><strong>Total Variables: 0</strong></div>'
        '<div class="row metadata"><strong>Data Type Occurrences: -</strong></div>'
        '<div class="row metadata"><strong>Created At: 1970-01-01 00:00:00</strong></div>'
        '<div class="row metadata"><strong>Last modified at: 1970-01-01 00:00:00</strong></div>'
        '<div class="row metadata"><strong>File Label: </strong></div>'
        '<div class="row metadata"><strong>File Format Version: 0</strong></div>'
        '<div class="row metadata"></div>'
        '<div class="row metadata"><strong>Compression type: </strong></div>'
    )
    assert metadata_html(md) == actual
    # populated optionals fill their divs (the `@ if let Some(...)` arms)
    md2 = ReportMetadata(
        file_name="f", case_count=7, file_encoding="UTF-8",
        data_type_occurrences={"Text": 2, "Numeric": 1},
    )
    h = metadata_html(md2)
    assert "<strong>Aggregated Case Count: 7</strong>" in h
    assert "<strong>File Encoding: UTF-8</strong>" in h
    assert "<strong>Data Type Occurrences: Text: 2, Numeric: 1</strong>" in h


# --- checks needing different meta/config run separately -------------------


def test_value_defined_missing_no_label(fixture_path):
    # value.rs:18-44: per-cell; declare badid value "2" as defined-missing
    # with no label → 1 cell fails, 39 pass (10 cases × 4 vars)
    meta = _meta()
    meta.defined_missing = {"badid": {"2"}}
    cfg = Config.from_dict(
        {"metadata": {"value_defined_missing_no_label": {"setting": True, "desc": "d"}}}
    )
    r = health_check(fixture_path, cfg, meta=meta)
    _assert_setting(r, "ValueDefinedMissingNoLabel", 39, 1)


def test_metadata_only_suppresses_locators(fixture_path):
    # macros.rs:12-13: metadata_only suppresses locators, not counts
    cfg = Config.from_dict(
        {
            "data_integrity": {
                "string_value_odd_characters": {"setting": ["#", "@", "!"], "desc": "d"}
            }
        }
    )
    cfg.metadata_only = True
    r = health_check(fixture_path, cfg, meta=_meta())
    st = r.summary["StringValueOddCharacters"]
    assert (st.pass_, st.fail) == (2, 3)
    assert st.locators is None


def test_health_check_csv_path(tmp_path):
    """The reference health-checks CSVs (csv/read.rs); so do we: all
    columns Text, empty cell ⇒ system missing."""
    from qamd_ray.config import Config
    from qamd_ray.healthcheck import health_check

    p = tmp_path / "mini.csv"
    p.write_text("name,score\nalice,1\n,2\nbob,\ncarol,4\n")
    cfg = Config.from_dict(
        {
            "data_integrity": {
                "system_missing_value_threshold": {"setting": 20, "desc": "sysmiss"}
            },
            "metadata": {"missing_variable_labels": {"setting": True, "desc": "labels"}},
        }
    )
    rep = health_check(str(p), cfg)
    assert rep.metadata.raw_case_count == 4
    assert rep.metadata.variable_count == 2
    assert rep.metadata.data_type_occurrences == {"Text": 2, "Numeric": 0}
    st = rep.summary["SystemMissingOverThreshold"]
    # each column has 1/4 = 25% sysmiss > 20% threshold → both fail
    assert (st.pass_, st.fail) == (0, 2)
    assert rep.metadata.file_name == "mini.csv"


def test_locator_table_html_golden():
    """Golden-string mirror of the reference's locators_table fragment
    (src/report/html/mod.rs:104-126): the '# (limited to 1000)' header,
    one numbered row per locator in (variable_index, value_index) order,
    the value_if_positive '-' quirk for value_index <= 0 (mod.rs:129-135),
    the click-to-expand wrapper (native <details> standing in for
    custom.js), the summary-table anchor link, and the 1000-row cap."""
    from qamd_ray.report import (
        LOCATOR_CAP,
        Locator,
        Report,
        ReportMetadata,
        Status,
    )

    rep = Report(metadata=ReportMetadata(file_name="t"))
    st = rep.ensure("DuplicateValues", "dup check", "DataIntegrity")
    st.pass_, st.fail = 7, 3
    st.locators = {
        Locator(2, 5, "colB"),
        Locator(1, -1, "colA"),   # whole-variable failure -> '-'
        Locator(1, 0, "colA"),    # 0 is NOT positive -> '-' (quirk kept)
    }
    html = rep.to_html()

    golden = (
        "<details id='loc-duplicatevalues'><summary>"
        "<b>Duplicate values</b> "
        "<span class='badge bp'>pass 7</span> "
        "<span class='badge bf'>fail 3</span> "
        "(show 3 locators)</summary>"
        "<table><tr><th scope='col'># (limited to 1000)</th>"
        "<th scope='col'>Variable</th>"
        "<th scope='col'>Row number</th></tr>"
        "<tr class='locator'><td scope='row'>1</td><td>colA</td><td>-</td></tr>"
        "<tr class='locator'><td scope='row'>2</td><td>colA</td><td>-</td></tr>"
        "<tr class='locator'><td scope='row'>3</td><td>colB</td><td>5</td></tr>"
        "</table></details>"
    )
    assert golden in html
    # the summary row's check name anchor-links to the locator table
    assert "<a class='chk' href='#loc-duplicatevalues'>Duplicate values</a>" in html

    # cap: 1000 of 1200 locators render, numbered 1..1000
    st.locators = {Locator(i, i + 1, f"v{i}") for i in range(1200)}
    capped = rep.to_html()
    assert "(show 1000 locators)" in capped
    assert capped.count("<tr class='locator'>") == 1000
    assert "<td scope='row'>1000</td>" in capped
    assert "<td scope='row'>1001</td>" not in capped


# --- inputs streamed into the one frequency table ---------------------------


def test_row_groups_give_the_same_report(tmp_path, fixture_path):
    """Parquet streams one row group at a time; the report must not see
    the row-group boundaries."""
    many = str(tmp_path / "rg.parquet")
    pq.write_table(_fixture_table(), many, row_group_size=3)
    assert pq.ParquetFile(many).metadata.num_row_groups == 4
    cfg = Config.from_dict(FULL_CONFIG)
    want = health_check(fixture_path, cfg, meta=_meta()).to_json(indent=2)
    assert health_check(many, cfg, meta=_meta()).to_json(indent=2) == want


def _with_rows(t: pa.Table) -> pa.Table:
    return t.append_column(ROW_COL, pa.array(range(t.num_rows), pa.int64()))


def test_dataset_source_gives_the_same_report(fixture_path, ray_session):
    import ray.data

    t = _with_rows(_fixture_table())
    ds = ray.data.from_arrow([t.slice(0, 4), t.slice(4)])
    cfg = Config.from_dict(FULL_CONFIG)
    want = health_check(fixture_path, cfg, meta=_meta()).to_json(indent=2)
    assert health_check(ds, cfg, meta=_meta()).to_json(indent=2) == want


@pytest.mark.parametrize("kind", ["parquet", "dataset"])
def test_zero_row_input_gives_variable_checks_only(tmp_path, report, ray_session, kind):
    """No cells: the report carries the variable and label-set checks,
    unchanged, and a 0 case count — no value check runs."""
    import ray.data

    empty = _fixture_table().slice(0, 0)
    if kind == "parquet":
        source = str(tmp_path / "empty.parquet")
        pq.write_table(empty, source)
    else:
        source = ray.data.from_arrow(_with_rows(empty))
    rep = health_check(source, Config.from_dict(FULL_CONFIG), meta=_meta())
    assert rep.metadata.raw_case_count == 0
    assert set(rep.summary) == {
        "MissingVariableLabels",
        "VariableLabelMaxLength",
        "VariableOddCharacters",
        "ValueLabelOddCharacters",
        "ValueLabelSpellcheck",
        "VariableLabelSpellcheck",
    }
    for name, st in rep.summary.items():
        assert st.to_dict() == report.summary[name].to_dict()
