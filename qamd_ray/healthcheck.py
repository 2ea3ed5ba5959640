"""The QAMD check registry: a data health check over one in-RAM frequency table.

This is the compatibility engine: it computes, over any Parquet/Arrow table
or statistical/CSV file, the same 16-check report the reference produces
for one SPSS/Stata/SAS/CSV file (check registry src/check/mod.rs:26-55,
stage lists 66-81), in one process, as the reference does:

* the reference's in-RAM frequency table (src/readstat/context.rs:22,
  built one cell at a time at src/readstat/handler.rs:133-151) is built
  with Arrow's hash ``group_by``: each incoming table (a parsed file, a
  Parquet row group, a Dataset block) gives per-variable
  (vi, value) → (count, first row) partials, merged into one table of
  distinct values, so memory follows distinct values, not rows;
* per-variable "post" checks (src/check/post.rs:14-39) become vectorized
  flag columns over that table plus a per-variable ``group_by("vi")``;
* variable/metadata checks run over the schema and label sets.

No Ray session is needed; a ``ray.data.Dataset`` source is read block by
block on the driver.

Exact semantic quirks preserved (SURVEY.md §7 "what's hard"):
* value identity is *string-rendering* equality incl. float ".0"
  normalization (src/model/anyvalue.rs:25-41,82-94) — see
  ``kernels.render_values``;
* C7/C13/C15 count ``pass = variable_count − fail`` even though fail is
  per *distinct value* (src/check/post.rs:163,348,388);
* dictionary checks count per distinct *string* across variables, because
  the reference keys its words map on the rendered value/label alone
  (src/check/post.rs:172-186,205-226,420-443);
* the stopword check fails only when ALL tokens are stopwords
  (src/check/dictionary.rs:22-24);
* ``metadata_only`` suppresses locators but not counts
  (src/check/macros.rs:12-13);
* the C13 invariant assert: per-variable occurrence sums equal
  raw_case_count (src/check/post.rs:327-331).
"""

from __future__ import annotations

import itertools
import os
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .config import Config
from . import kernels as K
from .report import LOCATOR_CAP, Report, ReportMetadata
from .sources import ROW_COL, _expand, read_row_group, row_group_tasks

if TYPE_CHECKING:
    import ray.data

# Missingness ranks (src/model/missing.rs:7-12); priority order tagged >
# defined > system > not-missing (src/readstat/handler.rs:104-114).
NOT_MISSING, SYSTEM_MISSING, DEFINED_MISSING, TAGGED_MISSING = 0, 1, 2, 3


@dataclass
class VariableMeta:
    """Reference Variable (src/model/variable.rs:8-15)."""

    index: int
    name: str
    label: str = ""
    type_: str = "Numeric"  # "Text" | "Numeric" (variable.rs:70-74)
    value_format: str = ""
    value_labels: str = ""  # KEY into the value-label-set map, not labels


@dataclass
class TableMeta:
    """Sidecar metadata QAMD would read from the statistical file header.

    Parquet carries none of SPSS/Stata's variable labels / value labels /
    missing-value declarations, so the compat engine accepts them here
    (they may also be stored as Arrow field metadata by the writer).
    """

    variables: list[VariableMeta] = field(default_factory=list)
    # label-set key -> (rendered value -> label), src/readstat/handler.rs:161-184
    value_labels: dict[str, dict[str, str]] = field(default_factory=dict)
    # variable name -> rendered values declared user-missing (SPSS style)
    defined_missing: dict[str, set[str]] = field(default_factory=dict)
    # variable name -> [(lo, hi)] numeric ranges declared user-missing
    # (SPSS "lo THRU hi"; ±inf endpoints encode LOWEST/HIGHEST)
    defined_missing_ranges: dict[str, list[tuple[float, float]]] = field(
        default_factory=dict
    )
    # variable name -> rendered Stata tagged-missing codes (".a".." .z") —
    # filled by readers.read_stata; rank TAGGED_MISSING, the highest
    # priority (src/readstat/handler.rs:104-114)
    tagged_missing: dict[str, set[str]] = field(default_factory=dict)
    file_name: str = ""
    file_label: str = ""
    file_encoding: Optional[str] = None
    # header metadata the reference surfaces into ReportMetadata
    # (src/readstat/handler.rs:19-58): compression scheme, format version,
    # and file timestamps where the format carries them
    compression: str = ""
    file_format_version: str = ""
    creation_time: Optional[str] = None
    modified_time: Optional[str] = None


def variables_from_schema(schema: pa.Schema) -> list[VariableMeta]:
    """Schema → unlabelled variables, skipping ``ROW_COL``; string columns
    are Text, everything else Numeric (src/model/variable.rs:85-95; CSV
    columns always Text, csv/read.rs:84-91).
    """
    out = []
    for f in schema:
        if f.name == ROW_COL:
            continue
        is_text = pa.types.is_string(f.type) or pa.types.is_large_string(f.type)
        out.append(
            VariableMeta(index=len(out), name=f.name, type_="Text" if is_text else "Numeric")
        )
    return out


# ---------------------------------------------------------------------------
# frequency table — the reference's central data structure, in RAM
# ---------------------------------------------------------------------------

FREQ_SCHEMA = pa.schema(
    [("vi", pa.int32()), ("value", pa.string()), ("n", pa.int64()), ("first_row", pa.int64())]
)


def _partials(batch: pa.Table, variables: Sequence[VariableMeta]) -> pa.Table:
    """(vi, value, n, first_row) of one table: a hash group-by per variable
    over the rendered values."""
    rows = K._as_array(batch[ROW_COL])
    pieces = []
    for v in variables:
        t = pa.table(
            {
                "vi": pa.array(np.full(len(batch), v.index, dtype=np.int32)),
                "value": K.render_values(batch[v.name]),
                "row": rows,
            }
        )
        g = t.group_by(["vi", "value"]).aggregate([("row", "count"), ("row", "min")])
        pieces.append(
            g.select(["vi", "value", "row_count", "row_min"]).rename_columns(FREQ_SCHEMA.names)
        )
    return pa.concat_tables(pieces)


def _merge(parts: list[pa.Table]) -> pa.Table:
    """Partials → one row per (vi, value): counts add, first rows take the min."""
    g = (
        pa.concat_tables(parts)
        .group_by(["vi", "value"])
        .aggregate([("n", "sum"), ("first_row", "min")])
    )
    return g.select(["vi", "value", "n_sum", "first_row_min"]).rename_columns(FREQ_SCHEMA.names)


def build_frequency_table(
    tables: Iterable[pa.Table],
    variables: Sequence[VariableMeta],
) -> tuple[pa.Table, int]:
    """Distinct-value histogram per variable: (vi, value, n, first_row),
    and the number of rows read.

    Reference: streaming upsert per cell (src/readstat/handler.rs:133-151)
    keeping the first-seen row as representative. Here: per-table hash
    group-by partials, merged whenever the pending partials outgrow the
    merged table, so memory stays within a small multiple of the distinct
    values and the merge work is linear in the partial rows. "First" is
    min(global row index), which is independent of table order.
    """
    freq: Optional[pa.Table] = None
    pending: list[pa.Table] = []
    pending_rows = 0
    n_rows = 0
    for batch in tables:
        n_rows += batch.num_rows
        if batch.num_rows == 0:
            continue
        part = _partials(batch, variables)
        pending.append(part)
        pending_rows += part.num_rows
        if pending_rows >= (0 if freq is None else freq.num_rows):
            freq = _merge(pending if freq is None else [freq, *pending])
            pending, pending_rows = [], 0
    if pending:
        freq = _merge([freq, *pending])
    return (FREQ_SCHEMA.empty_table() if freq is None else freq), n_rows


def frequency_table(
    ds: "ray.data.Dataset",
    variables: Sequence[VariableMeta],
) -> "ray.data.Dataset":
    """:func:`build_frequency_table` over a Dataset's blocks, as a Dataset."""
    import ray.data

    freq, _ = build_frequency_table(
        ds.iter_batches(batch_size=None, batch_format="pyarrow"), variables
    )
    return ray.data.from_arrow(freq)


# ---------------------------------------------------------------------------
# the health check
# ---------------------------------------------------------------------------


def _read_csv(paths: Sequence[str]) -> pa.Table:
    """CSV files → one table (reference csv/read.rs loads the whole file in
    memory — twice; we load once): every column a string (CSV columns are
    always Text, csv/read.rs:84-91), empty cells ⇒ null
    (csv/read.rs:112-115), row index from file order."""
    import csv as _csv

    import pyarrow.csv as pacsv

    tables = []
    offset = 0
    for p in paths:
        # read the header first and pin every column to pa.string()
        # so cells keep their RAW text ('01' stays '01', '1.50'
        # stays '1.50') — the reference treats every CSV cell as
        # Text (csv/read.rs:84-91); type inference + cast would
        # normalize numeric-looking literals
        # utf-8-sig strips a UTF-8 BOM so the pinned name matches
        # Arrow's post-BOM column name (else the first column falls
        # back to type inference)
        with open(p, "r", encoding="utf-8-sig", newline="") as fh:
            header = next(_csv.reader(fh), None)
        if header is None:
            raise ValueError(f"empty CSV file: {p}")
        t = pacsv.read_csv(
            p,
            convert_options=pacsv.ConvertOptions(
                strings_can_be_null=True,
                column_types={name: pa.string() for name in header},
            ),
        )
        t = t.append_column(
            ROW_COL, pa.array(np.arange(offset, offset + len(t), dtype=np.int64))
        )
        offset += len(t)
        tables.append(t)
    return pa.concat_tables(tables)


def health_check(
    source: Union[str, Sequence[str], "ray.data.Dataset"],
    config: Config,
    *,
    meta: Optional[TableMeta] = None,
) -> Report:
    """Run the full 16-check registry over a table; returns the Report.

    ``source``: statistical, CSV or Parquet file(s), directories or globs
    (read with global row indices; the extension of the first expanded
    file picks the reader), or an existing Dataset that already carries
    ``ROW_COL``.  Everything runs in this process: inputs stream table by
    table into one frequency table (:func:`build_frequency_table`).
    """
    if isinstance(source, (str, list, tuple)):
        files = _expand(source)
        # named after the first expanded file, as the statistical readers
        # name theirs — never after a glob or a directory
        default_name = os.path.basename(files[0]) if files else ""
        ext = os.path.splitext(files[0])[1].lower() if files else ""
        if ext in (".dta", ".sav", ".por", ".sas7bdat", ".xpt"):
            # statistical formats: full dispatch incl. header metadata
            # (labels, value labels, tagged missing) — read.rs:21-39
            from .readers import iter_stat_tables

            file_meta, tables = iter_stat_tables(files)
            if meta is None:
                meta = file_meta
            head = next(tables)  # parsed already; its schema names the columns
            schema = head.schema
            tables = itertools.chain([head], tables)
        elif ext == ".csv":
            full = _read_csv(files)
            tables = [full]
            schema = full.schema
        else:
            # one row group at a time: memory follows distinct values
            tasks = row_group_tasks(files)
            if not tasks:
                raise FileNotFoundError(f"no parquet files under {source!r}")
            schema = pq.ParquetFile(tasks[0]["path"]).schema_arrow
            tables = (read_row_group(t, None) for t in tasks)
    else:
        ds_schema = source.schema()
        schema = pa.schema(list(zip(ds_schema.names, ds_schema.types)))
        tables = source.iter_batches(batch_size=None, batch_format="pyarrow")
        default_name = ""

    meta = meta or TableMeta()
    if not meta.variables:
        meta.variables = variables_from_schema(schema)
    if not meta.file_name:
        meta.file_name = default_name
    variables = meta.variables
    # reading every table completes a multi-file statistical input's meta
    freq, n_rows = build_frequency_table(tables, variables)

    report = Report(
        metadata=ReportMetadata(
            file_name=meta.file_name,
            raw_case_count=int(n_rows),
            variable_count=len(variables),
            data_type_occurrences={
                t: sum(1 for v in variables if v.type_ == t) for t in ("Text", "Numeric")
            },
            file_label=meta.file_label,
            file_encoding=meta.file_encoding,
            compression=meta.compression,
            file_format_version=meta.file_format_version,
            creation_time=meta.creation_time,
            modified_time=meta.modified_time,
        )
    )

    # ---- stage 1: variable checks (src/check/variable.rs) — schema-sized --
    _variable_checks(variables, config, report)

    # ---- metadata-side post checks over label sets (small by construction)
    _value_label_metadata_checks(meta, config, report)

    # ---- stage 2+3: value/post checks over the frequency table -----------
    if n_rows == 0:
        # header-only input: no cells, so no value/post checks fire — the
        # report carries the variable checks and a 0 case count (the
        # reference would likewise have an empty frequency table)
        return report
    flagged = _flag_freq(freq, meta, config)
    stats = _per_variable_stats(flagged)
    _post_checks(stats, flagged, meta, config, report)

    if not config.metadata_only:
        _collect_locators(flagged, meta, config, report)

    return report


# -- flag computation over the frequency table ------------------------------


def _flag_freq(freq: pa.Table, meta: TableMeta, config: Config) -> pa.Table:
    """Vectorized per-distinct-value flags: missing rank, label, odd chars,
    label length, regex matches — appended to the frequency table."""
    text_vis = {v.index for v in meta.variables if v.type_ == "Text"}
    dm_by_vi = {
        v.index: meta.defined_missing.get(v.name, set()) for v in meta.variables
    }
    tm_by_vi = {
        v.index: meta.tagged_missing.get(v.name, set()) for v in meta.variables
    }
    dmr_by_vi = {
        v.index: meta.defined_missing_ranges.get(v.name, []) for v in meta.variables
    }
    labels_by_vi = {
        v.index: meta.value_labels.get(v.value_labels, {}) for v in meta.variables
    }
    odd = (
        config.data_integrity.string_value_odd_characters.setting
        if config.data_integrity.string_value_odd_characters
        else None
    )
    vmax = (
        int(config.metadata.value_label_max_length.setting)
        if config.metadata.value_label_max_length
        else None
    )
    regexes = (
        [re.compile(p) for p in config.disclosure_risk.regex_patterns.setting]
        if config.disclosure_risk.regex_patterns
        else None
    )

    text_vi_arr = np.array(sorted(text_vis), dtype=np.int64)

    vi = np.asarray(K._as_array(freq["vi"]))
    values = K._as_array(freq["value"])
    vals_np = np.asarray(values, dtype=object)
    n = len(freq)

    # label resolution (handler.rs:116-122): only variables that carry a
    # label set contribute non-empty labels
    labels = np.full(n, "", dtype=object)
    for the_vi, lmap in labels_by_vi.items():
        if lmap:
            sel = vi == the_vi
            if sel.any():
                labels[sel] = [lmap.get(x, "") for x in vals_np[sel]]

    # missingness per distinct value; priority tagged > defined > system
    # (handler.rs:104-114).  An empty rendering is SYSTEM_MISSING: the CSV
    # reader rule (csv/read.rs:112-115), and how nulls surface after
    # rendering.
    rank = np.zeros(n, dtype=np.int8)
    rank[vals_np == ""] = SYSTEM_MISSING
    for the_vi, dm in dm_by_vi.items():
        if dm:
            sel = vi == the_vi
            if sel.any():
                hit = np.array([v in dm for v in vals_np[sel]])
                sub = rank[sel]
                sub[hit] = DEFINED_MISSING
                rank[sel] = sub
    # SPSS "lo THRU hi" ranges: parse the RENDERED numeric value back
    # (empty/non-numeric renders never match a range)
    for the_vi, ranges in dmr_by_vi.items():
        if ranges:
            sel = vi == the_vi
            if sel.any():
                sub_vals = vals_np[sel]
                f = np.full(len(sub_vals), np.nan)
                for j, v in enumerate(sub_vals):
                    try:
                        f[j] = float(v)
                    except (TypeError, ValueError):
                        pass
                hit = np.zeros(len(sub_vals), dtype=bool)
                for lo, hi in ranges:
                    hit |= (f >= lo) & (f <= hi)
                sub = rank[sel]
                sub[hit] = DEFINED_MISSING
                rank[sel] = sub
    # tagged last: highest priority (handler.rs:104-114)
    for the_vi, tm in tm_by_vi.items():
        if tm:
            sel = vi == the_vi
            if sel.any():
                hit = np.array([v in tm for v in vals_np[sel]])
                sub = rank[sel]
                sub[hit] = TAGGED_MISSING
                rank[sel] = sub

    is_text = np.isin(vi, text_vi_arr)

    cols = {
        "vi": freq["vi"],
        "value": freq["value"],
        "n": freq["n"],
        "first_row": freq["first_row"],
        "missing": pa.array(rank),
        "label": pa.array(labels, type=pa.string()),
        "is_text": pa.array(is_text),
    }

    # C11 StringValueOddCharacters: Str values only (post.rs:262-299)
    if odd is not None:
        hit = np.asarray(K._as_array(K.contains_any(values, odd)).fill_null(False))
        cols["odd_fail"] = pa.array(hit & is_text)
    # C7 ValueLabelMaxLength over the value's label (post.rs:132-166)
    if vmax is not None:
        lab_len = np.asarray(pc.binary_length(cols["label"]))
        cols["label_len_fail"] = pa.array(lab_len > vmax)
    # C15 ValueRegexPatterns: any pattern matches value OR label
    # (post.rs:354-391). Vectorized RE2 match per pattern (the Rust
    # regex crate is RE2-equivalent); Python `re` fallback for patterns
    # RE2 can't compile. Patterns evaluated once per table, not
    # recompiled per value as in the reference (post.rs:370).
    if regexes is not None:
        hit = np.zeros(n, dtype=bool)
        lab_arr = cols["label"]
        for rx in regexes:
            try:
                hv = np.asarray(
                    K._as_array(pc.match_substring_regex(values, rx.pattern)).fill_null(False)
                )
                hl = np.asarray(
                    K._as_array(pc.match_substring_regex(lab_arr, rx.pattern)).fill_null(False)
                )
                hit |= hv | hl
            except pa.ArrowInvalid:
                for i in range(n):
                    if not hit[i] and (rx.search(vals_np[i]) or rx.search(labels[i])):
                        hit[i] = True
        cols["regex_fail"] = pa.array(hit)
    return pa.table(cols)


def _per_variable_stats(flagged: pa.Table) -> pd.DataFrame:
    """Tiny per-variable aggregate over the flagged frequency table,
    indexed and sorted by ``vi``."""
    nn = np.asarray(K._as_array(flagged["n"]))
    miss = np.asarray(K._as_array(flagged["missing"]))
    no_label = np.asarray(K._as_array(pc.equal(flagged["label"], "")))
    cols = {
        "vi": flagged["vi"],
        "n": nn,
        "is_singleton": (nn == 1).astype(np.int64),
        "sysmiss_n": np.where(miss == SYSTEM_MISSING, nn, 0),
        "dm_nolabel_n": np.where((miss == DEFINED_MISSING) & no_label, nn, 0),
    }
    # (column, function, name in stats)
    aggs = [
        ("n", "sum", "total_n"),
        ("n", "count", "n_distinct"),
        ("n", "min", "min_occ"),
        ("is_singleton", "sum", "n_singleton"),
        ("sysmiss_n", "sum", "sysmiss_n"),
        ("dm_nolabel_n", "sum", "dm_nolabel_n"),
    ]
    for c in ("odd_fail", "label_len_fail", "regex_fail"):
        if c in flagged.column_names:
            cols[c] = pc.cast(flagged[c], pa.int64())
            aggs.append((c, "sum", c + "s"))
    g = (
        pa.table(cols)
        .group_by("vi")
        .aggregate([(c, f) for c, f, _ in aggs])
        .sort_by("vi")
    )
    return pd.DataFrame(
        {name: g[f"{c}_{f}"].to_numpy() for c, f, name in aggs},
        index=pd.Index(g["vi"].to_numpy(), name="vi"),
    )


# -- driver-side checks over schema-sized metadata --------------------------


def _variable_checks(variables, config: Config, report: Report) -> None:
    """Stage-1 checks, once per column (src/check/variable.rs:9-116)."""
    mo = config.metadata_only

    s = config.disclosure_risk.date_format
    if s is not None:
        # DateFormat is declared DisclosureRisk but reported under
        # DataIntegrity (src/check/variable.rs:31) — quirk preserved.
        st = report.ensure("DateFormat", s.desc, "DataIntegrity")
        for v in variables:
            if any(p in v.value_format for p in s.setting):
                st.fail += 1
                st.add_locator(v.name, v.index, -1, mo)
            else:
                st.pass_ += 1

    s = config.metadata.missing_variable_labels
    if s is not None:
        st = report.ensure("MissingVariableLabels", s.desc, "Metadata")
        if s.setting:
            for v in variables:
                if v.label == "":
                    st.fail += 1
                    st.add_locator(v.name, v.index, -1, mo)
                else:
                    st.pass_ += 1

    s = config.metadata.variable_label_max_length
    if s is not None:
        st = report.ensure(
            "VariableLabelMaxLength",
            f"{s.desc} ({s.setting} characters)",
            "Metadata",
        )
        for v in variables:
            if len(v.label.encode("utf-8")) > int(s.setting):
                st.fail += 1
                st.add_locator(v.name, v.index, -1, mo)
            else:
                st.pass_ += 1

    s = config.metadata.variable_odd_characters
    if s is not None:
        st = report.ensure(
            "VariableOddCharacters", f"{s.desc} {s.setting!r}", "Metadata"
        )
        for v in variables:
            if any(p in v.name for p in s.setting) or any(
                p in v.label for p in s.setting
            ):
                st.fail += 1
                st.add_locator(v.name, v.index, -1, mo)
            else:
                st.pass_ += 1


def _value_label_metadata_checks(meta: TableMeta, config: Config, report: Report) -> None:
    """Post checks that touch only label sets / variable labels — these are
    column metadata, small by construction, so they run on the driver
    (C5/C6/C8: src/check/post.rs:95-129,169-202)."""
    mo = config.metadata_only
    variables = meta.variables

    s = config.metadata.value_label_odd_characters
    if s is not None:
        st = report.ensure(
            "ValueLabelOddCharacters", f"{s.desc} {s.setting!r}", "Metadata"
        )
        for v in variables:
            labels = meta.value_labels.get(v.value_labels)
            if labels is None:
                continue
            for _value, label in labels.items():
                if any(p in label for p in s.setting):
                    st.fail += 1
                    st.add_locator(v.name, v.index, -1, mo)
                else:
                    st.pass_ += 1

    # dictionary checks over label strings: keyed by the *string*, so a label
    # shared by two variables counts once (post.rs:172-186 HashMap insert)
    s = config.metadata.value_label_spellcheck
    if s is not None:
        words = K.load_wordlists(s.setting)
        st = report.ensure("ValueLabelSpellcheck", s.desc, "Metadata")
        seen: dict[str, VariableMeta] = {}
        for v in variables:
            if not v.value_labels:
                continue
            for _value, label in meta.value_labels.get(v.value_labels, {}).items():
                seen[label] = v
        for label, v in seen.items():
            norm = K.normalize_word(label)
            if norm == "" or K.only_contains(norm, words):
                st.pass_ += 1
            else:
                st.fail += 1
                st.add_locator(v.name, v.index, -1, mo)

    s = config.metadata.variable_label_spellcheck
    if s is not None:
        words = K.load_wordlists(s.setting)
        st = report.ensure("VariableLabelSpellcheck", s.desc, "Metadata")
        seen2: dict[str, VariableMeta] = {}
        for v in variables:
            seen2[v.label] = v
        for label, v in seen2.items():
            norm = K.normalize_word(label)
            if norm == "" or K.only_contains(norm, words):
                st.pass_ += 1
            else:
                st.fail += 1
                st.add_locator(v.name, v.index, -1, mo)


# -- post checks over the aggregated stats ----------------------------------


def _post_checks(
    stats: pd.DataFrame,
    flagged: pa.Table,
    meta: TableMeta,
    config: Config,
    report: Report,
) -> None:
    variables = meta.variables
    by_vi = {v.index: v for v in variables}
    mo = config.metadata_only
    raw_case_count = report.metadata.raw_case_count
    variable_count = report.metadata.variable_count

    # C13 invariant (post.rs:327-331): occurrence sums == raw_case_count
    for vi, row in stats.iterrows():
        assert int(row["total_n"]) == raw_case_count, (
            f"case_count {raw_case_count} does not align with sum "
            f"{int(row['total_n'])} for variable {by_vi[int(vi)].name}"
        )

    # C1 BadFileName (post.rs:44-67): fullmatch-like `is_match` on the name
    s = config.basic_file_checks.bad_filename
    if s is not None:
        st = report.ensure("BadFileName", s.desc, "BasicFile")
        if re.search(s.setting, report.metadata.file_name):
            st.pass_ += 1
        else:
            st.fail += 1
            st.add_locator("", -1, -1, mo)

    # primary_variable → metadata.case_count (post.rs:72-89)
    s = config.metadata.primary_variable
    if s is not None:
        report.metadata.case_count = 0
        for v in variables:
            if v.name == s.setting:
                report.metadata.case_count = int(stats.loc[v.index, "n_distinct"])
                break

    # C10 DuplicateValues (post.rs:229-260)
    s = config.data_integrity.duplicate_values
    if s is not None:
        st = report.ensure(
            "DuplicateValues", f"{s.desc} (On variables {s.setting!r})", "DataIntegrity"
        )
        listed = list(s.setting)
        for v in variables:
            if v.name in listed and v.index in stats.index:
                if int(stats.loc[v.index, "n_singleton"]) != raw_case_count:
                    st.fail += 1
                    st.add_locator(v.name, v.index, -1, mo)
        st.pass_ = len(listed) - st.fail

    # C11 StringValueOddCharacters (post.rs:262-299): per distinct Str value
    s = config.data_integrity.string_value_odd_characters
    if s is not None:
        st = report.ensure(
            "StringValueOddCharacters", f"{s.desc} {s.setting!r}", "DataIntegrity"
        )
        for vi, row in stats.iterrows():
            if by_vi[int(vi)].type_ != "Text":
                continue
            fails = int(row.get("odd_fails", 0))
            st.fail += fails
            st.pass_ += int(row["n_distinct"]) - fails

    # C13 SystemMissingOverThreshold (post.rs:303-351)
    s = config.data_integrity.system_missing_value_threshold
    if s is not None:
        st = report.ensure(
            "SystemMissingOverThreshold",
            f"{s.desc} (Threshold: {s.setting}%)",
            "DataIntegrity",
        )
        for vi, row in stats.iterrows():
            if int(row["sysmiss_n"]) > 0:
                pct = row["sysmiss_n"] / row["total_n"] * 100.0
                if pct > float(s.setting):
                    st.fail += 1
                    v = by_vi[int(vi)]
                    st.add_locator(v.name, v.index, -1, mo)
        st.pass_ = variable_count - st.fail

    # C7 ValueLabelMaxLength (post.rs:132-166): fail per distinct value whose
    # label is over-long; pass normalized against variable_count (quirk)
    s = config.metadata.value_label_max_length
    if s is not None:
        st = report.ensure(
            "ValueLabelMaxLength", f"{s.desc} ({s.setting} characters)", "Metadata"
        )
        for vi, row in stats.iterrows():
            st.fail += int(row.get("label_len_fails", 0))
        st.pass_ = variable_count - st.fail

    # C15 ValueRegexPatterns (post.rs:354-391): same pass quirk
    s = config.disclosure_risk.regex_patterns
    if s is not None:
        st = report.ensure("ValueRegexPatterns", s.desc, "DisclosureRisk")
        for vi, row in stats.iterrows():
            st.fail += int(row.get("regex_fails", 0))
        st.pass_ = variable_count - st.fail

    # C16 VariablesWithUniqueValues (post.rs:394-418)
    s = config.disclosure_risk.unique_values
    if s is not None:
        st = report.ensure("VariablesWithUniqueValues", s.desc, "DisclosureRisk")
        for vi, row in stats.iterrows():
            if int(row["min_occ"]) <= int(s.setting):
                st.fail += 1
                v = by_vi[int(vi)]
                st.add_locator(v.name, v.index, -1, mo)
            else:
                st.pass_ += 1

    # C9 ValueDefinedMissingNoLabel (src/check/value.rs:18-44): per CELL —
    # every parsed cell increments pass or fail.
    s = config.metadata.value_defined_missing_no_label
    if s is not None:
        st = report.ensure("ValueDefinedMissingNoLabel", s.desc, "Metadata")
        total_cells = raw_case_count * variable_count
        if s.setting:
            fails = int(stats["dm_nolabel_n"].sum())
            st.fail = fails
            st.pass_ = total_cells - fails
        else:
            st.pass_ = total_cells

    # C12 / C17 dictionary checks over distinct value *strings* of Text
    # variables (post.rs:205-226,420-443): global dedup by string.
    dictionary_checks = [
        c
        for c in (
            ("StringValueSpellcheck", config.data_integrity.string_value_spellcheck,
             K.spellcheck_ok, "DataIntegrity"),
            ("StringValueStopword", config.disclosure_risk.string_value_stopword,
             K.stopword_ok, "DisclosureRisk"),
        )
        if c[1] is not None
    ]
    if dictionary_checks:
        g = (
            flagged.filter(pc.field("is_text"))
            .group_by("value")
            .aggregate([("vi", "min"), ("first_row", "min")])
        )
        distinct = pa.table(
            {"value": g["value"], "vi": g["vi_min"], "first_row": g["first_row_min"]}
        )
    for check, setting, judge, category in dictionary_checks:
        st = report.ensure(check, setting.desc, category)
        ok = judge(distinct["value"], K.load_wordlists(setting.setting))
        n_fail = int((~ok).sum())
        st.pass_ += len(ok) - n_fail
        st.fail += n_fail
        if not mo and n_fail:
            for vi, first_row in _first_rows(distinct.filter(pa.array(~ok))):
                v = by_vi[vi]
                st.add_locator(v.name, v.index, first_row, mo)


def _first_rows(fails: pa.Table) -> list[tuple[int, int]]:
    """The LOCATOR_CAP smallest (vi, first_row) pairs of ``fails``."""
    top = fails.sort_by([("vi", "ascending"), ("first_row", "ascending")]).slice(
        0, LOCATOR_CAP
    )
    return list(zip(top["vi"].to_pylist(), top["first_row"].to_pylist()))


def _collect_locators(
    flagged: pa.Table, meta: TableMeta, config: Config, report: Report
) -> None:
    """Deterministic locator samples for the freq-table-driven checks:
    filter fails, sort by (vi, first_row), cap at LOCATOR_CAP."""
    by_vi = {v.index: v for v in meta.variables}
    names = flagged.column_names
    plans = []
    if "odd_fail" in names and "StringValueOddCharacters" in report.summary:
        plans.append(("StringValueOddCharacters", "odd_fail", True))
    if "label_len_fail" in names and "ValueLabelMaxLength" in report.summary:
        plans.append(("ValueLabelMaxLength", "label_len_fail", False))
    if "regex_fail" in names and "ValueRegexPatterns" in report.summary:
        plans.append(("ValueRegexPatterns", "regex_fail", True))
    for check, col, with_row in plans:
        st = report.summary[check]
        if st.fail == 0:
            continue
        for vi, first_row in _first_rows(flagged.filter(pc.field(col))):
            v = by_vi[vi]
            st.add_locator(v.name, v.index, first_row if with_row else -1, None)
