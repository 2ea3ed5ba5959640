"""Statistical-format readers: Stata ``.dta`` and SAS ``.sas7bdat``.

The reference dispatches on extension to readstat's C parsers
(/root/reference/src/readstat/read.rs:21-63) and streams cells through one
handler thread.  Here the pure-Python pandas parsers (public, bundled —
``pandas.io.stata.StataReader`` / ``pandas.read_sas``) play that role, and
the result is re-expressed in this engine's model:

* data → an Arrow table carrying the global row index
  (``sources.ROW_COL``), so the whole 16-check registry runs unchanged;
* header metadata → :class:`healthcheck.TableMeta`: variable labels,
  value-label sets (keyed like the reference's label-set map,
  src/readstat/handler.rs:161-184), and Stata tagged missing values
  (".a"–".z", src/readstat/handler.rs:104-114) — filling the
  TAGGED_MISSING rank that Parquet/CSV inputs cannot express.

Rendering rules (must match ``kernels.render_values`` — value identity in
the reference is string-rendering equality, src/model/anyvalue.rs:82-94):

* integer columns render bare ("1"); float columns render "1.0" for
  integral values;
* system missing ('.') renders "" (the SYSTEM_MISSING rule);
* tagged missing ('.a'..'.z') renders as its tag string, the column is
  emitted as a STRING column of rendered values (Arrow numerics cannot
  carry tags), and the variable keeps its declared "Numeric" type via
  the sidecar metadata — exactly how the reference keeps
  Value::TaggedMissing alongside numeric values.

A ``.dta``/``.sas7bdat`` file is a single-machine artifact (the reference
reads it fully in RAM; these parsers are not splittable), so files are
parsed in this process, one after another.  For corpus-scale inputs
convert to Parquet once and use :mod:`qamd_ray.sources`.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

from .healthcheck import TableMeta, VariableMeta
from .kernels import render_values
from .sources import ROW_COL, _expand

if TYPE_CHECKING:
    import ray.data


def _render_float(v: float) -> str:
    """Scalar twin of kernels.render_values' float rule."""
    if np.isnan(v):
        return ""
    if v == int(v) and abs(v) < 1e16:
        return f"{int(v)}.0"
    return repr(float(v))


def _render_label_key(v, float_like: bool) -> str:
    """Render a Stata value-label KEY the way the column's cells render."""
    if isinstance(v, str):
        return v
    f = float(v)
    if float_like:
        return _render_float(f)
    return str(int(f))


def _column_to_arrow(
    s: "pd.Series",
) -> tuple[pa.Array, set[str], str, bool]:
    """pandas column (convert_missing=True) → (array, tags, type_, float_like).

    * numeric without tags → native Arrow numerics, NaN ⇒ null;
    * numeric WITH tags → rendered string column + the tag set;
    * strings → string column (Stata has no tagged missing for strings).
    """
    from pandas.io.stata import StataMissingValue

    if pd.api.types.is_float_dtype(s.dtype):
        return pa.array(s.to_numpy(dtype="float64"), pa.float64()), set(), "Numeric", True
    if pd.api.types.is_integer_dtype(s.dtype):
        return pa.array(s.to_numpy(dtype="int64"), pa.int64()), set(), "Numeric", False
    # object: strings, or numerics mixed with StataMissingValue
    vals = s.to_numpy(dtype=object)
    has_smv = any(isinstance(v, StataMissingValue) for v in vals)
    if not has_smv:
        return (
            pa.array([None if v is None else str(v) for v in vals], pa.string()),
            set(),
            "Text",
            False,
        )
    tags: set[str] = set()
    # rendering follows the column's true numeric kind: a tagged INTEGER
    # column must keep the bare integer rendering ("10", not "10.0") so
    # string-rendering value identity matches untagged files
    float_like = any(isinstance(v, (float, np.floating)) for v in vals)
    num = np.fromiter(
        (isinstance(v, (float, np.floating, int, np.integer)) for v in vals), bool, len(vals)
    )
    out = np.empty(len(vals), dtype=object)
    # the numeric cells render in one vectorized pass
    typed = vals[num].astype(np.float64 if float_like else np.int64)
    out[num] = render_values(pa.array(typed)).to_numpy(zero_copy_only=False)
    for i in np.flatnonzero(~num):
        v = vals[i]
        if isinstance(v, StataMissingValue):
            t = str(v)
            if t == ".":
                out[i] = ""  # system missing renders "" (csv/read.rs:112-115)
            else:
                tags.add(t)
                out[i] = t
        elif v is None:
            out[i] = ""
        else:
            out[i] = str(v)
    return pa.array(out, pa.string()), tags, "Numeric", float_like



def _iso_or_raw(date_s: str, time_s: str = "", fmts: tuple[str, ...] = ()) -> "Optional[str]":
    """Render a header date(/time) pair as ISO-8601 when one of ``fmts``
    parses it, else the raw text (the reference surfaces whatever the
    format carries, handler.rs:28-35); empty ⇒ None."""
    import datetime as _dt

    s = f"{date_s.strip()} {time_s.strip()}".strip()
    if not s:
        return None
    for fmt in fmts:
        try:
            return _dt.datetime.strptime(s, fmt).isoformat()
        except ValueError:
            continue
    return s


def read_stata_file(path: str) -> tuple[pa.Table, TableMeta]:
    """One ``.dta`` file → (Arrow table with ``__row__``, TableMeta).

    E2E anchor parity (read.rs:141-194: mtcars.dta → variable_count,
    case_count, labels): ``meta.variables``/``value_labels`` carry what
    readstat's metadata handler would, TAGGED_MISSING is derivable, and
    the row index restores the reference's streaming row numbers.
    """
    from pandas.io.stata import StataReader

    with StataReader(
        path, convert_missing=True, convert_categoricals=False
    ) as rdr:
        df = rdr.read()
        var_labels = rdr.variable_labels()
        raw_value_labels = rdr.value_labels()
        file_label = rdr.data_label or ""
        format_version = str(getattr(rdr, "_format_version", "") or "")
        time_stamp = _iso_or_raw(
            str(getattr(rdr, "time_stamp", "") or ""), "", ("%d %b %Y %H:%M",)
        )
        # per-variable label-set key + display format (private but stable
        # pandas attributes; absent ⇒ degrade to column-name keying)
        lbllist = list(getattr(rdr, "_lbllist", []) or [])
        varlist = list(getattr(rdr, "_varlist", []) or list(df.columns))
        fmtlist = list(getattr(rdr, "_fmtlist", []) or [""] * len(varlist))

    label_key_of = dict(zip(varlist, lbllist)) if lbllist else {}
    fmt_of = dict(zip(varlist, fmtlist))

    arrays: dict[str, pa.Array] = {}
    variables: list[VariableMeta] = []
    tagged: dict[str, set[str]] = {}
    float_like_of: dict[str, bool] = {}
    for i, name in enumerate(df.columns):
        arr, tags, type_, float_like = _column_to_arrow(df[name])
        arrays[str(name)] = arr
        float_like_of[str(name)] = float_like
        if tags:
            tagged[str(name)] = tags
        variables.append(
            VariableMeta(
                index=i,
                name=str(name),
                label=var_labels.get(name, "") or "",
                type_=type_,
                value_format=fmt_of.get(name, "") or "",
                value_labels=label_key_of.get(name, "") or "",
            )
        )

    # label sets: {set key: {rendered value: label}} — keys rendered the way
    # the labelled column's cells render (int vs float rule)
    key_float_like = {
        v.value_labels: float_like_of.get(v.name, False)
        for v in variables
        if v.value_labels
    }
    value_labels = {
        str(setname): {
            _render_label_key(k, key_float_like.get(str(setname), False)): str(lab)
            for k, lab in mapping.items()
        }
        for setname, mapping in raw_value_labels.items()
    }

    table = pa.table(arrays).append_column(
        ROW_COL, pa.array(np.arange(len(df), dtype=np.int64))
    )
    meta = TableMeta(
        variables=variables,
        value_labels=value_labels,
        tagged_missing=tagged,
        file_name=os.path.basename(path),
        file_label=file_label,
        compression="None",  # dta is never compressed (handler.rs:42-48)
        file_format_version=format_version,
        creation_time=time_stamp,
        modified_time=time_stamp,
    )
    return table, meta


def read_sas_file(path: str) -> tuple[pa.Table, TableMeta]:
    """One ``.sas7bdat``/``.xpt`` file → (Arrow table with ``__row__``,
    TableMeta).  SAS carries column labels but no value-label sets or
    tagged missing (read.rs:58-63 parity)."""
    df = pd.read_sas(path)
    # header metadata via the pandas sas7bdat reader (xpt carries none of
    # these fields through pandas)
    stamp = compression = version = None
    if path.lower().endswith(".sas7bdat"):
        try:
            from pandas.io.sas.sas7bdat import SAS7BDATReader

            with SAS7BDATReader(path) as hdr:
                dc = getattr(hdr, "date_created", None)
                dm = getattr(hdr, "date_modified", None)
                stamp = (dc.isoformat() if dc is not None else None,
                         dm.isoformat() if dm is not None else None)
                comp = getattr(hdr, "compression", b"") or b""
                compression = comp.decode("latin-1") if isinstance(comp, bytes) else str(comp)
                compression = compression or "None"
                sr = getattr(hdr, "sas_release", b"") or b""
                version = sr.decode("latin-1") if isinstance(sr, bytes) else str(sr)
        except Exception:  # header probe is best-effort parity, not data
            pass
    arrays: dict[str, pa.Array] = {}
    variables: list[VariableMeta] = []
    for i, name in enumerate(df.columns):
        s = df[name]
        if pd.api.types.is_numeric_dtype(s.dtype):
            arrays[str(name)] = pa.array(s.to_numpy(dtype="float64"), pa.float64())
            type_ = "Numeric"
        else:
            vals = [
                v.decode("utf-8", "replace") if isinstance(v, bytes) else
                (None if v is None or (isinstance(v, float) and np.isnan(v)) else str(v))
                for v in s.to_numpy(dtype=object)
            ]
            arrays[str(name)] = pa.array(vals, pa.string())
            type_ = "Text"
        variables.append(VariableMeta(index=i, name=str(name), type_=type_))
    table = pa.table(arrays).append_column(
        ROW_COL, pa.array(np.arange(len(df), dtype=np.int64))
    )
    return table, TableMeta(
        variables=variables,
        file_name=os.path.basename(path),
        compression=compression or "",
        file_format_version=version or "",
        creation_time=stamp[0] if stamp else None,
        modified_time=stamp[1] if stamp else None,
    )


# ---------------------------------------------------------------------------
# SPSS .sav — pure-Python system-file parser (format publicly documented in
# the PSPP manual, "System File Format"; reference parses it via readstat's
# C library, src/readstat/read.rs:51-58)
# ---------------------------------------------------------------------------


def read_sav_file(path: str) -> tuple[pa.Table, TableMeta]:
    """One ``.sav`` system file → (Arrow table with ``__row__``, TableMeta).

    Supports the common layout: header ($FL2, layout_code 2), numeric and
    string variables (with continuation records), variable labels,
    discrete user-missing declarations (ranges are skipped with the pair
    recorded as rendered endpoints — the rendered-value model cannot
    express an interval), value-label records, type-7 extensions
    (skipped), and both uncompressed (0) and bytecode-compressed (1)
    data.  Big-endian files are handled via the layout_code byte-order
    probe.
    """
    import struct

    with open(path, "rb") as f:
        buf = f.read()
    if buf[:4] != b"$FL2":
        raise ValueError(f"{path}: not an SPSS system file (missing $FL2)")
    # byte order probe: layout_code is 2 (or 3) in the file's own order
    for bo in ("<", ">"):
        (layout,) = struct.unpack_from(bo + "i", buf, 64)
        if layout in (2, 3):
            break
    else:
        raise ValueError(f"{path}: unrecognized layout_code")
    (_layout, _nominal, compression, _weight, ncases) = struct.unpack_from(
        bo + "5i", buf, 64
    )
    (bias,) = struct.unpack_from(bo + "d", buf, 84)
    # header timestamp ("dd mmm yy" + "hh:mm:ss", bytes 92-109); the
    # format carries one stamp — the reference fills both report fields
    # from it (handler.rs:28-35)
    stamp = _iso_or_raw(
        buf[92:101].decode("latin-1", "replace"),
        buf[101:109].decode("latin-1", "replace"),
        ("%d %b %y %H:%M:%S",),
    )
    file_label = buf[109:173].decode("latin-1").strip()
    off = 176

    names: list[str] = []
    widths: list[int] = []  # 0 = numeric, >0 = string width
    var_labels: list[str] = []
    missing_by_var: dict[int, set[str]] = {}
    ranges_by_var: dict[int, list[tuple[float, float]]] = {}
    long_names: dict[str, str] = {}  # type-7/13 SHORT → long variable names
    dict_index_to_var: dict[int, int] = {}  # 1-based dictionary slot → var #
    value_label_sets: list[tuple[dict[bytes, str], list[int]]] = []
    dict_slot = 0

    def _align4(n: int) -> int:
        return (n + 3) & ~3

    while off < len(buf):
        (rec,) = struct.unpack_from(bo + "i", buf, off)
        off += 4
        if rec == 2:  # variable record
            typ, has_label, n_missing, _pf, _wf = struct.unpack_from(
                bo + "5i", buf, off
            )
            off += 20
            name = buf[off : off + 8].decode("latin-1").strip()
            off += 8
            label = ""
            if has_label:
                (llen,) = struct.unpack_from(bo + "i", buf, off)
                off += 4
                label = buf[off : off + llen].decode("latin-1").strip()
                off += _align4(llen)
            dict_slot += 1
            if typ == -1:  # continuation of a long string — occupies a slot
                off += 8 * abs(n_missing)
                continue
            # missing-value slots: doubles for numeric variables,
            # 8-byte space-padded strings for string variables (PSPP spec)
            if typ == 0:
                vals = [
                    struct.unpack_from(bo + "d", buf, off + 8 * j)[0]
                    for j in range(abs(n_missing))
                ]
            else:
                vals = [
                    buf[off + 8 * j : off + 8 * (j + 1)].decode("latin-1").rstrip()
                    for j in range(abs(n_missing))
                ]
            off += 8 * abs(n_missing)
            var_no = len(names)
            dict_index_to_var[dict_slot] = var_no
            names.append(name)
            widths.append(max(typ, 0))
            var_labels.append(label)
            if n_missing > 0:  # discrete declared-missing values
                missing_by_var[var_no] = {
                    _render_float(v) if typ == 0 else str(v) for v in vals
                }
            elif n_missing < 0 and len(vals) >= 2:  # lo THRU hi (+ discrete)
                ranges_by_var.setdefault(var_no, []).append(
                    (float(vals[0]), float(vals[1]))
                )
                if len(vals) > 2:
                    missing_by_var[var_no] = {_render_float(v) for v in vals[2:]}
        elif rec == 3:  # value labels, then a type-4 variable-index record
            (count,) = struct.unpack_from(bo + "i", buf, off)
            off += 4
            labels: dict[bytes, str] = {}
            for _ in range(count):
                raw = buf[off : off + 8]
                off += 8
                llen = buf[off]
                off += 1
                lab = buf[off : off + llen].decode("latin-1").strip()
                # value (8) + len byte + label padded to a multiple of 8
                off += ((llen + 1 + 7) & ~7) - 1
                labels[raw] = lab
            (rec4,) = struct.unpack_from(bo + "i", buf, off)
            off += 4
            var_idx: list[int] = []
            if rec4 == 4:
                (nv,) = struct.unpack_from(bo + "i", buf, off)
                off += 4
                var_idx = list(struct.unpack_from(bo + f"{nv}i", buf, off))
                off += 4 * nv
            value_label_sets.append((labels, var_idx))
        elif rec == 6:  # documents
            (n_lines,) = struct.unpack_from(bo + "i", buf, off)
            off += 4 + 80 * n_lines
        elif rec == 7:  # extension
            sub, size, cnt = struct.unpack_from(bo + "3i", buf, off)
            off += 12
            payload = buf[off : off + size * cnt]
            off += size * cnt
            if sub == 13:  # long variable names: "SHORT=Long\tSHORT2=..."
                for pair in payload.decode("latin-1").split("\t"):
                    if "=" in pair:
                        short, long_ = pair.split("=", 1)
                        long_names[short.strip()] = long_.strip()
        elif rec == 999:
            off += 4  # filler
            break
        else:
            raise ValueError(f"{path}: unknown record type {rec} at {off - 4}")

    # ---- data ------------------------------------------------------------
    n_vars = len(names)
    segs = [max(1, (w + 7) // 8) for w in widths]  # 8-byte slots per variable
    SYSMIS = struct.unpack(bo + "d", b"\xff\xff\xff\xff\xff\xff\xef\xff"
                           if bo == "<" else b"\xff\xef\xff\xff\xff\xff\xff\xff")[0]

    def _raw_blocks():
        nonlocal off
        if compression == 0:
            while off + 8 <= len(buf):
                yield buf[off : off + 8]
                off += 8
        else:  # bytecode compression (bias-coded small integers)
            cmds: list[int] = []
            while True:
                if not cmds:
                    if off + 8 > len(buf):
                        return
                    cmds = list(buf[off : off + 8])
                    off += 8
                c = cmds.pop(0)
                if c == 0:
                    continue
                if c == 252:
                    return
                if c == 253:
                    yield buf[off : off + 8]
                    off += 8
                elif c == 254:
                    yield b" " * 8
                elif c == 255:
                    yield struct.pack(bo + "d", SYSMIS)
                else:
                    yield struct.pack(bo + "d", float(c) - bias)

    blocks = _raw_blocks()
    cols: list[list] = [[] for _ in range(n_vars)]
    try:
        for _case in range(ncases if ncases >= 0 else 10**18):
            row_vals = []
            for vi in range(n_vars):
                raw = [next(blocks) for _ in range(segs[vi])]
                if widths[vi] == 0:
                    (v,) = struct.unpack(bo + "d", raw[0])
                    row_vals.append(None if v == SYSMIS else v)
                else:
                    s = b"".join(raw)[: widths[vi]].decode("latin-1").rstrip()
                    row_vals.append(s)
            for vi, v in enumerate(row_vals):
                cols[vi].append(v)
    except StopIteration:
        pass

    # apply type-7/13 long variable names (case-insensitive short match)
    if long_names:
        ln = {k.upper(): v for k, v in long_names.items()}
        names = [ln.get(n.upper(), n) for n in names]

    arrays: dict[str, pa.Array] = {}
    variables: list[VariableMeta] = []
    value_labels: dict[str, dict[str, str]] = {}
    # label sets keyed "ls<k>"; attach the key to each labelled variable
    label_key_by_var: dict[int, str] = {}
    for k, (labels, var_idx) in enumerate(value_label_sets):
        key = f"ls{k}"
        rendered: dict[str, str] = {}
        for raw, lab in labels.items():
            # keys are raw 8-byte slots: doubles for numeric variables,
            # space-padded bytes for short strings — resolve per first
            # labelled variable's type
            first_var = dict_index_to_var.get(var_idx[0], 0) if var_idx else 0
            if widths[first_var] == 0:
                (v,) = struct.unpack(bo + "d", raw)
                rendered[_render_float(v)] = lab
            else:
                rendered[raw.decode("latin-1").rstrip()] = lab
        value_labels[key] = rendered
        for di in var_idx:
            if di in dict_index_to_var:
                label_key_by_var[dict_index_to_var[di]] = key

    defined_missing: dict[str, set[str]] = {}
    for vi in range(n_vars):
        if widths[vi] == 0:
            arrays[names[vi]] = pa.array(cols[vi], pa.float64())
            type_ = "Numeric"
        else:
            arrays[names[vi]] = pa.array(cols[vi], pa.string())
            type_ = "Text"
        if vi in missing_by_var and missing_by_var[vi]:
            defined_missing[names[vi]] = missing_by_var[vi]
        variables.append(
            VariableMeta(
                index=vi,
                name=names[vi],
                label=var_labels[vi],
                type_=type_,
                value_labels=label_key_by_var.get(vi, ""),
            )
        )
    table = pa.table(arrays).append_column(
        ROW_COL, pa.array(np.arange(len(cols[0]) if cols else 0, dtype=np.int64))
    )
    meta = TableMeta(
        variables=variables,
        value_labels=value_labels,
        defined_missing=defined_missing,
        defined_missing_ranges={
            names[vi]: rs for vi, rs in ranges_by_var.items() if rs
        },
        file_name=os.path.basename(path),
        file_label=file_label,
        compression={0: "None", 1: "Rows", 2: "Binary"}.get(
            int(compression), str(compression)
        ),
        file_format_version=str(_layout),
        creation_time=stamp,
        modified_time=stamp,
    )
    return table, meta


# ---------------------------------------------------------------------------
# SPSS .por — portable (trigesimal text) format, per the PSPP manual
# "Portable File Format"; reference parses it via readstat
# (src/readstat/read.rs:51-58)
# ---------------------------------------------------------------------------

_POR_DIGITS = "0123456789ABCDEFGHIJKLMNOPQRST"  # base-30
_POR_DIGIT_VAL = {c: i for i, c in enumerate(_POR_DIGITS)}


class _PorStream:
    """Character stream over a portable file with newlines removed."""

    def __init__(self, text: str):
        self.s = text
        self.i = 0

    def peek(self) -> str:
        return self.s[self.i] if self.i < len(self.s) else "Z"

    def take(self, n: int = 1) -> str:
        out = self.s[self.i : self.i + n]
        self.i += n
        return out

    def number(self) -> Optional[float]:
        """Base-30 number terminated by '/'; '*.' is sysmis (None)."""
        while self.peek() == " ":
            self.take()
        if self.peek() == "*":
            self.take(2)  # '*.'
            return None
        sign = 1.0
        if self.peek() == "-":
            sign = -1.0
            self.take()
        int_part = 0.0
        frac = 0.0
        scale = 1.0 / 30.0
        exp = 0
        seen_dot = False
        exp_sign = 0
        while True:
            c = self.take()
            if c == "/":
                break
            if c == ".":
                seen_dot = True
            elif c in ("+", "-") and exp_sign == 0:
                exp_sign = 1 if c == "+" else -1
                exp = 0
            elif c in _POR_DIGIT_VAL:
                d = _POR_DIGIT_VAL[c]
                if exp_sign:
                    exp = exp * 30 + d
                elif seen_dot:
                    frac += d * scale
                    scale /= 30.0
                else:
                    int_part = int_part * 30 + d
            else:
                raise ValueError(f"bad portable number char {c!r} at {self.i}")
        v = sign * (int_part + frac)
        if exp_sign:
            v *= 30.0 ** (exp_sign * exp)
        return v

    def string(self) -> str:
        n = self.number()
        return self.take(int(n or 0))


# The documented "portable character set" positions our grammar needs
# (PSPP manual, "Portable File Characters"; ReadStat carries the same
# lookup): digits at 64-73, A-Z at 74-99, a-z at 100-125, space at 126,
# EBCDIC-ordered punctuation at 127-155.  Positions 0-63 (control) and
# 156-255 (accented letters) are outside the grammar and untranslated
# bytes render U+FFFD — visible, never a silent mis-read.
_POR_PUNCT = ".<(+|&[]!$*);^-/¦,%_>?`:#@'=\""


def por_portable_charset() -> dict[int, str]:
    import string as _s

    out = {64 + i: c for i, c in enumerate("0123456789")}
    out.update({74 + i: c for i, c in enumerate(_s.ascii_uppercase)})
    out.update({100 + i: c for i, c in enumerate(_s.ascii_lowercase)})
    out[126] = " "
    out.update({127 + i: c for i, c in enumerate(_POR_PUNCT)})
    return out


def _por_80col_streams(raw: bytes) -> list[bytes]:
    """Candidate joined byte streams: as-is, plus the 80-column layout cut
    at a FIXED stride for each line terminator observed right after the
    first 80 bytes.  Stride slicing (not a global strip) keeps data bytes
    that happen to equal the terminator intact."""
    outs = [raw]
    for term in (b"\r\n", b"\n", b"\r", b"\x85", b"\x15", b"\x25"):
        w = 80 + len(term)
        if len(raw) > 80 and raw[80 : 80 + len(term)] == term:
            pieces: list[bytes] = []
            off, ok = 0, True
            while off < len(raw):
                pieces.append(raw[off : off + 80])
                nxt = raw[off + 80 : off + 80 + len(term)]
                if nxt == term:
                    off += w
                elif off + 80 >= len(raw):
                    break
                else:
                    ok = False
                    break
            if ok:
                outs.append(b"".join(pieces))
    return outs


def _por_decode_via_table(stream: bytes) -> Optional[str]:
    """Bespoke translation-table decoding (the reference routes this
    through ReadStat's table-driven translation, src/readstat/read.rs:
    51-58): bytes 200..455 of the joined stream are the file's rendering
    of each portable-set position; inverting them against the documented
    portable set translates the whole stream.  Returns None unless the
    translated stream reads SPSSPORT at offset 456 (the spec position) —
    a wrong table can never silently mis-render."""
    if len(stream) < 464:
        return None
    charset = por_portable_charset()
    table = stream[200:456]
    m: dict[int, str] = {}
    ambiguous: set[int] = set()
    for pos, ch in charset.items():
        b = table[pos]
        if b in m and m[b] != ch:
            ambiguous.add(b)
        else:
            m[b] = ch
    for b in ambiguous:  # a byte claimed by two positions translates to
        m.pop(b, None)  # neither — U+FFFD makes the conflict loud
    text = "".join(m.get(b, "�") for b in stream)
    return text if text[456:464] == "SPSSPORT" else None


def read_por_file(path: str) -> tuple[pa.Table, TableMeta]:
    """One ``.por`` portable file → (Arrow table with ``__row__``,
    TableMeta).  Supports the ASCII common case: numeric and string
    variables, variable labels, discrete declared-missing values
    (tag '8'; range tags 9/A/B are consumed and recorded by their
    endpoints), value-label sets (tag 'D'), untagged trailing-'Z' data
    termination.

    Character-set handling: the source encoding is detected from the
    mandatory SPSSPORT signature — latin-1 (ASCII superset, covering
    accented labels/values) first, then the EBCDIC code pages
    (cp037/cp500/cp875/cp1026/cp1140) that mainframe-written portable
    files actually use.  A file matching no known code page falls back to
    its OWN 256-byte translation table (bytes 200..455), inverted against
    the documented portable character set — the same table-driven route
    ReadStat takes (src/readstat/read.rs:51-58).  Either way the decode
    must reproduce the SPSSPORT signature at its spec position or the
    reader fails LOUDLY; there is no silent mis-rendering path.
    """
    with open(path, "rb") as f:
        raw_bytes = f.read()
    text = sig_at = None
    for enc in ("latin-1", "cp037", "cp500", "cp875", "cp1026", "cp1140"):
        try:
            cand = raw_bytes.decode(enc)
        except UnicodeDecodeError:  # pragma: no cover - latin-1 never fails
            continue
        cand = cand.replace("\r", "").replace("\n", "").replace("\x85", "")
        at = cand.find("SPSSPORT")
        if at >= 0:
            text, sig_at = cand, at
            break
    if text is None:
        # bespoke translation table: decode via the file's own table
        for stream in _por_80col_streams(raw_bytes):
            cand = _por_decode_via_table(stream)
            if cand is not None:
                text, sig_at = cand, 456
                break
    if text is None:
        raise ValueError(
            f"{path}: not a portable file (no SPSSPORT signature under "
            "latin-1 or the known EBCDIC code pages, and the embedded "
            "translation table does not decode to one either)"
        )
    st = _PorStream(text)
    st.i = sig_at + len("SPSSPORT")
    _version = st.take(1)
    _date = st.string()
    _time = st.string()
    stamp = _iso_or_raw(_date, _time, ("%Y%m%d %H%M%S",))

    names: list[str] = []
    widths: list[int] = []
    var_labels: list[str] = []
    missing: dict[int, set[str]] = {}
    ranges: dict[int, list[tuple[float, float]]] = {}
    value_label_sets: list[tuple[dict, list[str]]] = []
    file_label = ""

    def _render(v: Optional[float], width: int) -> str:
        if isinstance(v, str):
            return v
        if v is None:
            return ""
        return _render_float(v)

    while True:
        tag = st.take(1)
        if tag in "123":  # product / author / subproduct identification
            txt = st.string()
            if tag == "1":
                file_label = txt.strip()
        elif tag in "45":  # variable count / precision
            st.number()
        elif tag == "6":  # weight variable
            st.string()
        elif tag == "7":  # variable record
            w = int(st.number() or 0)
            name = st.string().strip()
            for _ in range(6):  # print fmt + write fmt triples
                st.number()
            names.append(name)
            widths.append(w)
            var_labels.append("")
        elif tag == "8":  # one discrete missing value for the last variable
            vi = len(names) - 1
            v = st.string() if widths[vi] > 0 else st.number()
            missing.setdefault(vi, set()).add(_render(v, widths[vi]))
        elif tag == "B":  # missing range lo THRU hi
            vi = len(names) - 1
            lo, hi = st.number(), st.number()
            ranges.setdefault(vi, []).append((float(lo or 0), float(hi or 0)))
        elif tag == "9":  # LOWEST thru x
            vi = len(names) - 1
            ranges.setdefault(vi, []).append(
                (float("-inf"), float(st.number() or 0))
            )
        elif tag == "A":  # x thru HIGHEST
            vi = len(names) - 1
            ranges.setdefault(vi, []).append(
                (float(st.number() or 0), float("inf"))
            )
        elif tag == "C":  # variable label for the last variable
            var_labels[len(names) - 1] = st.string().strip()
        elif tag == "D":  # value labels
            nv = int(st.number() or 0)
            vnames = [st.string().strip() for _ in range(nv)]
            is_str = any(
                widths[names.index(n)] > 0 for n in vnames if n in names
            )
            nl = int(st.number() or 0)
            labels: dict[str, str] = {}
            for _ in range(nl):
                val = st.string() if is_str else st.number()
                lab = st.string()
                labels[_render(val, 1 if is_str else 0)] = lab.strip()
            value_label_sets.append((labels, vnames))
        elif tag == "E":  # documents
            n_lines = int(st.number() or 0)
            for _ in range(n_lines):
                st.string()
        elif tag == "F":  # end of dictionary — data follows
            break
        else:
            raise ValueError(f"{path}: unknown portable tag {tag!r} at {st.i}")

    cols: list[list] = [[] for _ in names]
    while True:
        while st.peek() == " ":
            st.take()
        if st.peek() == "Z" or st.i >= len(text):
            break
        for vi in range(len(names)):
            if widths[vi] > 0:
                cols[vi].append(st.string())
            else:
                cols[vi].append(st.number())

    arrays: dict[str, pa.Array] = {}
    variables: list[VariableMeta] = []
    value_labels: dict[str, dict[str, str]] = {}
    label_key_by_name: dict[str, str] = {}
    for k, (labels, vnames) in enumerate(value_label_sets):
        key = f"ls{k}"
        value_labels[key] = labels
        for n in vnames:
            label_key_by_name[n] = key
    defined_missing: dict[str, set[str]] = {}
    for vi, name in enumerate(names):
        if widths[vi] > 0:
            arrays[name] = pa.array(cols[vi], pa.string())
            type_ = "Text"
        else:
            arrays[name] = pa.array(cols[vi], pa.float64())
            type_ = "Numeric"
        if vi in missing and missing[vi]:
            defined_missing[name] = missing[vi]
        variables.append(
            VariableMeta(
                index=vi,
                name=name,
                label=var_labels[vi],
                type_=type_,
                value_labels=label_key_by_name.get(name, ""),
            )
        )
    n_rows = len(cols[0]) if cols else 0
    table = pa.table(arrays).append_column(
        ROW_COL, pa.array(np.arange(n_rows, dtype=np.int64))
    )
    meta = TableMeta(
        variables=variables,
        value_labels=value_labels,
        defined_missing=defined_missing,
        defined_missing_ranges={
            names[vi]: rs for vi, rs in ranges.items() if rs
        },
        file_name=os.path.basename(path),
        file_label=file_label,
        compression="None",  # portable files are plain text
        file_format_version=_version,
        creation_time=stamp,
        modified_time=stamp,
    )
    return table, meta


_READERS = {
    ".dta": read_stata_file,
    ".sav": read_sav_file,
    ".por": read_por_file,
    ".sas7bdat": read_sas_file,
    ".xpt": read_sas_file,
}


def _union_meta(meta: TableMeta, m: TableMeta, fi: int) -> None:
    """Fold file ``fi``'s metadata ``m`` into the first file's ``meta``.

    EVERY missing-declaration / label dictionary is unioned — dropping
    declarations from later files would silently change DEFINED_MISSING
    ranks and C9 results, not just cosmetics.
    """
    for name, tags in m.tagged_missing.items():
        meta.tagged_missing.setdefault(name, set()).update(tags)
    for name, vals in m.defined_missing.items():
        meta.defined_missing.setdefault(name, set()).update(vals)
    for name, ranges in m.defined_missing_ranges.items():
        have = meta.defined_missing_ranges.setdefault(name, [])
        for r in ranges:
            if r not in have:
                have.append(r)
    # label-set keys ("ls0"…) are generated per file and collide across
    # files; walk variable→key so labels land on the right set.  First
    # file wins per value on conflicts; a variable unlabelled in the
    # first file adopts the later file's set under a remapped key.
    var_by_name = {v.name: v for v in meta.variables}
    for var in m.variables:
        if not var.value_labels:
            continue
        labels = m.value_labels.get(var.value_labels, {})
        tgt_var = var_by_name.get(var.name)
        if tgt_var is None:
            continue
        if not tgt_var.value_labels:
            tgt_var.value_labels = f"f{fi}_{var.value_labels}"
        tgt = meta.value_labels.setdefault(tgt_var.value_labels, {})
        for v, lbl in labels.items():
            tgt.setdefault(v, lbl)


def iter_stat_tables(
    paths: str | Sequence[str],
) -> tuple[TableMeta, Iterator[pa.Table]]:
    """Extension dispatch for statistical formats (read.rs:21-39), parsed
    in this process one file after another.

    Returns the header metadata of the FIRST sorted file (names, labels)
    and an iterator over every file's Arrow table, with row indices global
    in file order.  The first file is parsed here, so a bad input fails
    now; each later file is parsed when the iterator reaches it, and its
    missing declarations (tagged/defined/ranges) and value labels are then
    unioned into the returned metadata (first file wins on label
    conflicts).  The metadata is complete once the iterator is exhausted.
    """
    files = _expand(paths)
    if not files:
        raise FileNotFoundError(f"no input files under {paths!r}")
    exts = {os.path.splitext(f)[1].lower() for f in files}
    if len(exts) > 1 or next(iter(exts)) not in _READERS:
        raise ValueError(
            f"unsupported statistical input extension(s) {sorted(exts)}; "
            f"expected one of {sorted(_READERS)}"
        )
    read = _READERS[next(iter(exts))]
    first, meta = read(files[0])

    def tables(t: pa.Table) -> Iterator[pa.Table]:
        offset = 0
        for fi, path in enumerate(files):
            if fi:
                t, m = read(path)
                _union_meta(meta, m, fi)
                t = t.set_column(
                    t.schema.get_field_index(ROW_COL),
                    ROW_COL,
                    pa.array(np.arange(offset, offset + len(t), dtype=np.int64)),
                )
            offset += len(t)
            yield t

    return meta, tables(first)


def read_stat_table(
    paths: str | Sequence[str],
) -> tuple["ray.data.Dataset", TableMeta]:
    """:func:`iter_stat_tables` collected into a Dataset (one block per
    file), with the complete metadata."""
    import ray.data

    meta, tables = iter_stat_tables(paths)
    return ray.data.from_arrow(list(tables)), meta
