"""Unit tests for the vectorized kernels — expectations mirror the
reference's helper tests (src/check/mod.rs:134-159, dictionary.rs:124-138)
plus the rendering rules of src/model/anyvalue.rs:25-41."""

import numpy as np
import pyarrow as pa

from qamd_ray import kernels as K


def test_contains_any():
    # check/mod.rs:141-146
    a = pa.array(["foo bar baz", "foo baz qux"])
    assert K.contains_any(a, ["bar"]).to_pylist() == [True, False]
    # double-space is a substring pattern, not a char class (default.yaml:49)
    b = pa.array(["a  b", "a b"])
    assert K.contains_any(b, ["  "]).to_pylist() == [True, False]


def test_only_contains():
    # dictionary.rs:124-138
    words = frozenset({"foo", "baz", "qux"})
    assert K.only_contains("foo baz qux", words)
    assert not K.only_contains("foo bar baz", words)
    # doubled space yields an empty token that must be in the set to pass
    assert not K.only_contains("foo  baz", words)
    assert K.only_contains("foo  baz", words | {""})


def test_normalize_word():
    # dictionary.rs:110-115: strip ASCII punctuation, lowercase
    assert K.normalize_word("this@ is far!") == "this is far"
    assert K.normalize_word("G@regs") == "gregs"
    assert K.normalize_words(pa.array(["A-B.c", None])).to_pylist() == ["abc", None]


def test_spellcheck_and_stopword():
    words = frozenset({"this", "is", "fine"})
    arr = pa.array(["this is fine", "this is nt", "", None])
    assert list(K.spellcheck_ok(arr, words)) == [True, False, True, True]
    stops = frozenset({"qux"})
    arr2 = pa.array(["qux", "qux foo", "", None])
    assert list(K.stopword_ok(arr2, stops)) == [False, True, True, True]


def test_unknown_token_ratio():
    words = frozenset({"a", "b"})
    arr = pa.array(["a b", "a x", "x y z", ""])
    r = K.unknown_token_ratio(arr, words)
    assert np.allclose(r, [0.0, 0.5, 1.0, 0.0])


def test_render_values():
    # anyvalue.rs:25-41: ints bare, floats gain ".0", nulls → ""
    assert K.render_values(pa.array([1, 2, None])).to_pylist() == ["1", "2", ""]
    assert K.render_values(pa.array([1.0, 1.5, None])).to_pylist() == ["1.0", "1.5", ""]
    assert K.render_values(pa.array(["x", None])).to_pylist() == ["x", ""]
    # Int32(1) and Double(1.0) render differently → distinct values
    assert K.render_values(pa.array([1]))[0].as_py() != K.render_values(pa.array([1.0]))[0].as_py()


def test_char_class_ratio():
    arr = pa.array(["aa11", "aaaa", ""])
    assert np.allclose(K.char_class_ratio(arr, "[0-9]"), [0.5, 0.0, 0.0])


def test_line_length_stats():
    mx, mean, n = K.line_length_stats(pa.array(["ab\ncdef", "x", "", None]))
    assert list(mx) == [4, 1, 0, 0]
    assert np.allclose(mean, [3.0, 1.0, 0.0, 0.0])
    assert list(n) == [2, 1, 1, 1]


def test_chunked_inputs():
    ch = pa.chunked_array([["a b"], ["c  d"]])
    assert list(K.tokens_all_in_set(ch, frozenset({"a", "b"}))) == [True, False]
    mx, mean, n = K.line_length_stats(ch)
    assert list(n) == [1, 1]


def test_read_table_dispatch(tmp_path):
    """S1 fuzzy dispatch parity (src/readstat/read.rs:21-39) + CSV
    empty⇒missing rule (csv/read.rs:112-115)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest

    from qamd_ray.sources import read_table

    t = pa.table({"a": ["x", "", "y"], "b": [1, 2, 3]})
    pq.write_table(t, str(tmp_path / "t.parquet"))
    with open(tmp_path / "t.csv", "w") as f:
        f.write("a,b\nx,1\n,2\ny,3\n")

    dp = read_table(str(tmp_path / "t.parquet")).to_pandas()
    assert dp["a"].tolist() == ["x", "", "y"]  # parquet untouched

    dc = read_table(str(tmp_path / "t.csv")).to_pandas()
    dc = dc.sort_values("b").reset_index(drop=True)  # Ray doesn't preserve order
    assert dc["a"][0] == "x" and dc["a"].isna()[1]  # empty ⇒ missing
    # CSV columns are always raw Text (csv/read.rs:84-91) — no inference
    assert dc["b"].tolist() == ["1", "2", "3"]

    # statistical formats now dispatch to the native readers (S2-S4);
    # a corrupt payload surfaces the reader's own error
    with open(tmp_path / "t.sav", "w") as f:
        f.write("nope")
    with pytest.raises(ValueError, match="not an SPSS system file"):
        read_table(str(tmp_path / "t.sav"))
    with open(tmp_path / "t.xyz", "w") as f:
        f.write("nope")
    with pytest.raises(ValueError, match="unsupported input extension"):
        read_table(str(tmp_path / "t.xyz"))


def test_csv_utf8_bom_header_stays_text(tmp_path, ray_session):
    """A UTF-8 BOM must not un-pin the first column from the all-string
    CSV rule: the header probe reads utf-8-sig so the pinned name matches
    Arrow's post-BOM column name ('01' stays '01', not 1)."""
    from qamd_ray.sources import read_table

    p = tmp_path / "bom.csv"
    p.write_bytes(b"\xef\xbb\xbfa,b\n01,1.50\n")
    df = read_table(str(p)).to_pandas()
    assert list(df.columns) == ["a", "b"]
    assert df["a"].tolist() == ["01"]
    assert df["b"].tolist() == ["1.50"]


def test_read_table_jsonl(tmp_path):
    from qamd_ray.sources import read_table

    with open(tmp_path / "d.jsonl", "w") as f:
        f.write('{"repo": "r1", "content": "a"}\n{"repo": "r2", "content": "b"}\n')
    df = read_table(str(tmp_path / "d.jsonl")).to_pandas()
    assert sorted(df["repo"]) == ["r1", "r2"]
    pruned = read_table(str(tmp_path / "d.jsonl"), columns=["content"]).to_pandas()
    assert list(pruned.columns) == ["content"]


def test_read_table_compressed_and_ipc(tmp_path, ray_session):
    """.csv.gz keeps the all-string + empty⇒missing CSV rules through
    transparent gzip; .jsonl.gz and Arrow IPC (.feather) dispatch too."""
    import gzip

    import pyarrow as pa
    import pyarrow.feather as pf

    from qamd_ray.sources import read_table

    with gzip.open(tmp_path / "t.csv.gz", "wt") as f:
        f.write("a,b\n01,1\n,2\ny,3\n")
    dc = read_table(str(tmp_path / "t.csv.gz")).to_pandas()
    dc = dc.sort_values("b").reset_index(drop=True)
    assert dc["a"][0] == "01" and dc["a"].isna()[1]  # pinned text + missing
    assert dc["b"].tolist() == ["1", "2", "3"]

    with gzip.open(tmp_path / "t.jsonl.gz", "wt") as f:
        f.write('{"a": 1, "b": "x"}\n{"a": 2, "b": "y"}\n')
    dj = read_table(str(tmp_path / "t.jsonl.gz")).to_pandas()
    assert sorted(dj["a"].tolist()) == [1, 2]

    pf.write_feather(
        pa.table({"a": [1, 2], "b": ["x", "y"], "c": [0.5, 1.5]}),
        tmp_path / "t.feather",
    )
    df = read_table(str(tmp_path / "t.feather"), columns=["a", "c"]).to_pandas()
    assert sorted(df.columns) == ["a", "c"]
    assert sorted(df["a"].tolist()) == [1, 2]


def test_read_table_orc_multi_stripe(tmp_path, ray_session):
    """.orc dispatches at STRIPE granularity (one read task per stripe)
    with in-task column pruning; a small stripe_size forces ≥2 stripes
    so the per-stripe path is actually exercised."""
    import pyarrow as pa
    import pyarrow.orc as orc

    from qamd_ray.sources import read_table

    n = 50_000
    t = pa.table(
        {
            "a": pa.array(range(n), pa.int64()),
            "b": pa.array([f"row{i}" for i in range(n)], pa.string()),
        }
    )
    orc.write_table(t, tmp_path / "t.orc", stripe_size=64 * 1024)
    assert orc.ORCFile(tmp_path / "t.orc").nstripes >= 2

    out = read_table(str(tmp_path / "t.orc")).to_pandas().sort_values("a")
    assert out["a"].tolist() == list(range(n))
    assert out["b"].iloc[0] == "row0"

    pruned = read_table(str(tmp_path / "t.orc"), columns=["a"]).to_pandas()
    assert list(pruned.columns) == ["a"]
    assert sorted(pruned["a"].tolist()) == list(range(n))


def test_digest_rows_matches_naive():
    """Buffer-level hashing must equal the to_pylist()+encode path on every
    layout: plain, nulls, chunked, sliced, large_string, binary."""
    import hashlib

    import numpy as np
    import pyarrow as pa

    from qamd_ray import kernels as K

    vals = ["", "hello", "héllo wörld", "a" * 5000, None, "☃ snow", "x"]

    def naive(v, algo="sha256"):
        enc = (v or "").encode("utf-8", "surrogatepass")
        return getattr(hashlib, algo)(enc).hexdigest()

    expect = [naive(v) for v in vals]
    for arr in (
        pa.array(vals, pa.string()),
        pa.array(vals, pa.large_string()),
        pa.chunked_array([pa.array(vals[:3]), pa.array(vals[3:])]),
        pa.array([None, None] + vals, pa.string()).slice(2),
    ):
        assert K.digest_rows(arr) == expect, arr.type
    # md5 + binary type
    barr = pa.array([(v or "").encode() for v in vals], pa.binary())
    assert K.digest_rows(barr, "md5") == [naive(v, "md5") for v in vals]
    # empty array
    assert K.digest_rows(pa.array([], pa.string())) == []
