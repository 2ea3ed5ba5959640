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
    arr = pa.array(["aa!!", "a\x01é\n", "", None])
    odd, control, alnum = K.char_class_ratios(arr)
    assert np.allclose(alnum, [0.5, 0.25, 0.0, 0.0])
    assert np.allclose(odd, [0.0, 0.5, 0.0, 0.0])
    assert np.allclose(control, [0.0, 0.25, 0.0, 0.0])


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


def test_csv_utf8_bom_header_stays_text(tmp_path, ray_session):
    """A UTF-8 BOM must not un-pin the first column from health_check's
    all-string CSV rule: the header probe reads utf-8-sig so the pinned
    name matches Arrow's post-BOM column name ('01' stays Text, not 1)."""
    from qamd_ray.gen_config import default_config
    from qamd_ray.healthcheck import health_check

    p = tmp_path / "bom.csv"
    p.write_bytes(b"\xef\xbb\xbfa,b\n01,1.50\n")
    rep = health_check(str(p), default_config())
    assert rep.metadata.raw_case_count == 1
    assert rep.metadata.variable_count == 2
    assert rep.metadata.data_type_occurrences == {"Text": 2, "Numeric": 0}


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
