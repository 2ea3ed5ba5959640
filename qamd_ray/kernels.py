"""Vectorized Arrow kernels implementing the reference's scalar helpers.

Each function here is the pyarrow.compute (or numpy) equivalent of a scalar
helper in the reference, applied to a whole Arrow array at once — these are
the bodies used inside ``map_batches(batch_format="pyarrow")`` stages.

Reference semantics reimplemented (not ported):
* ``contains_any``      — substring-any ``contains`` src/check/mod.rs:94-99
* ``normalize_words``   — strip ASCII punctuation + lowercase,
                          src/check/dictionary.rs:110-115
* ``only_contains``     — every " "-split token in the word set,
                          src/check/dictionary.rs:117-122
* ``spellcheck_ok``     — empty-or-all-known, src/check/dictionary.rs:15-17
* ``stopword_ok``       — empty-or-not-all-stopwords, dictionary.rs:22-24
"""

from __future__ import annotations

import re
import string
from typing import Iterable, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# ---------------------------------------------------------------------------
# substring-any (reference `contains`, src/check/mod.rs:94-99)
# ---------------------------------------------------------------------------


def odd_chars_regex(patterns: Sequence[str]) -> str:
    """Regex alternation of literal substrings (incl. the double-space
    "  " entry of default.yaml:49 — substring semantics, not char class)."""
    return "|".join(re.escape(p) for p in patterns)


def _as_array(arr) -> pa.Array:
    """Coerce ChunkedArray (the common map_batches column type) to Array."""
    if isinstance(arr, pa.ChunkedArray):
        return arr.combine_chunks()
    return arr


def digest_rows(arr, algo: str = "sha256") -> list[str]:
    """Per-row hexdigests of a UTF-8 string (or binary) column, hashed
    straight from the Arrow values buffer via memoryview slices — no
    per-row Python str allocation or .encode() round-trip.  Arrow strings
    are valid UTF-8 by construction, so the buffer bytes equal
    ``s.encode("utf-8", "surrogatepass")`` of the decoded value and the
    digests match the naive to_pylist() path bit-for-bit.

    Nulls hash as the empty string (same as the fill_null('') the callers
    previously applied).
    """
    import hashlib as _hl

    hasher = getattr(_hl, algo)
    empty_hex = hasher(b"").hexdigest()
    chunks = arr.chunks if isinstance(arr, pa.ChunkedArray) else [arr]
    out: list[str] = []
    for ch in chunks:
        n = len(ch)
        if n == 0:
            continue
        t = ch.type
        if pa.types.is_large_string(t) or pa.types.is_large_binary(t):
            odt = np.int64
        elif pa.types.is_string(t) or pa.types.is_binary(t):
            odt = np.int32
        else:
            raise TypeError(f"digest_rows: unsupported type {t}")
        bufs = ch.buffers()
        # offsets buffer includes the chunk's logical offset; slice past it
        offs = np.frombuffer(bufs[1], dtype=odt, count=n + 1 + ch.offset)[
            ch.offset :
        ]
        data = memoryview(bufs[2]) if bufs[2] is not None else memoryview(b"")
        if ch.null_count:
            valid = ~np.asarray(ch.is_null())
            out.extend(
                hasher(data[offs[i] : offs[i + 1]]).hexdigest()
                if valid[i]
                else empty_hex
                for i in range(n)
            )
        else:
            out.extend(
                hasher(data[offs[i] : offs[i + 1]]).hexdigest() for i in range(n)
            )
    return out


def contains_any(arr: pa.Array, patterns: Sequence[str]) -> pa.Array:
    """True where the string contains ANY of the literal substrings.

    Nulls propagate as nulls (caller decides null handling).
    """
    if len(patterns) == 0:
        return pa.array(np.zeros(len(arr), dtype=bool))
    return pc.match_substring_regex(arr, odd_chars_regex(patterns))


# ---------------------------------------------------------------------------
# word normalization + token membership (dictionary checks)
# ---------------------------------------------------------------------------

_ASCII_PUNCT = string.punctuation  # == Rust char::is_ascii_punctuation set
_PUNCT_RE = "[" + re.escape(_ASCII_PUNCT) + "]"
_PUNCT_TABLE = str.maketrans("", "", _ASCII_PUNCT)


def normalize_word(word: str) -> str:
    """Scalar twin of src/check/dictionary.rs:110-115."""
    return word.translate(_PUNCT_TABLE).lower()


def normalize_words(arr: pa.Array) -> pa.Array:
    """Strip ASCII punctuation, lowercase — vectorized."""
    return pc.utf8_lower(pc.replace_substring_regex(arr, _PUNCT_RE, ""))


def only_contains(s: str, words: frozenset[str] | set[str]) -> bool:
    """Scalar twin of src/check/dictionary.rs:117-122: every " "-split
    token (including empty tokens produced by doubled spaces) ∈ words."""
    return all(tok in words for tok in s.split(" "))


def _token_membership(arr: pa.Array, words: frozenset[str]):
    """Split on " " and test per-token membership.

    Returns (known: bool ndarray over flat tokens, start, end: list offsets).
    """
    toks = _as_array(pc.split_pattern(pc.fill_null(_as_array(arr), ""), " "))
    flat = toks.flatten()
    if len(flat) == 0:
        known = np.zeros(0, dtype=bool)
    else:
        # pandas-backed hashed membership: far faster than np.isin on objects
        import pandas as pd

        known = pd.Index(np.asarray(flat, dtype=object)).isin(words)
    offsets = np.asarray(toks.offsets)
    return known, offsets[:-1], offsets[1:]


def tokens_all_in_set(arr: pa.Array, words: frozenset[str]) -> np.ndarray:
    """Vectorized ``only_contains`` over an already-normalized string array.

    Splits on the single-space character (reference splits on " ",
    dictionary.rs:119 — NOT on general whitespace), then checks membership
    of every token including empties.
    """
    known, start, end = _token_membership(arr, words)
    csum = np.concatenate([[0], np.cumsum(known)])
    return (csum[end] - csum[start]) == (end - start)


def unknown_token_ratio(arr: pa.Array, words: frozenset[str]) -> np.ndarray:
    """Fraction of " "-split tokens NOT in the word set (0.0 for empty/null
    strings — an empty document has no tokens to be unknown)."""
    arr = _as_array(arr)
    known, start, end = _token_membership(arr, words)
    n = (end - start).astype(np.float64)
    csum = np.concatenate([[0], np.cumsum(~known)])
    bad = (csum[end] - csum[start]).astype(np.float64)
    empty = np.asarray(pc.equal(pc.fill_null(arr, ""), ""))
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(n > 0, bad / np.maximum(n, 1), 0.0)
    ratio[empty] = 0.0
    return ratio


def spellcheck_ok(arr: pa.Array, words: frozenset[str]) -> np.ndarray:
    """dictionary.rs:15-17: pass iff normalized value is empty OR every
    token is a known word. ``arr`` is the RAW (unnormalized) string array."""
    norm = _as_array(normalize_words(_as_array(arr)))
    empty = np.asarray(pc.equal(norm, "").fill_null(True))
    allin = tokens_all_in_set(norm, words)
    return empty | allin


def stopword_ok(arr: pa.Array, words: frozenset[str]) -> np.ndarray:
    """dictionary.rs:22-24: pass iff normalized value is empty OR at least
    one token is NOT a stopword (fails only when ALL tokens are stopwords)."""
    norm = _as_array(normalize_words(_as_array(arr)))
    empty = np.asarray(pc.equal(norm, "").fill_null(True))
    allin = tokens_all_in_set(norm, words)
    return empty | ~allin


# ---------------------------------------------------------------------------
# lengths / ratios
# ---------------------------------------------------------------------------


def char_class_ratio(arr: pa.Array, class_regex: str) -> np.ndarray:
    """Fraction of characters matching a regex char class, per string.

    ratio = (len - len(with class removed)) / len ; 0.0 for empty/null.
    Vectorized via two utf8_length calls + one replace.
    """
    arr = _as_array(arr)
    total = np.asarray(pc.utf8_length(arr).fill_null(0), dtype=np.float64)
    stripped = pc.replace_substring_regex(arr, class_regex, "")
    kept = np.asarray(pc.utf8_length(stripped).fill_null(0), dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(total > 0, (total - kept) / np.maximum(total, 1), 0.0)


def line_length_stats(arr: pa.Array) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(max_line_len, mean_line_len, n_lines) in bytes per string.

    Lines split on '\\n'; nulls treated as "". Empty string → (0, 0.0, 1)
    (a split of "" yields one empty line, so n is always ≥ 1).
    """
    lines = _as_array(pc.split_pattern(pc.fill_null(_as_array(arr), ""), "\n"))
    lens = np.asarray(pc.binary_length(lines.flatten()), dtype=np.int64)
    offsets = np.asarray(lines.offsets)
    start, end = offsets[:-1], offsets[1:]
    n = end - start  # >= 1 for every row after fill_null
    if len(lens) == 0:
        z = np.zeros(len(start), dtype=np.int64)
        return z, z.astype(np.float64), n
    cmax = np.maximum.reduceat(lens, start)
    csum = np.concatenate([[0], np.cumsum(lens)])
    cmean = (csum[end] - csum[start]) / np.maximum(n, 1)
    return cmax, cmean, n


# ---------------------------------------------------------------------------
# value rendering (reference AnyValue Display, src/model/anyvalue.rs:25-41)
# ---------------------------------------------------------------------------


def render_values(arr: pa.Array) -> pa.Array:
    """Render an Arrow array to the reference's string representation.

    anyvalue.rs:25-31: integers render bare ("1"); floats append ".0" when
    they have no decimal point ("1" → "1.0"); strings render verbatim.
    Value equality in the reference is equality of this rendering
    (anyvalue.rs:82-94). Nulls render as "" (the CSV empty-cell analogue,
    src/readstat/csv/read.rs:112-115).
    """
    arr = _as_array(arr)
    t = arr.type
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return pc.fill_null(arr, "")
    if pa.types.is_integer(t):
        return pc.fill_null(pc.cast(arr, pa.string()), "")
    if pa.types.is_floating(t):
        vals = np.asarray(pc.cast(arr, pa.float64()).fill_null(np.nan))
        nan = np.isnan(vals)
        # integer-valued finite floats below 1e16 render "<int>.0" in one
        # vectorized pass; only the rest (fractions, huge values) go
        # through repr
        with np.errstate(invalid="ignore"):
            whole = ~nan & (np.abs(vals) < 1e16) & (np.trunc(vals) == vals)
        ints = pc.cast(pa.array(np.where(whole, vals, 0).astype(np.int64)), pa.string())
        rest = ~(nan | whole)
        other = pa.scalar("")
        if rest.any():
            other = np.full(len(vals), "", dtype=object)
            other[rest] = [repr(v) for v in vals[rest].tolist()]
            other = pa.array(other, pa.string())
        return pc.if_else(pa.array(whole), pc.binary_join_element_wise(ints, ".0", ""), other)
    if pa.types.is_boolean(t):
        return pc.fill_null(pc.cast(arr, pa.string()), "")
    if pa.types.is_timestamp(t) or pa.types.is_date(t):
        return pc.fill_null(pc.cast(arr, pa.string()), "")
    return pc.fill_null(pc.cast(arr, pa.string()), "")


def load_wordlists(paths: Iterable[str]) -> frozenset[str]:
    """Union of newline-split dictionary files; unreadable files skipped
    (reference filter_map(result.ok()), src/check/dictionary.rs:44-57)."""
    words: set[str] = set()
    for p in paths:
        try:
            with open(p, "r", encoding="utf-8") as f:
                words.update(f.read().split("\n"))
        except OSError:
            continue
    return frozenset(words)
