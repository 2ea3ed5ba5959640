"""Vectorized Arrow kernels implementing the reference's scalar helpers.

Each function here is the pyarrow.compute (or numpy) equivalent of a scalar
helper in the reference, applied to a whole Arrow array at once — these are
the bodies used inside ``map_batches(batch_format="pyarrow")`` stages.

Per-byte work reads a string array's offsets and values buffers directly
(``_string_buffers``): a 256-entry byte table maps every content byte in
one numpy pass, and per-row counts come from ``np.add.reduceat`` over the
row offsets — no regex replace and no per-row Python.  An ASCII byte never
occurs inside a multi-byte UTF-8 sequence, so dropping ASCII bytes keeps a
buffer valid UTF-8.  Token membership hashes the tokens against an Arrow
array of the word set (``pc.is_in``), built once per word set.

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

import functools
import re
import string
from typing import Iterable, Optional, Sequence

import numpy as np
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


def _string_buffers(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, values) of a non-empty string or binary array as numpy
    views: the array's own ``len + 1`` offsets (its slice offset applied)
    and the whole values buffer as uint8."""
    t = arr.type
    if pa.types.is_large_string(t) or pa.types.is_large_binary(t):
        odt = np.int64
    elif pa.types.is_string(t) or pa.types.is_binary(t):
        odt = np.int32
    else:
        raise TypeError(f"unsupported type {t}")
    bufs = arr.buffers()
    offs = np.frombuffer(bufs[1], dtype=odt, count=len(arr) + 1 + arr.offset)[arr.offset :]
    data = np.frombuffer(bufs[2], dtype=np.uint8) if bufs[2] is not None else np.zeros(0, np.uint8)
    return offs, data


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
        offs, values = _string_buffers(ch)
        data = memoryview(values)
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


def fold_alternation(patterns: Sequence[str]) -> list[str]:
    """The regexes to run for "any of ``patterns`` matches": the one RE2
    alternation ``(?:p1)|(?:p2)|…`` when RE2 compiles it, else the
    patterns themselves.  Each pattern's inline flags (``(?i)``) and
    anchors stay inside its own group.  A pattern holding ``\\Q`` is not
    folded: its quoted literal runs to the next ``\\E``, past the group."""
    folded = "|".join("(?:" + p + ")" for p in patterns)
    if len(patterns) > 1 and not any("\\Q" in p for p in patterns) and re2_compiles(folded):
        return [folded]
    return list(patterns)


def re2_compiles(pattern: str) -> bool:
    """Whether Arrow's regex kernels (RE2) accept ``pattern``."""
    try:
        pc.match_substring_regex(pa.array([""], pa.string()), pattern)
    except pa.ArrowInvalid:
        return False
    return True


def match_any(arr: pa.Array, patterns: Sequence[str]) -> np.ndarray:
    """Rows of ``arr`` (nulls as no match) where any regex of ``patterns``
    matches, one RE2 pass per pattern."""
    hit = np.zeros(len(arr), dtype=bool)
    for p in patterns:
        hit |= np.asarray(_as_array(pc.match_substring_regex(arr, p)).fill_null(False))
    return hit


# ---------------------------------------------------------------------------
# word normalization + token membership (dictionary checks)
# ---------------------------------------------------------------------------

_ASCII_PUNCT = string.punctuation  # == Rust char::is_ascii_punctuation set
_PUNCT_TABLE = str.maketrans("", "", _ASCII_PUNCT)
_PUNCT_BYTE = np.zeros(256, dtype=bool)
_PUNCT_BYTE[list(_ASCII_PUNCT.encode())] = True


def normalize_word(word: str) -> str:
    """Scalar twin of src/check/dictionary.rs:110-115."""
    return word.translate(_PUNCT_TABLE).lower()


def normalize_words(arr: pa.Array) -> pa.Array:
    """Strip ASCII punctuation, lowercase — vectorized.  The strip is one
    byte-table lookup over the values buffer: the kept bytes, new offsets
    from their cumsum, the validity bitmap kept."""
    arr = _as_array(arr)
    if len(arr) == 0:
        return pc.utf8_lower(arr)
    offs, data = _string_buffers(arr)
    data = data[offs[0] : offs[-1]]
    keep = ~_PUNCT_BYTE[data]
    kept = np.concatenate([np.zeros(1, offs.dtype), np.cumsum(keep, dtype=offs.dtype)])
    validity = None
    if arr.null_count:
        validity = pa.py_buffer(np.packbits(np.asarray(arr.is_valid()), bitorder="little"))
    stripped = pa.Array.from_buffers(
        arr.type,
        len(arr),
        [validity, pa.py_buffer(kept[offs - offs[0]]), pa.py_buffer(data[keep])],
        null_count=arr.null_count,
    )
    return pc.utf8_lower(stripped)


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
    known = np.asarray(pc.is_in(flat, value_set=_word_array(words).cast(flat.type)))
    offsets = np.asarray(toks.offsets)
    return known, offsets[:-1], offsets[1:]


@functools.lru_cache(maxsize=8)
def _word_array(words: frozenset[str]) -> pa.Array:
    """The word set as an Arrow array, built once per word set (the
    frozenset caches its own hash, so a repeat lookup is cheap)."""
    return pa.array(sorted(words), pa.string())


@functools.lru_cache(maxsize=8)
def _foreign_bytes(words: frozenset[str]) -> np.ndarray:
    """uint8 table of the raw bytes that normalize into no word of
    ``words``: ASCII bytes other than punctuation (stripped), the " "
    separator and the bytes of the words themselves, with each ASCII
    letter judged by its lowercase.  A raw value holding one has a token
    outside ``words``.  No byte ≥ 0x80 is foreign, since ``utf8_lower``
    maps some non-ASCII code points to ASCII (U+212A → "k")."""
    inside = np.zeros(256, dtype=bool)
    inside[list("".join(words).encode())] = True
    upper, lower = slice(ord("A"), ord("Z") + 1), slice(ord("a"), ord("z") + 1)
    inside[upper] |= inside[lower]
    inside |= _PUNCT_BYTE
    inside[ord(" ")] = True
    inside[0x80:] = True
    return (~inside).astype(np.uint8)


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


def _empty_and_all_known(arr: pa.Array, words: frozenset[str]) -> tuple[np.ndarray, np.ndarray]:
    """Per raw value: (its normalized value is empty, every token of it is
    in ``words``).  A value holding a ``_foreign_bytes`` byte is neither,
    and only the other values are normalized and tokenized."""
    arr = _as_array(arr)
    empty = np.zeros(len(arr), dtype=bool)
    allin = np.zeros(len(arr), dtype=bool)
    maybe = _byte_counts(arr, [_foreign_bytes(words)])[0] == 0
    if arr.null_count:
        maybe |= np.asarray(arr.is_null())
    rows = np.nonzero(maybe)[0]
    if len(rows):
        norm = _as_array(normalize_words(arr.take(pa.array(rows))))
        empty[rows] = np.asarray(pc.equal(norm, "").fill_null(True))
        allin[rows] = tokens_all_in_set(norm, words)
    return empty, allin


def spellcheck_ok(arr: pa.Array, words: frozenset[str]) -> np.ndarray:
    """dictionary.rs:15-17: pass iff normalized value is empty OR every
    token is a known word. ``arr`` is the RAW (unnormalized) string array."""
    empty, allin = _empty_and_all_known(arr, words)
    return empty | allin


def stopword_ok(arr: pa.Array, words: frozenset[str]) -> np.ndarray:
    """dictionary.rs:22-24: pass iff normalized value is empty OR at least
    one token is NOT a stopword (fails only when ALL tokens are stopwords)."""
    empty, allin = _empty_and_all_known(arr, words)
    return empty | ~allin


# ---------------------------------------------------------------------------
# lengths / ratios
# ---------------------------------------------------------------------------


def _byte_counts(arr: pa.Array, tables: Sequence[np.ndarray]) -> np.ndarray:
    """(len(tables), len(arr)) int64: per table and row, the sum of
    ``table[byte]`` over the row's bytes.  Each uint8 table maps the values
    buffer once (``take``); ``np.add.reduceat`` sums per non-empty row."""
    counts = np.zeros((len(tables), len(arr)), dtype=np.int64)
    if len(arr) == 0:
        return counts
    offs, data = _string_buffers(arr)
    rows = np.nonzero(offs[1:] > offs[:-1])[0]
    if len(rows):
        data = data[offs[0] : offs[-1]]
        starts = offs[rows] - offs[0]
        for table, out in zip(tables, counts):
            out[rows] = np.add.reduceat(table.take(data), starts, dtype=np.int64)
    return counts


_BYTE = np.arange(256)
_TAB_NL_CR = np.isin(_BYTE, (0x09, 0x0A, 0x0D))
# rows: printable [\x20-\x7e\t\n\r], C0 control but \t\n\r, ASCII alnum
_BYTE_CLASSES = np.stack(
    [
        ((_BYTE >= 0x20) & (_BYTE <= 0x7E)) | _TAB_NL_CR,
        (_BYTE < 0x20) & ~_TAB_NL_CR,
        np.isin(_BYTE, list((string.ascii_letters + string.digits).encode())),
    ]
).astype(np.uint8)


def char_class_ratios(arr: pa.Array) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    r"""Per-string (odd, control, alnum) character ratios: the share of
    code points outside ``[\x20-\x7e\t\n\r]``, in
    ``[\x00-\x08\x0b\x0c\x0e-\x1f]`` and in ``[A-Za-z0-9]``; 0.0 for
    empty/null strings.

    Every class but "odd" holds ASCII bytes only, and each of those is one
    code point, so the counts are byte counts (``_byte_counts``).  A
    non-ASCII code point is never printable, so odd = code points −
    printable bytes, with code points from ``utf8_length``.
    """
    arr = _as_array(arr)
    cps = np.asarray(pc.utf8_length(arr).fill_null(0), dtype=np.int64)
    printable, control, alnum = _byte_counts(arr, _BYTE_CLASSES)

    def ratio(k: np.ndarray) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(cps > 0, k / np.maximum(cps, 1), 0.0)

    return ratio(cps - printable), ratio(control), ratio(alnum)


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
