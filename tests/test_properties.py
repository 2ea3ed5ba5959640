"""Property-based tests (hypothesis): the vectorized kernels must agree
with their scalar twins on arbitrary input, and the scrubber must be
byte-preserving and idempotent.  These are the load-bearing invariants
behind the F1 gate — a vectorization bug on either side shows up here
before it shows up as an F1 miss."""

import string

import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from qamd_ray import kernels as K
from qamd_ray.config import Config
from qamd_ray.gen_config import quality_config
from qamd_ray.oracle import oracle_labels
from qamd_ray.rules import RowRules, keep_expression
from qamd_ray.scrub import Scrubber

# printable-ish text incl. newlines, tabs, some non-ASCII and controls
TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), max_codepoint=0x2FF),
    max_size=400,
)


@st.composite
def code_rows(draw, n=st.integers(1, 8)):
    k = draw(n)
    rows = {
        "repo": [draw(st.sampled_from(["org/a", "org/b"])) for _ in range(k)],
        "path": [draw(st.text(string.ascii_letters + "/._- &#\n", min_size=1, max_size=40)) for _ in range(k)],
        "commit": ["c" * 8] * k,
        "lang": [draw(st.sampled_from(["python", "rust", ""])) for _ in range(k)],
        "content": [draw(TEXT) for _ in range(k)],
    }
    return pa.table({c: pa.array(v, pa.string()) for c, v in rows.items()})


def _cfg() -> Config:
    # rule-only config: no model stages (deterministic scalar twins exist
    # for every rule; models are covered by the corpus-level F1 test)
    import os

    from qamd_ray.config import Setting

    cfg = quality_config()
    q = cfg.quality_filter
    q.langid_min_confidence = None
    q.langid_allowed = None
    q.perplexity_max_bits_per_char = None
    q.duplicate_content = None
    # enable the flag-only date rule and the spellcheck-ratio rule so their
    # oracle twins get property coverage too (ADVICE r1: oracle_labels must
    # model every rule the pipeline can enable)
    q.date_format = Setting(setting=True, desc="date literals")
    q.spell_unknown_ratio_max = Setting(setting=0.5, desc="unknown ratio")
    q.spell_dictionaries = Setting(
        setting=[os.path.join(os.path.dirname(__file__), "fixtures", "words.txt")],
        desc="dict",
    )
    return cfg


CFG = _cfg()
RULES_FN = RowRules(CFG)


@given(code_rows())
@settings(max_examples=60, deadline=None)
def test_vectorized_rules_match_oracle(table):
    """Every f_* flag of the vectorized RowRules equals the scalar
    oracle's, for arbitrary content/paths."""
    out = RULES_FN(table)
    out = keep_expression()(out)
    labels = oracle_labels(table, CFG)
    flag_cols = [c for c in labels.column_names if c.startswith("f_")]
    for c in flag_cols:
        assert out[c].to_pylist() == labels[c].to_pylist(), c
    # keep must equal oracle keep too (flag-only rules excluded identically)
    assert out["keep"].to_pylist() == labels["keep"].to_pylist()


@given(st.lists(TEXT, min_size=1, max_size=10))
@settings(max_examples=60, deadline=None)
def test_scrubber_preserving_and_idempotent(texts):
    s = Scrubber(toxicity_lexicon=["grawlix"])
    t = pa.table(
        {
            "repo": pa.array(["r"] * len(texts)),
            "path": pa.array(["p"] * len(texts)),
            "content": pa.array(texts, pa.string()),
        }
    )
    out1 = s(t)
    scrubbed = out1["scrubbed"].to_pylist()
    content1 = out1["content"].to_pylist()
    for orig, new, flag in zip(texts, content1, scrubbed):
        if not flag:
            assert new == orig  # byte-identical pass-through
        # (flagged rows MAY coincide byte-wise if the input already
        # contains replacement tokens like `password=<SECRET>`)
    # idempotence: scrubbing already-scrubbed text is a no-op...
    t2 = pa.table(
        {
            "repo": t["repo"],
            "path": t["path"],
            "content": pa.array(content1, pa.string()),
        }
    )
    content2 = s(t2)["content"].to_pylist()
    assert content2 == content1


@given(st.lists(TEXT, min_size=1, max_size=16))
@settings(max_examples=60, deadline=None)
def test_char_class_ratio_matches_scalar(texts):
    arr = pa.array(texts, pa.string())
    got = K.char_class_ratio(arr, r"[A-Za-z0-9]")
    for t, g in zip(texts, got):
        want = (sum(c.isascii() and c.isalnum() for c in t) / len(t)) if t else 0.0
        assert abs(g - want) < 1e-9


@given(st.lists(TEXT, min_size=1, max_size=16))
@settings(max_examples=60, deadline=None)
def test_line_length_stats_match_scalar(texts):
    arr = pa.array(texts, pa.string())
    mx, mean, n = K.line_length_stats(arr)
    for t, a, b, c in zip(texts, mx, mean, n):
        lines = t.split("\n")
        lens = [len(l.encode("utf-8")) for l in lines]
        assert a == max(lens)
        assert abs(b - sum(lens) / len(lens)) < 1e-9
        assert c == len(lines)


@given(st.lists(st.text(string.ascii_lowercase + " .,!", max_size=60), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_dictionary_kernels_match_scalar(texts):
    words = frozenset({"foo", "bar", "baz", ""})
    arr = pa.array(texts, pa.string())
    spell = K.spellcheck_ok(arr, words)
    stop = K.stopword_ok(arr, words)
    for t, sp, stw in zip(texts, spell, stop):
        norm = K.normalize_word(t)
        want_sp = norm == "" or K.only_contains(norm, words)
        want_st = norm == "" or not K.only_contains(norm, words)
        assert sp == want_sp, repr(t)
        assert stw == want_st, repr(t)
