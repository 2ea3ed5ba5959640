"""Property-based tests (hypothesis): the vectorized kernels must agree
with their scalar twins on arbitrary input, the scrubber must be
byte-preserving and idempotent, and the frequency table must not depend
on how its input is split into batches.  These are the load-bearing invariants
behind the F1 gate — a vectorization bug on either side shows up here
before it shows up as an F1 miss."""

import string

import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from qamd_ray import kernels as K
from qamd_ray.config import Config
from qamd_ray.gen_config import quality_config
from qamd_ray.healthcheck import build_frequency_table, variables_from_schema
from qamd_ray.oracle import oracle_labels
from qamd_ray.rules import RowRules, keep_expression
from qamd_ray.scrub import Scrubber
from qamd_ray.sources import ROW_COL

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
    # oracle twins get property coverage too (oracle_labels must model
    # every rule the pipeline can enable)
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


# finite floats (and NaN) mixed with the edges of the "<int>.0" rule:
# signed zero, 1e16 and its neighbours, and integers around 2**53
EDGE_FLOATS = [-0.0, 0.0, 1e16, -1e16, 9999999999999998.0, 2.0**53, 2.0**53 - 1,
               2.0**53 + 2, -(2.0**53), 0.5, -1.5, 1e-300, float("nan")]
FLOATS = st.one_of(
    st.floats(allow_infinity=False),
    st.sampled_from(EDGE_FLOATS),
    st.integers(-(2**60), 2**60).map(float),
)


@given(st.lists(FLOATS, max_size=24))
@settings(max_examples=100, deadline=None)
def test_render_float_values_match_scalar(values):
    """The vectorized float rendering equals the scalar rule element-wise."""
    from qamd_ray.readers import _render_float

    got = K.render_values(pa.array(values, pa.float64())).to_pylist()
    assert got == [_render_float(v) for v in values]


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


# --- the in-process frequency table -----------------------------------------


def _render_scalar(v) -> str:
    """Scalar twin of ``kernels.render_values`` for int/float/str cells."""
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{int(v)}.0" if v == int(v) and abs(v) < 1e16 else repr(v)
    return str(v)


@st.composite
def freq_inputs(draw):
    n = draw(st.integers(0, 40))
    cells = {
        "i": (pa.int64(), st.one_of(st.none(), st.integers(-3, 3))),
        "f": (pa.float64(), st.one_of(st.none(), st.sampled_from([0.0, 1.0, -2.5, 0.1, 1e20]))),
        "s": (pa.string(), st.one_of(st.none(), st.sampled_from(["", "a", "b", "a b"]))),
    }
    cols = {
        name: pa.array([draw(strat) for _ in range(n)], typ)
        for name, (typ, strat) in cells.items()
    }
    # global row indices in any order, so "first" is not simply position
    cols[ROW_COL] = pa.array(draw(st.permutations(range(n))), pa.int64())
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=5)))
    return pa.table(cols), cuts


def _rows(freq: pa.Table) -> list[tuple]:
    return sorted(
        zip(*(freq[c].to_pylist() for c in ("vi", "value", "n", "first_row")))
    )


@given(freq_inputs())
@settings(max_examples=60, deadline=None)
def test_frequency_table_batches_match_single_and_oracle(inp):
    """Any split of the input into batches gives the frequency table of the
    whole table, and both equal a pandas oracle: per (variable, rendered
    value), the count and the minimum row index."""
    import pandas as pd

    table, cuts = inp
    variables = variables_from_schema(table.schema)
    bounds = [0, *cuts, table.num_rows]
    batches = [table.slice(a, b - a) for a, b in zip(bounds, bounds[1:])]

    one, n_one = build_frequency_table([table], variables)
    many, n_many = build_frequency_table(batches, variables)
    assert n_one == n_many == table.num_rows

    oracle = []
    rows = table[ROW_COL].to_pylist()
    for v in variables:
        df = pd.DataFrame(
            {"value": [_render_scalar(x) for x in table[v.name].to_pylist()], "row": rows}
        )
        for value, g in df.groupby("value"):
            oracle.append((v.index, value, len(g), int(g["row"].min())))
    assert _rows(one) == _rows(many) == sorted(oracle)
