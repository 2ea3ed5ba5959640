"""Vectorized per-row quality rules — QAMD's check registry as batch kernels.

The reference registers its checks in three plain vectors of function
pointers (/root/reference/src/check/mod.rs:66-81) and gates every check on
the presence of its config key (e.g. src/check/variable.rs:25,
src/check/post.rs:47).  This module mirrors that surface for the graft's
row-level rules: a ``RULES`` registry of named entries, each of which is
skipped when its ``quality_filter.<key>`` config leaf is absent, and each of
which appends one boolean flag column ``f_<name>`` to the batch.

Everything here is stateless and vectorized (pyarrow.compute / numpy over
whole Arrow arrays — no per-row Python in the hot path except sha256, which
has no vectorized kernel and is hashed straight from the Arrow values
buffer by ``kernels.digest_rows``).  The content bytes are read in a few
whole-buffer passes: the three character-class ratios come from one
byte-class count (``kernels.char_class_ratios``), the date literals from
one RE2 alternation of every date regex, folded once in
``RowRules.__init__``, and the dictionary rules from one byte-table
punctuation strip, one lowercase and one hashed token-membership test.
The stage is a plain ``map_batches`` task:
``ds.map_batches(RowRules(config), batch_format="pyarrow")``; its state
(patterns, thresholds, word sets) ships with the serialized callable.

Rule → reference-check lineage is documented per entry (file:line into
/root/reference). ``drops=True`` rules feed the keep/drop decision; flag-only
rules (missing_lang, date_format — QAMD's DateFormat only flags,
src/check/variable.rs:20-46) are recorded but do not drop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import kernels as K
from .config import Config
from .synth import TOXICITY_LEXICON

# Stata/SPSS date-format specifier flavor, generalized to content-level
# date/timestamp literals (reference checks the variable's value_format
# string textually, src/check/variable.rs:20-46; the graft flags rows whose
# content embeds date-like literals).
DATE_REGEXES = [
    r"\b\d{4}-\d{2}-\d{2}\b",            # ISO date
    r"\b\d{2}/\d{2}/\d{4}\b",            # DD/MM/YYYY
    r"\b\d{4}-\d{2}-\d{2}[T ]\d{2}:\d{2}", # ISO timestamp
]


@dataclass(frozen=True)
class Rule:
    """One registry entry: name → flag column ``f_<name>``."""

    name: str
    config_key: str  # leaf under config.quality_filter
    drops: bool  # participates in the keep/drop AND
    desc: str = ""


# Registry order is report order (mirrors CheckName ordinal ordering,
# /root/reference/src/report/mod.rs:30-42).
RULES: list[Rule] = [
    Rule("bad_path", "bad_path", True, "Path must fully match the configured pattern (BadFileName, post.rs:44-67)"),
    Rule("path_odd", "path_odd_characters", True, "Path contains odd characters (VariableOddCharacters, variable.rs:94-116)"),
    Rule("path_len", "path_max_length", True, "Path exceeds max byte length (VariableLabelMaxLength, variable.rs:72-92)"),
    Rule("missing_lang", "missing_lang", False, "Declared lang tag is empty (MissingVariableLabels, variable.rs:48-70)"),
    Rule("content_odd", "content_odd_characters", True, "Content contains an odd substring (StringValueOddCharacters exact, post.rs:262-299)"),
    Rule("odd_ratio", "odd_char_ratio_max", True, "Odd/non-ASCII char ratio over content (StringValueOddCharacters generalized, post.rs:262-299)"),
    Rule("control_ratio", "control_char_ratio_max", True, "Control-char ratio over content (north-star non-UTF8 analogue)"),
    Rule("line_len", "max_line_length", True, "Longest line exceeds max bytes"),
    Rule("avg_line_len", "max_avg_line_length", True, "Mean line length exceeds max bytes"),
    Rule("min_len", "min_content_length", True, "Content shorter than min bytes (empty => SYSTEM_MISSING analogue, csv/read.rs:112-115)"),
    Rule("max_len", "max_content_length", True, "Content longer than max bytes"),
    Rule("alnum", "alnum_ratio_min", True, "Alphanumeric ratio below min"),
    Rule("date", "date_format", False, "Content embeds date-format literals (DateFormat, variable.rs:20-46 — flag-only)"),
    Rule("stopword_only", "stopword_only", True, "Every token is in the lexicon (StringValueStopword, post.rs:420-443)"),
    Rule("spell_ratio", "spell_unknown_ratio_max", True, "Unknown-token ratio over dictionary (StringValueSpellcheck, post.rs:205-226)"),
]

# flags computed by later stages that also participate in keep/drop
MODEL_DROP_FLAGS = ["f_langid", "f_perplexity", "f_duplicate"]


def flag_col(name: str) -> str:
    return "f_" + name


class RowRules:
    """Stage-A callable: appends sha256, derived features and rule flags.

    Emits, per input row (zero-copy Arrow in):
      * ``content_sha256``  — hex digest of the ORIGINAL content (the
        pass-through invariant key, BASELINE.json input_hint, and the
        exact-dup grouping key, DuplicateValues post.rs:229-260);
      * feature columns ``n_bytes``, ``n_lines``, ``max_line_len``;
      * one ``f_<rule>`` boolean per enabled rule.
    """

    def __init__(self, config: Config):
        q = config.quality_filter
        self.enabled: list[str] = [r.name for r in RULES if getattr(q, r.config_key) is not None]
        g = lambda key: getattr(q, key).setting if getattr(q, key) is not None else None

        self.bad_path_re = None
        if g("bad_path") is not None:
            # fullmatch semantics like the reference's is_match on an anchored
            # pattern (post.rs:56 with default ^...$ pattern)
            self.bad_path_re = "^(?:" + str(g("bad_path")) + ")$"
        self.path_odd = list(g("path_odd_characters") or [])
        self.content_odd = list(g("content_odd_characters") or [])
        self.path_max = g("path_max_length")
        self.odd_ratio_max = g("odd_char_ratio_max")
        self.control_ratio_max = g("control_char_ratio_max")
        self.max_line = g("max_line_length")
        self.max_avg_line = g("max_avg_line_length")
        self.min_len = g("min_content_length")
        self.max_len = g("max_content_length")
        self.alnum_min = g("alnum_ratio_min")
        dr = g("date_format")
        if isinstance(dr, (list, tuple)) and dr and all(isinstance(p, str) for p in dr):
            self.date_res = K.fold_alternation(dr)
        else:  # bool True / anything else → built-in bank
            self.date_res = K.fold_alternation(DATE_REGEXES)
        self.stop_words: Optional[frozenset] = None
        if g("stopword_only") is not None:
            v = g("stopword_only")
            if isinstance(v, (list, tuple)) and v and all("/" in str(p) or str(p).endswith(".txt") for p in v):
                self.stop_words = K.load_wordlists(v)
            elif isinstance(v, (list, tuple)):
                self.stop_words = frozenset(str(x) for x in v)
            else:  # bool True → built-in lexicon
                self.stop_words = frozenset(TOXICITY_LEXICON)
        self.spell_ratio_max = g("spell_unknown_ratio_max")
        self.spell_words: frozenset = frozenset()
        if self.spell_ratio_max is not None and g("spell_dictionaries") is not None:
            self.spell_words = K.load_wordlists(g("spell_dictionaries"))

    def __call__(self, batch: pa.Table) -> pa.Table:
        content = K._as_array(pc.fill_null(batch["content"], ""))
        path = K._as_array(pc.fill_null(batch["path"], ""))

        # sha256 of original content bytes (input_hint invariant key)
        sha = K.digest_rows(content, "sha256")

        n_bytes = np.asarray(pc.binary_length(content), dtype=np.int64)
        max_line, mean_line, n_lines = K.line_length_stats(content)

        cols: dict[str, pa.Array | pa.ChunkedArray] = {}
        for name in batch.column_names:
            cols[name] = batch[name]
        cols["content_sha256"] = pa.array(sha, pa.string())
        cols["n_bytes"] = pa.array(n_bytes)
        cols["n_lines"] = pa.array(n_lines.astype(np.int64))
        cols["max_line_len"] = pa.array(max_line.astype(np.int64))

        e = set(self.enabled)
        if "bad_path" in e:
            ok = np.asarray(K._as_array(pc.match_substring_regex(path, self.bad_path_re)).fill_null(False))
            cols[flag_col("bad_path")] = pa.array(~ok)
        if "path_odd" in e:
            cols[flag_col("path_odd")] = pa.array(
                np.asarray(K._as_array(K.contains_any(path, self.path_odd)).fill_null(False))
            )
        if "path_len" in e:
            plen = np.asarray(pc.binary_length(path), dtype=np.int64)
            cols[flag_col("path_len")] = pa.array(plen > int(self.path_max))
        if "missing_lang" in e:
            lang = pc.fill_null(batch["lang"], "")
            cols[flag_col("missing_lang")] = pa.array(
                np.asarray(K._as_array(pc.equal(lang, "")))
            )
        if "content_odd" in e:
            cols[flag_col("content_odd")] = pa.array(
                np.asarray(K._as_array(K.contains_any(content, self.content_odd)).fill_null(False))
            )
        if e & {"odd_ratio", "control_ratio", "alnum"}:
            odd_ratio, control_ratio, alnum_ratio = K.char_class_ratios(content)
        if "odd_ratio" in e:
            cols["odd_char_ratio"] = pa.array(odd_ratio)
            cols[flag_col("odd_ratio")] = pa.array(odd_ratio > float(self.odd_ratio_max))
        if "control_ratio" in e:
            cols[flag_col("control_ratio")] = pa.array(control_ratio > float(self.control_ratio_max))
        if "line_len" in e:
            cols[flag_col("line_len")] = pa.array(max_line > int(self.max_line))
        if "avg_line_len" in e:
            cols[flag_col("avg_line_len")] = pa.array(mean_line > float(self.max_avg_line))
        if "min_len" in e:
            cols[flag_col("min_len")] = pa.array(n_bytes < int(self.min_len))
        if "max_len" in e:
            cols[flag_col("max_len")] = pa.array(n_bytes > int(self.max_len))
        if "alnum" in e:
            cols[flag_col("alnum")] = pa.array(
                (alnum_ratio < float(self.alnum_min)) & (n_bytes > 0)
            )
        if "date" in e:
            cols[flag_col("date")] = pa.array(K.match_any(content, self.date_res))
        if "stopword_only" in e:
            # StringValueStopword semantics (dictionary.rs:22-24): fail only
            # when EVERY token is a lexicon word (empty content passes)
            ok = K.stopword_ok(content, self.stop_words)
            cols[flag_col("stopword_only")] = pa.array(~ok)
        if "spell_ratio" in e:
            norm = K.normalize_words(content)
            ratio = K.unknown_token_ratio(norm, self.spell_words)
            cols[flag_col("spell_ratio")] = pa.array(ratio > float(self.spell_ratio_max))
        return pa.table(cols)


def keep_expression() -> Callable[[pa.Table], pa.Table]:
    """Final keep/drop: AND of the negated drop flags present in the batch.

    QAMD never drops rows — it counts pass/fail (SURVEY.md §2.3); the
    graft's ``keep`` is a derived column with all per-rule flags retained
    for report parity.  Drop columns are resolved against each batch's own
    column names (cheap, in-memory) so callers need not force a schema
    probe on a lazy dataset.
    """
    candidates = [flag_col(r.name) for r in RULES if r.drops] + MODEL_DROP_FLAGS

    def _keep(batch: pa.Table) -> pa.Table:
        bad = np.zeros(len(batch), dtype=bool)
        for c in candidates:
            if c in batch.column_names:
                bad |= np.asarray(K._as_array(batch[c]).fill_null(False))
        return batch.append_column("keep", pa.array(~bad))

    return _keep
