"""Single-process oracle: reference-faithful labels for the F1 gate.

BASELINE.json requires the distributed pipeline's keep/drop decision and
scrubbed text to match "reference labels" at F1 ≥ 0.99.  The reference
itself cannot run on this input (it reads one SPSS/Stata/SAS/CSV file and
only counts pass/fail — src/readstat/read.rs:21-39), so, as in SURVEY.md
§7, the labels come from this module: a deliberately *scalar*, plain-Python
re-statement of each rule's semantics, evaluated row by row in one process
— the same role the reference's hand-built expected counts play in its own
unit tests (e.g. post.rs:660,680-686,706,856).

It shares ONLY the model weights (models.LangIdModel/PerplexityModel are
deterministic by construction — both sides must score with identical
weights or F1 compares two different models) and the scrub regex bank
(the bank IS the spec).  All rule predicates are re-derived here
independently of qamd_ray.rules' vectorized kernels, so a vectorization
bug on either side shows up as an F1 miss.
"""

from __future__ import annotations

import hashlib
import re
import string
from typing import Optional

import pyarrow as pa

from .config import Config
from .models import LangIdModel, PerplexityModel
from .scrub import Scrubber
from .synth import TOXICITY_LEXICON

_PRINTABLE = set(chr(c) for c in range(0x20, 0x7F)) | set("\t\n\r")
_CONTROL = set(chr(c) for c in range(0x00, 0x09)) | {"\x0b", "\x0c"} | set(
    chr(c) for c in range(0x0E, 0x20)
)
_ALNUM = set(string.ascii_letters + string.digits)
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def _ratio(s: str, charset: set, invert: bool = False) -> float:
    if not s:
        return 0.0
    n = sum((c in charset) != invert for c in s)
    return n / len(s)


def oracle_labels(table: pa.Table, config: Config) -> pa.Table:
    """→ (repo, path, keep:bool, scrubbed_content:string, f_* flags...).

    Row order preserved.  Duplicate "first occurrence" is the row with the
    lexicographically smallest (repo, path) per content hash — the
    order-independent definition both sides must share (SURVEY.md §2.3
    ordering note).
    """
    q = config.quality_filter
    g = lambda key: getattr(q, key).setting if getattr(q, key) is not None else None

    repos = table["repo"].to_pylist()
    paths = table["path"].to_pylist()
    langs = [x or "" for x in table["lang"].to_pylist()]
    contents = [x or "" for x in table["content"].to_pylist()]
    n = len(contents)

    flags: dict[str, list[bool]] = {}

    def rule(name: str, fn) -> Optional[list[bool]]:
        col = [bool(fn(i)) for i in range(n)]
        flags["f_" + name] = col
        return col

    if g("bad_path") is not None:
        # \Z (absolute end) — RE2's $ in the vectorized twin anchors at end
        # of text, while Python's $ also matches before a trailing newline
        rx = re.compile("(?:" + str(g("bad_path")) + r")\Z")
        rule("bad_path", lambda i: not rx.match(paths[i]))
    if g("path_odd_characters") is not None:
        pats = list(g("path_odd_characters"))
        rule("path_odd", lambda i: any(p in paths[i] for p in pats))
    if g("path_max_length") is not None:
        m = int(g("path_max_length"))
        rule("path_len", lambda i: len(paths[i].encode()) > m)
    if g("missing_lang") is not None:
        rule("missing_lang", lambda i: langs[i] == "")
    if g("content_odd_characters") is not None:
        pats = list(g("content_odd_characters"))
        rule("content_odd", lambda i: any(p in contents[i] for p in pats))
    if g("odd_char_ratio_max") is not None:
        t = float(g("odd_char_ratio_max"))
        rule("odd_ratio", lambda i: _ratio(contents[i], _PRINTABLE, invert=True) > t)
    if g("control_char_ratio_max") is not None:
        t = float(g("control_char_ratio_max"))
        rule("control_ratio", lambda i: _ratio(contents[i], _CONTROL) > t)
    if g("max_line_length") is not None:
        m = int(g("max_line_length"))
        rule("line_len", lambda i: max(len(l.encode()) for l in contents[i].split("\n")) > m)
    if g("max_avg_line_length") is not None:
        m = float(g("max_avg_line_length"))

        def _avg(i):
            lines = contents[i].split("\n")
            return sum(len(l.encode()) for l in lines) / len(lines) > m

        rule("avg_line_len", _avg)
    if g("min_content_length") is not None:
        m = int(g("min_content_length"))
        rule("min_len", lambda i: len(contents[i].encode()) < m)
    if g("max_content_length") is not None:
        m = int(g("max_content_length"))
        rule("max_len", lambda i: len(contents[i].encode()) > m)
    if g("alnum_ratio_min") is not None:
        t = float(g("alnum_ratio_min"))
        rule("alnum", lambda i: len(contents[i]) > 0 and _ratio(contents[i], _ALNUM) < t)
    if g("date_format") is not None:
        from .rules import DATE_REGEXES

        dr = g("date_format")
        pats = (
            list(dr)
            if isinstance(dr, (list, tuple)) and dr and all(isinstance(p, str) for p in dr)
            else list(DATE_REGEXES)
        )
        # re.ASCII: RE2 (the vectorized twin) treats \d/\b as ASCII-only
        date_res = [re.compile(p, re.ASCII) for p in pats]
        rule("date", lambda i: any(rx.search(contents[i]) for rx in date_res))
    if g("spell_unknown_ratio_max") is not None:
        t = float(g("spell_unknown_ratio_max"))
        from .kernels import load_wordlists

        spell_words = (
            load_wordlists(g("spell_dictionaries"))
            if g("spell_dictionaries") is not None
            else frozenset()
        )

        def _spell(i):
            norm = contents[i].translate(_PUNCT_TABLE).lower()
            if norm == "":
                return False
            toks = norm.split(" ")
            bad = sum(tok not in spell_words for tok in toks)
            return bad / len(toks) > t

        rule("spell_ratio", _spell)
    if g("stopword_only") is not None:
        v = g("stopword_only")
        if isinstance(v, (list, tuple)):
            lex = set(str(x) for x in v)
        else:
            lex = set(TOXICITY_LEXICON)

        def _stop(i):
            norm = contents[i].translate(_PUNCT_TABLE).lower()
            if norm == "":
                return False
            return all(tok in lex for tok in norm.split(" "))

        rule("stopword_only", _stop)

    # model stages — shared deterministic weights, scalar thresholding here
    if q.langid_min_confidence is not None or q.langid_allowed is not None:
        model = LangIdModel.default()
        preds, confs = model.predict(contents)
        min_conf = (
            float(q.langid_min_confidence.setting)
            if q.langid_min_confidence is not None
            else 0.5
        )
        allowed = set(q.langid_allowed.setting) if q.langid_allowed is not None else None
        col = []
        for i in range(n):
            fail = False
            if confs[i] >= min_conf:
                if langs[i] != "" and preds[i] != langs[i]:
                    fail = True
                if allowed is not None and preds[i] not in allowed:
                    fail = True
            col.append(fail)
        flags["f_langid"] = col
    if q.perplexity_max_bits_per_char is not None:
        model = PerplexityModel.default()
        bits = model.bits_per_char(contents)
        t = float(q.perplexity_max_bits_per_char.setting)
        flags["f_perplexity"] = [bool(b > t) for b in bits]

    # exact duplicates: first (repo,path) per sha256 keeps
    if g("duplicate_content") is not None and g("duplicate_content"):
        sha = [hashlib.sha256(c.encode("utf-8", "surrogatepass")).hexdigest() for c in contents]
        first: dict[str, tuple[str, str]] = {}
        for i in range(n):
            key = (repos[i], paths[i])
            if sha[i] not in first or key < first[sha[i]]:
                first[sha[i]] = key
        flags["f_duplicate"] = [
            (repos[i], paths[i]) != first[sha[i]] for i in range(n)
        ]

    # keep/drop — flag-only rules excluded (rules.RULES drops=False)
    flag_only = {"f_missing_lang", "f_date"}
    drop_cols = [c for c in flags if c not in flag_only]
    keep = [not any(flags[c][i] for c in drop_cols) for i in range(n)]

    # scrub (shared bank — the bank is the spec)
    scrubber = Scrubber.from_config(config)
    if scrubber is not None:
        scrubbed = []
        for c in contents:
            s = c
            for p in scrubber.patterns:
                s = re.sub(p.pattern, p.replace, s)
            scrubbed.append(s)
    else:
        scrubbed = contents

    cols = {
        "repo": table["repo"],
        "path": table["path"],
        "keep": pa.array(keep),
        "scrubbed_content": pa.array(scrubbed, pa.string()),
    }
    for name, col in flags.items():
        cols[name] = pa.array(col)
    return pa.table(cols)
