r"""Compiled-regex PII / credential / toxicity scrubber.

Grows the reference's ValueRegexPatterns check
(/root/reference/src/check/post.rs:354-391 — which only FLAGS matches;
default bank: simple email, UK postcode, RFC-2822 email,
src/bin/gen_config.rs:16-20) into an in-place rewriter, per the north star:
"a compiled-regex PII/toxicity scrubber (emails, phone numbers,
credentials, slur lexicon) that rewrites content in place".

Two-phase per batch, keeping the hot path vectorized:
  1. the patterns RE2 can compile and the required literals below, folded
     once into one alternation (``kernels.fold_alternation``), run
     VECTORIZED over the whole column (``pc.match_substring_regex``) to
     find candidate rows — the common case (no PII) costs one Arrow
     kernel, no Python-per-row.  If any pattern is not RE2-expressible,
     every row is a candidate.  A null row is never a candidate and
     stays null;
  2. each candidate row is rewritten with Python ``re.subn``, every
     pattern in bank order.  A pattern that carries a required literal
     (``ScrubPattern.literal``: a substring every match contains) is
     skipped on a row that lacks it.  The prefilter only picks rows: RE2's
     ASCII-only ``\w`` and ``\b`` differ from Python's, so the Python
     patterns decide what is rewritten, and a row holding a required
     literal is a candidate even when RE2 finds no match in it.  The
     email pattern runs as ``EmailScan``, which returns what ``re.subn``
     returns but tries a match only at each "@".

Patterns are compiled once in ``Scrubber.__init__`` (driver-side; the
reference recompiled its regexes per value inside the loop, post.rs:370 —
a known inefficiency deliberately not reproduced).

Invariant (BASELINE.json input_hint): rows with no match pass through
byte-identical — sha256(content) equality, tested in
tests/test_properties.py and tools/f1_check.py.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import kernels as K
from .config import Config
from .synth import TOXICITY_LEXICON


@dataclass(frozen=True)
class ScrubPattern:
    name: str
    pattern: str  # Python re syntax
    replace: str
    literal: str = ""  # a substring every match contains ("" = none known)


# Default bank. Email/phone shapes extend the reference bank
# (gen_config.rs:16-20, default.yaml:148-152 UK mobile); credential shapes
# are standard public patterns (AWS key ids, PEM headers, password/token
# assignments).
EMAIL = r"[\w.+-]+@[\w-]+(?:\.[\w-]{2,})+"
DEFAULT_PATTERNS: list[ScrubPattern] = [
    ScrubPattern("email", EMAIL, "<EMAIL>", "@"),
    ScrubPattern(
        "phone",
        r"(?:\+44\s?7\d{3}|\(?07\d{3}\)?)\s?\d{3}\s?\d{3}\b",  # UK mobile, default.yaml:151
        "<PHONE>",
    ),
    ScrubPattern("aws_key", r"\bAKIA[0-9A-Z]{16}\b", "<AWS_KEY>", "AKIA"),
    ScrubPattern("pem", r"-----BEGIN [A-Z ]*PRIVATE KEY-----", "<PRIVATE_KEY>", "-----BEGIN "),
    ScrubPattern(
        "password",
        r"(?i)\b(password|passwd|secret|api_key|access_key|token)(\s*[:=]\s*)(\"[^\"\n]*\"|'[^'\n]*'|\S+)",
        r"\1\2<SECRET>",
    ),
]


class EmailScan:
    r"""``subn`` of the ``EMAIL`` pattern that tries a match only at each
    "@": ``re`` would try one at every position, re-reading the rest of a
    run of ``[\w.+-]`` each time.  A match's local part is the run of
    ``[\w.+-]`` that ends at its "@" (no "@" is in that class), so the
    leftmost match at or after the scan position is the first "@" with a
    non-empty run before it, from the run's start or the scan position,
    whichever is later, whose match succeeds there."""

    def __init__(self):
        self.rx = re.compile(EMAIL)
        self.local = re.compile(r"[\w.+-]*")  # run before an "@", read backwards

    def subn(self, repl: str, s: str) -> tuple[str, int]:
        rev, n = s[::-1], len(s)
        parts, pos, count = [], 0, 0
        at = s.find("@")
        while at >= 0:
            start = n - self.local.match(rev, n - at, n - pos).end()
            m = self.rx.match(s, start) if start < at else None
            if m is None:
                at = s.find("@", at + 1)
                continue
            parts += (s[pos:start], m.expand(repl))
            pos, count = m.end(), count + 1
            at = s.find("@", pos)
        return "".join(parts) + s[pos:], count


def toxicity_pattern(lexicon: list[str]) -> ScrubPattern:
    """Whole-word alternation over the slur/toxicity lexicon."""
    alt = "|".join(re.escape(w) for w in sorted(lexicon, key=len, reverse=True))
    return ScrubPattern("toxicity", r"(?i)\b(?:" + alt + r")\b", "<TOX>")


class Scrubber:
    """map_batches stage: rewrites content, adds ``scrubbed``/``n_scrubs``.

    Stateless-task friendly: compiled patterns serialize with the callable
    (re.Pattern pickles by re-compiling), so plain tasks amortize the
    compile across batches without needing an actor pool.
    """

    def __init__(
        self,
        patterns: Optional[list[ScrubPattern]] = None,
        toxicity_lexicon: Optional[list[str]] = None,
    ):
        pats = list(patterns if patterns is not None else DEFAULT_PATTERNS)
        if toxicity_lexicon:
            pats.append(toxicity_pattern(toxicity_lexicon))
        self.patterns = pats
        self.compiled = [
            (p.name, EmailScan() if p.pattern == EMAIL else re.compile(p.pattern), p.replace)
            for p in pats
        ]
        self.literals = [p.literal for p in pats]
        # vectorized prefilter; a pattern that RE2 cannot compile leaves
        # every row a candidate (prefilters None).  A row holding a required
        # literal is a candidate too: RE2's ASCII-only \w misses matches
        # that Python's finds ("josé@example.com")
        sources = [p.pattern for p in pats] + [re.escape(p.literal) for p in pats if p.literal]
        self.prefilters: Optional[list[str]] = (
            K.fold_alternation(sources) if all(K.re2_compiles(p) for p in sources) else None
        )

    @staticmethod
    def from_config(config: Config) -> Optional["Scrubber"]:
        q = config.quality_filter
        if q.scrub_patterns is None and q.toxicity_lexicon is None:
            return None
        pats: Optional[list[ScrubPattern]] = None
        if q.scrub_patterns is not None:
            v = q.scrub_patterns.setting
            if isinstance(v, (list, tuple)) and v and isinstance(v[0], dict):
                pats = [
                    ScrubPattern(d["name"], d["pattern"], d.get("replace", "<SCRUBBED>"))
                    for d in v
                ]
            # bool True → default bank
        lex: Optional[list[str]] = None
        if q.toxicity_lexicon is not None:
            v = q.toxicity_lexicon.setting
            if isinstance(v, (list, tuple)) and v and all(str(p).endswith(".txt") for p in v):
                lex = sorted(K.load_wordlists(v) - {""})
            elif isinstance(v, (list, tuple)):
                lex = [str(x) for x in v]
            else:
                lex = list(TOXICITY_LEXICON)
        return Scrubber(patterns=pats, toxicity_lexicon=lex)

    def __call__(self, batch: pa.Table) -> pa.Table:
        null = np.asarray(K._as_array(batch["content"]).is_null())
        content = K._as_array(pc.fill_null(batch["content"], ""))
        n = len(batch)
        if self.prefilters is None:
            idx = np.flatnonzero(~null)
        else:
            idx = np.flatnonzero(K.match_any(content, self.prefilters) & ~null)

        n_scrubs = np.zeros(n, dtype=np.int64)
        if len(idx) == 0:
            out = batch
        else:
            vals = content.to_pylist()  # only materialized when candidates exist
            changed = False
            for i in idx:
                s = vals[i]
                hits = 0
                for (_name, rx, repl), lit in zip(self.compiled, self.literals):
                    if lit in s:
                        s, k = rx.subn(repl, s)
                        hits += k
                if hits:
                    vals[i] = s
                    n_scrubs[i] = hits
                    changed = True
            if changed:
                new = pa.array(vals, pa.string(), mask=null)  # a null stays null
                ci = batch.column_names.index("content")
                out = batch.set_column(ci, "content", new)
            else:
                out = batch
        return out.append_column("scrubbed", pa.array(n_scrubs > 0)).append_column(
            "n_scrubs", pa.array(n_scrubs)
        )
