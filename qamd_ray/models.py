"""Stateful model stages: language-ID and char-n-gram perplexity.

The north star (BASELINE.json) calls for "a fastText langid actor pool and
KenLM-style n-gram perplexity scorer".  fasttext/kenlm wheels are not in
this environment, so both are small, pure-NumPy implementations of the
published algorithms (public knowledge only):

* ``LangIdModel`` — bag-of-hashed-char-n-gram linear classifier in the
  style of Joulin et al. 2016 ("Bag of Tricks for Efficient Text
  Classification"), reduced to multinomial naive Bayes over hashed char
  trigrams (the closed-form fit keeps training deterministic and
  dependency-free).
* ``PerplexityModel`` — interpolated char-trigram language model in the
  spirit of Heafield 2011 (KenLM), simplified to Jelinek-Mercer
  interpolation over hashed count tables; score = bits per character.

Both are trained at construction time from the deterministic synthetic
corpus (synth.clean_samples — fixed seed, no external data), so every
worker builds byte-identical weights.  The corpus is generated once per
process (``_training_bytes``) for both models, and the n-gram tables are
counted with ``np.bincount``.  Both hash with ``_gram_hashes``, in
training and in scoring.

``LangIdModel.predict`` and ``PerplexityModel.bits_per_char`` are the
per-text definitions (the oracle's).  The scorer stages compute the same
over a whole batch in ``score_content``: one fused pass over the content
column's Arrow buffers (no per-row ``str``), in chunks of whole documents
of about ``CHUNK_BYTES``, so that each chunk's temporaries stay in cache.
Per chunk, every trigram is hashed once; langid gathers the trigrams'
class log-probs into one ``(classes, n)`` array and sums them per
document with ``np.add.reduceat``, in float64; perplexity takes each
document's ``.mean()`` of the per-trigram log-probabilities, which keeps
``ppl_bits`` bit-identical to ``bits_per_char``.

These are the pipeline's ONLY stateful stages (SURVEY.md §7).  They run
as plain tasks: the ``ModelScorers`` callable carries only thresholds; the
models are built on first use in each worker process by ``default()`` and
cached module-level (``_CACHE``) — warm workers pay nothing, no actor
spin-up, elastic scaling.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import kernels as K
from .config import Config
from .synth import LANGS, clean_samples

_CACHE: dict = {}
# content bytes scored per step of ``score_content`` (whole documents; a
# longer document is one step).  64 KB measured fastest: 256 KB was 10%
# slower, one step per 512-row batch 1.7x slower.
CHUNK_BYTES = 1 << 16


def _bytes_of(s: str) -> np.ndarray:
    return np.frombuffer(s.encode("utf-8", "replace"), dtype=np.uint8)


@functools.lru_cache(maxsize=2)
def _training_bytes(samples_per_lang: int, seed: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Byte arrays of the ``clean_samples`` training corpus, one tuple per
    language in ``sorted(LANGS)`` order; generated once per process and
    shared by both models (each array is read-only)."""
    out = []
    for lang in sorted(LANGS):
        texts = []
        for text in clean_samples(lang, samples_per_lang, seed=seed):
            b = _bytes_of(text)
            b.flags.writeable = False
            texts.append(b)
        out.append(tuple(texts))
    return tuple(out)


def _gram_hashes(b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(trigram hashes, bigram hashes, bytes) of a uint8 byte sequence, all
    uint32: per start p, ``x[p]*1_000_003 + x[p+1]*8191 + x[p+2]`` and
    ``x[p]*8191 + x[p+1]``.  The ONE hash of both models, in training and
    in scoring.  It stays below 2**32, so ``h & (dim - 1)`` is ``h % dim``
    for every power-of-two table."""
    x = b.astype(np.uint32)
    bi = x[:-1] * 8191 + x[1:]
    return x[:-2] * 1_000_003 + bi[1:], bi, x


class LangIdModel:
    """Multinomial NB over hashed char trigrams; classes = LANGS, trained
    on ``SAMPLES_PER_LANG`` clean samples per language."""

    DIM = 1 << 15
    ALPHA = 0.5
    SAMPLES_PER_LANG = 120
    SEED = 7

    def __init__(self):
        self.classes = sorted(LANGS)
        counts = np.stack(
            [
                np.bincount(
                    np.concatenate([_gram_hashes(b)[0] for b in texts]) & (self.DIM - 1),
                    minlength=self.DIM,
                )
                for texts in _training_bytes(self.SAMPLES_PER_LANG, self.SEED)
            ]
        ).astype(np.float64)
        totals = counts.sum(axis=1, keepdims=True)
        logp = np.log(counts + self.ALPHA) - np.log(totals + self.ALPHA * self.DIM)
        # the weights are rounded to float32, and held in float64 so that
        # every sum of them accumulates in float64
        self.logp = logp.astype(np.float32).astype(np.float64)

    @classmethod
    def default(cls) -> "LangIdModel":
        key = ("langid", "default")
        if key not in _CACHE:
            _CACHE[key] = cls()
        return _CACHE[key]

    def class_scores(self, tri: np.ndarray) -> np.ndarray:
        """Per-class log-likelihood of one text's trigram hashes, summed in
        float64 (summed in float32, a 35 KB document drifts ~90 nats and
        can pick the wrong class)."""
        return self.logp[:, tri & (self.DIM - 1)].sum(axis=1, dtype=np.float64)

    def posterior(self, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(argmax class index, posterior of the argmax) per row of an
        ``(n, classes)`` score matrix."""
        j = scores.argmax(axis=1)
        post = np.exp(scores - scores.max(axis=1, keepdims=True))
        return j, post[np.arange(len(j)), j] / post.sum(axis=1)

    def labels(self, j: np.ndarray) -> np.ndarray:
        """Class names of class indices; -1 (too short to score) is ""."""
        return np.array(self.classes + [""], dtype=object)[j]

    def predict(self, texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """→ (predicted lang per text, posterior confidence of the argmax).

        Empty/ultra-short texts predict "" with confidence 0.  This is the
        per-text definition; ``score_content`` computes the same over a
        batch's Arrow buffers.
        """
        n = len(texts)
        j = np.full(n, -1)
        confs = np.zeros(n, dtype=np.float64)
        tris = [_gram_hashes(_bytes_of(t or ""))[0] for t in texts]
        rows = np.array([i for i, tri in enumerate(tris) if len(tri)], dtype=np.int64)
        if len(rows):
            scores = np.stack([self.class_scores(tris[i]) for i in rows])
            j[rows], confs[rows] = self.posterior(scores)
        return self.labels(j), confs


class PerplexityModel:
    """Interpolated hashed char-trigram LM; score(text) = bits/char."""

    LAMBDAS = (0.70, 0.25, 0.05)  # trigram, bigram, unigram
    DIM3 = 1 << 22
    DIM2 = 1 << 18
    ALPHA = 0.1
    SAMPLES_PER_LANG = 120
    SEED = 7

    def __init__(self):
        m3, m2 = self.DIM3 - 1, self.DIM2 - 1
        per_text = []
        for texts in _training_bytes(self.SAMPLES_PER_LANG, self.SEED):
            for b in texts:
                if len(b) >= 3:
                    tri, bi, x = _gram_hashes(b)
                    per_text.append((tri & m3, bi[:-1] & m2, bi & m2, x[:-1], x))
        # count(c1 c2 c), count(c1 c2 ·), count(c1 c), count(c1 ·), count(c);
        # every count is an integer below 2**24, so float32 holds it exactly
        # and takes half the memory of the largest table
        self.t3, self.c2, self.b2, self.c1, self.u1 = (
            np.bincount(np.concatenate(col), minlength=dim).astype(np.float32)
            for col, dim in zip(zip(*per_text), (self.DIM3, self.DIM2, self.DIM2, 256, 256))
        )
        self.total = float(self.u1.sum(dtype=np.float64))
        # the byte-indexed terms of ``log2p`` as 256-entry tables, each
        # computed with the same float64 operations as per trigram
        a, l1 = self.ALPHA, self.LAMBDAS[2]
        self.c1_denom = self.c1.astype(np.float64) + a * 256.0
        self.l1_p1 = l1 * ((self.u1.astype(np.float64) + a) / (self.total + a * 256.0))

    @classmethod
    def default(cls) -> "PerplexityModel":
        key = ("ppl", "default")
        if key not in _CACHE:
            _CACHE[key] = cls()
        return _CACHE[key]

    def log2p(self, tri: np.ndarray, bi: np.ndarray, x: np.ndarray) -> np.ndarray:
        """log2 of the interpolated probability of each trigram start of
        ``_gram_hashes``' streams, in float64 (the counts are widened
        before any arithmetic)."""
        a, (l3, l2, _) = self.ALPHA, self.LAMBDAS
        f64 = np.float64
        bm = bi & (self.DIM2 - 1)
        p3 = np.add(self.t3.take(tri & (self.DIM3 - 1)), a, dtype=f64) / np.add(
            self.c2.take(bm[:-1]), a * 256.0, dtype=f64
        )
        p2 = np.add(self.b2.take(bm[1:]), a, dtype=f64) / self.c1_denom.take(x[1:-1])
        return np.log2(l3 * p3 + l2 * p2 + self.l1_p1.take(x[2:]))

    def bits_per_char(self, texts: Sequence[str]) -> np.ndarray:
        """Per-text cross-entropy in bits/char (0.0 for texts shorter than
        3 bytes — too short to score).  The per-text definition;
        ``score_content`` computes the same over a batch."""
        out = np.zeros(len(texts), dtype=np.float64)
        for i, t in enumerate(texts):
            b = _bytes_of(t or "")
            if len(b) >= 3:
                out[i] = -self.log2p(*_gram_hashes(b)).mean()
        return out


# ---------------------------------------------------------------------------
# the batch kernel
# ---------------------------------------------------------------------------


def _score_strings(
    arr: pa.Array, langid: Optional[LangIdModel], ppl: Optional[PerplexityModel]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(langid class index or -1, langid confidence, ppl bits) per row of a
    null-free string array, read from its buffers chunk by chunk."""
    n = len(arr)
    j = np.full(n, -1)
    confs = np.zeros(n, dtype=np.float64)
    bits = np.zeros(n, dtype=np.float64)
    if n == 0:
        return j, confs, bits
    offs, data = K._string_buffers(arr)
    offs = offs.astype(np.int64)
    scored = np.flatnonzero(offs[1:] - offs[:-1] >= 3)
    scores = np.zeros((len(scored), len(langid.classes)), dtype=np.float64) if langid else None
    # chunks: runs of scored rows whose bytes span about CHUNK_BYTES
    starts, ends = offs[scored], offs[scored + 1]
    k, m = 0, len(scored)
    while k < m:
        k1 = max(int(np.searchsorted(ends, starts[k] + CHUNK_BYTES, "right")), k + 1)
        a, b = starts[k], ends[k1 - 1]
        tri, bi, x = _gram_hashes(data[a:b])
        # row r's trigrams start at s[r] .. e[r] - 1 of the chunk's streams;
        # the starts between rows cross a row boundary or lie in a row too
        # short to score
        s, e = starts[k:k1] - a, ends[k:k1] - a - 2
        if langid is not None:
            g = langid.logp.take(tri & (langid.DIM - 1), axis=1)
            bounds = np.stack([s, e], axis=1).ravel()[:-1]  # e[-1] == len(tri)
            scores[k:k1] = np.add.reduceat(g, bounds, axis=1)[:, ::2].T
            del g  # 48 bytes per content byte: not kept through the ppl pass
        if ppl is not None:
            lp = ppl.log2p(tri, bi, x)
            bits[scored[k:k1]] = [-lp[p:q].mean() for p, q in zip(s.tolist(), e.tolist())]
        k = k1
    if langid is not None and len(scored):
        j[scored], confs[scored] = langid.posterior(scores)
    return j, confs, bits


def score_content(
    col, langid: Optional[LangIdModel], ppl: Optional[PerplexityModel]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``LangIdModel.predict`` (as class indices, -1 for "") and
    ``PerplexityModel.bits_per_char`` of every row of a string column
    (Array or ChunkedArray; a null scores as ""), with one pass over its
    Arrow buffers — a model passed as None is not scored."""
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    parts = [
        _score_strings(pc.fill_null(ch, "") if ch.null_count else ch, langid, ppl)
        for ch in chunks
    ]
    if not parts:
        return np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0)
    return tuple(np.concatenate(p) for p in zip(*parts))


# ---------------------------------------------------------------------------
# scorer stages (plain map_batches tasks)
# ---------------------------------------------------------------------------


class LangIdScorer:
    """Scorer stage: adds ``langid_pred``, ``langid_conf``, ``f_langid``.

    ``f_langid`` fires when the model confidently disagrees with the
    declared ``lang`` tag, or predicts a language outside the allowed
    list.  Gated on ``quality_filter.langid_min_confidence`` /
    ``langid_allowed`` (absent → the pipeline skips this stage, matching
    the reference's absent-key-skips-check convention).
    """

    def __init__(self, min_confidence: float = 0.5, allowed: Optional[list[str]] = None):
        self.model = LangIdModel.default()
        self.min_conf = float(min_confidence)
        self.allowed = set(allowed) if allowed else None

    @staticmethod
    def from_config(config: Config) -> Optional[dict]:
        q = config.quality_filter
        if q.langid_min_confidence is None and q.langid_allowed is None:
            return None
        kw: dict = {}
        if q.langid_min_confidence is not None:
            kw["min_confidence"] = float(q.langid_min_confidence.setting)
        if q.langid_allowed is not None:
            kw["allowed"] = list(q.langid_allowed.setting)
        return kw

    def __call__(self, batch: pa.Table) -> pa.Table:
        j, confs, _ = score_content(batch["content"], self.model, None)
        return self.append(batch, j, confs)

    def append(self, batch: pa.Table, j: np.ndarray, confs: np.ndarray) -> pa.Table:
        """``batch`` with the stage's columns for class indices ``j`` and
        confidences ``confs`` (from ``score_content``)."""
        preds = self.model.labels(j)
        declared = np.asarray(
            K._as_array(pc.fill_null(batch["lang"], "")), dtype=object
        )
        confident = confs >= self.min_conf
        fail = confident & (declared != "") & (preds != declared)
        if self.allowed is not None:
            in_allowed = np.array([p in self.allowed for p in preds])
            fail |= confident & ~in_allowed
        return (
            batch.append_column("langid_pred", pa.array(list(preds), pa.string()))
            .append_column("langid_conf", pa.array(confs))
            .append_column("f_langid", pa.array(fail))
        )


class PerplexityScorer:
    """Scorer stage: adds ``ppl_bits``, ``f_perplexity``.

    Gated on ``quality_filter.perplexity_max_bits_per_char``.
    """

    def __init__(self, max_bits_per_char: float = 6.0):
        self.model = PerplexityModel.default()
        self.max_bits = float(max_bits_per_char)

    @staticmethod
    def from_config(config: Config) -> Optional[dict]:
        q = config.quality_filter
        if q.perplexity_max_bits_per_char is None:
            return None
        return {"max_bits_per_char": float(q.perplexity_max_bits_per_char.setting)}

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.append(batch, score_content(batch["content"], None, self.model)[2])

    def append(self, batch: pa.Table, bits: np.ndarray) -> pa.Table:
        """``batch`` with the stage's columns for scores ``bits``."""
        return batch.append_column("ppl_bits", pa.array(bits)).append_column(
            "f_perplexity", pa.array(bits > self.max_bits)
        )


class ModelScorers:
    """Fused scorer stage: langid + perplexity in ONE map_batches pass
    and one ``score_content`` pass over the content.

    Each sub-stage is config-gated — pass only the kwargs of the enabled
    models (see :func:`from_config`).
    """

    def __init__(
        self,
        langid_kwargs: Optional[dict] = None,
        ppl_kwargs: Optional[dict] = None,
    ):
        # the instance pickles per task carrying only these small kwargs;
        # the scorers are built on first call IN the worker, and their
        # models come from the deterministic default() constructors,
        # cached per worker process (_CACHE), so warm workers pay nothing
        # and there is no actor spin-up at all.  (Broadcasting the trained
        # weights through the object store was measured SLOWER here —
        # fetching + localizing ~70 MB of tables costs ~5 s while
        # re-training takes ~0.5 s.)
        self.langid_kwargs = langid_kwargs
        self.ppl_kwargs = ppl_kwargs
        self._scorers: Optional[tuple] = None

    def _resolve(self) -> tuple:
        if self._scorers is None:
            self._scorers = (
                LangIdScorer(**self.langid_kwargs) if self.langid_kwargs is not None else None,
                PerplexityScorer(**self.ppl_kwargs) if self.ppl_kwargs is not None else None,
            )
        return self._scorers

    @staticmethod
    def from_config(config: Config) -> Optional[dict]:
        lk = LangIdScorer.from_config(config)
        pk = PerplexityScorer.from_config(config)
        if lk is None and pk is None:
            return None
        return {"langid_kwargs": lk, "ppl_kwargs": pk}

    def __call__(self, batch: pa.Table) -> pa.Table:
        langid, ppl = self._resolve()
        j, confs, bits = score_content(
            batch["content"],
            langid.model if langid is not None else None,
            ppl.model if ppl is not None else None,
        )
        if langid is not None:
            batch = langid.append(batch, j, confs)
        if ppl is not None:
            batch = ppl.append(batch, bits)
        return batch
