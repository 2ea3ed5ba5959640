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
counted with ``np.bincount``.

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


def _trigram_hashes(b: np.ndarray, dim: int) -> np.ndarray:
    """Hashed char trigrams of one byte string (vectorized)."""
    if len(b) < 3:
        return np.zeros(0, dtype=np.int64)
    x = b.astype(np.int64)
    return (x[:-2] * 1_000_003 + x[1:-1] * 8191 + x[2:]) % dim


def _ppl_hashes(
    x: np.ndarray, dim3: int, dim2: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(trigram, context-bigram, bigram) hash streams of one int64 byte
    sequence — the ONE definition shared by PerplexityModel.__init__ and
    bits_per_char (scores are only meaningful while both hash identically)."""
    h3 = (x[:-2] * 1_000_003 + x[1:-1] * 8191 + x[2:]) % dim3
    hc2 = (x[:-2] * 8191 + x[1:-1]) % dim2
    hb2 = (x[:-1] * 8191 + x[1:]) % dim2
    return h3, hc2, hb2


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
                    np.concatenate([_trigram_hashes(b, self.DIM) for b in texts]),
                    minlength=self.DIM,
                )
                for texts in _training_bytes(self.SAMPLES_PER_LANG, self.SEED)
            ]
        ).astype(np.float64)
        totals = counts.sum(axis=1, keepdims=True)
        logp = np.log(counts + self.ALPHA) - np.log(totals + self.ALPHA * self.DIM)
        self.logp = logp.astype(np.float32)

    @classmethod
    def default(cls) -> "LangIdModel":
        key = ("langid", "default")
        if key not in _CACHE:
            _CACHE[key] = cls()
        return _CACHE[key]

    def predict(self, texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """→ (predicted lang per text, posterior confidence of the argmax).

        Empty/ultra-short texts predict "" with confidence 0.

        Deliberately a per-document loop over small gathers: the batched
        alternative (one concatenated gather + reduceat) materializes a
        (classes × total_ngrams) matrix ~100 MB per batch and goes memory-
        bandwidth-bound when many tasks run concurrently; per-doc gathers
        keep the sub-MB ``logp`` table cache-resident and scale with CPUs.
        """
        n = len(texts)
        preds = np.full(n, "", dtype=object)
        confs = np.zeros(n, dtype=np.float64)
        for i, t in enumerate(texts):
            h = _trigram_hashes(_bytes_of(t or ""), self.DIM)
            if len(h) == 0:
                continue
            scores = self.logp[:, h].sum(axis=1)
            j = int(np.argmax(scores))
            post = np.exp(scores - scores.max())
            confs[i] = post[j] / post.sum()
            preds[i] = self.classes[j]
        return preds, confs


class PerplexityModel:
    """Interpolated hashed char-trigram LM; score(text) = bits/char."""

    LAMBDAS = (0.70, 0.25, 0.05)  # trigram, bigram, unigram
    DIM3 = 1 << 22
    DIM2 = 1 << 18
    ALPHA = 0.1
    SAMPLES_PER_LANG = 120
    SEED = 7

    def __init__(self):
        dim3, dim2 = self.DIM3, self.DIM2
        per_text = [
            (*_ppl_hashes(x, dim3, dim2), x[:-1], x)
            for texts in _training_bytes(self.SAMPLES_PER_LANG, self.SEED)
            for x in (b.astype(np.int64) for b in texts if len(b) >= 3)
        ]
        # count(c1 c2 c), count(c1 c2 ·), count(c1 c), count(c1 ·), count(c)
        self.t3, self.c2, self.b2, self.c1, self.u1 = (
            np.bincount(np.concatenate(col), minlength=dim).astype(np.float64)
            for col, dim in zip(zip(*per_text), (dim3, dim2, dim2, 256, 256))
        )
        self.total = self.u1.sum()

    @classmethod
    def default(cls) -> "PerplexityModel":
        key = ("ppl", "default")
        if key not in _CACHE:
            _CACHE[key] = cls()
        return _CACHE[key]

    def bits_per_char(self, texts: Sequence[str]) -> np.ndarray:
        """Vectorized per-text cross-entropy in bits/char (0.0 for texts
        shorter than 3 bytes — too short to score)."""
        a = self.ALPHA
        l3, l2, l1 = self.LAMBDAS
        out = np.zeros(len(texts), dtype=np.float64)
        for i, t in enumerate(texts):
            b = _bytes_of(t or "")
            if len(b) < 3:
                continue
            x = b.astype(np.int64)
            h3, hc2, hb2 = _ppl_hashes(x, self.DIM3, self.DIM2)
            p3 = (self.t3[h3] + a) / (self.c2[hc2] + a * 256.0)
            p2 = (self.b2[hb2[1:]] + a) / (self.c1[x[1:-1]] + a * 256.0)
            p1 = (self.u1[x[2:]] + a) / (self.total + a * 256.0)
            p = l3 * p3 + l2 * p2 + l1 * p1
            out[i] = float(-np.log2(p).mean())
        return out


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
        texts = K._as_array(pc.fill_null(batch["content"], "")).to_pylist()
        preds, confs = self.model.predict(texts)
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
        texts = K._as_array(pc.fill_null(batch["content"], "")).to_pylist()
        bits = self.model.bits_per_char(texts)
        return batch.append_column("ppl_bits", pa.array(bits)).append_column(
            "f_perplexity", pa.array(bits > self.max_bits)
        )


class ModelScorers:
    """Fused scorer stage: langid + perplexity in ONE map_batches pass.

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
        if langid is not None:
            batch = langid(batch)
        if ppl is not None:
            batch = ppl(batch)
        return batch
