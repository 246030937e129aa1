"""Conditional next-token model: smoothed n-gram over references + copy bias.

The next-token distribution is a mixture
    P = lambda_copy * Copy(.|source) + (1 - lambda_copy) * NGram(.|prefix)
where Copy(t|x) = count(t in x)/|x| (no mass on EOS or SOS) and NGram is a
stupid-backoff model (backoff factor 0.4, additive kappa floor at the
unigram level) normalized over vocabulary + EOS. SOS is never predicted.
"""

from __future__ import annotations

import hashlib
from typing import Protocol

import numpy as np

from dasearch.corpus import Corpus, Vocabulary

BACKOFF = 0.4


class GeneratorError(ValueError):
    pass


class GeneratorModel(Protocol):
    vocab: Vocabulary

    def next_logprobs(self, source, prefix) -> np.ndarray: ...

    def sequence_logprob(self, source, y) -> float: ...


class NGramCopyModel:
    def __init__(self, vocab: Vocabulary, order: int = 3, kappa: float = 1.0,
                 lambda_copy: float = 0.75):
        if order < 1:
            raise GeneratorError("order must be >= 1")
        if kappa <= 0:
            raise GeneratorError("kappa must be > 0")
        if not 0.0 <= lambda_copy <= 1.0:
            raise GeneratorError("lambda_copy must be in [0, 1]")
        self.vocab = vocab
        self.order = order
        self.kappa = kappa
        self.lambda_copy = lambda_copy
        # counts[k] maps a (k-1)-token context tuple to {token_id: count}
        self.counts: list[dict[tuple[int, ...], dict[int, int]]] = [
            {} for _ in range(order + 1)
        ]
        self._lm_cache: dict[tuple[int, ...], np.ndarray] = {}
        self._copy_cache: dict[tuple[int, ...], np.ndarray] = {}

    # -- training ------------------------------------------------------------

    def add_sequence(self, reference: tuple[int, ...]) -> None:
        seq = (Vocabulary.sos,) + tuple(reference) + (Vocabulary.eos,)
        for i in range(1, len(seq)):
            for k in range(1, self.order + 1):
                if i - (k - 1) < 0:
                    break
                ctx = seq[i - (k - 1) : i]
                table = self.counts[k].setdefault(ctx, {})
                table[seq[i]] = table.get(seq[i], 0) + 1
        self._lm_cache.clear()

    # -- scoring ---------------------------------------------------------------

    def _ngram_probs(self, prefix: tuple[int, ...]) -> np.ndarray:
        tail = tuple(prefix[-(self.order - 1) :]) if self.order > 1 else ()
        cached = self._lm_cache.get(tail)
        if cached is not None:
            return cached
        nv = len(self.vocab)
        # unigram level with additive floor
        probs = np.full(nv, self.kappa)
        for tok, c in self.counts[1].get((), {}).items():
            probs[tok] += c
        probs[Vocabulary.sos] = 0.0
        probs /= probs.sum()
        # stupid backoff: overlay observed higher-order continuations
        for k in range(2, self.order + 1):
            if len(tail) < k - 1:
                break
            ctx = tail[-(k - 1) :]
            table = self.counts[k].get(ctx)
            if not table:
                continue
            total = sum(table.values())
            overlaid = BACKOFF * probs
            for tok, c in table.items():
                overlaid[tok] = c / total
            overlaid[Vocabulary.sos] = 0.0
            probs = overlaid / overlaid.sum()
        self._lm_cache[tail] = probs
        return probs

    def _copy_probs(self, source: tuple[int, ...]) -> np.ndarray:
        key = tuple(source)
        cached = self._copy_cache.get(key)
        if cached is not None:
            return cached
        probs = np.zeros(len(self.vocab))
        for tok in source:
            probs[tok] += 1.0
        probs[Vocabulary.sos] = 0.0
        probs[Vocabulary.eos] = 0.0
        total = probs.sum()
        if total > 0:
            probs /= total
        self._copy_cache[key] = probs
        return probs

    def next_probs(self, source, prefix) -> np.ndarray:
        if len(source) == 0:
            raise GeneratorError("empty source")
        if len(prefix) == 0 or prefix[0] != Vocabulary.sos:
            raise GeneratorError("prefix must begin with SOS")
        lm = self._ngram_probs(tuple(prefix))
        if self.lambda_copy == 0.0:
            return lm
        copy = self._copy_probs(tuple(source))
        return self.lambda_copy * copy + (1.0 - self.lambda_copy) * lm

    def next_logprobs(self, source, prefix) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.next_probs(source, prefix))

    def sequence_logprob(self, source, y) -> float:
        y = tuple(y)
        if not y or y[-1] != Vocabulary.eos:
            raise GeneratorError("sequence must end with EOS")
        if Vocabulary.eos in y[:-1]:
            raise GeneratorError("internal EOS in sequence")
        prefix = (Vocabulary.sos,)
        total = 0.0
        for tok in y:
            total += float(self.next_logprobs(source, prefix)[tok])
            prefix = prefix + (tok,)
        return total

    # -- persistence -------------------------------------------------------------

    def vocab_hash(self) -> str:
        return hashlib.sha256("\n".join(self.vocab.tokens).encode()).hexdigest()[:16]

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("ngram-copy v1\n")
            f.write(f"order {self.order}\n")
            f.write(f"kappa {self.kappa!r}\n")
            f.write(f"lambda_copy {self.lambda_copy!r}\n")
            f.write(f"vocab_hash {self.vocab_hash()}\n")
            for k in range(1, self.order + 1):
                for ctx in sorted(self.counts[k]):
                    table = self.counts[k][ctx]
                    for tok in sorted(table):
                        ids = " ".join(map(str, ctx + (tok,)))
                        f.write(f"{ids} {table[tok]}\n")

    @classmethod
    def load(cls, path, vocab: Vocabulary) -> "NGramCopyModel":
        with open(path, encoding="utf-8") as f:
            header = f.readline().strip()
            if header != "ngram-copy v1":
                raise GeneratorError(f"not a generator model file: {path}")
            try:
                order, kappa, lambda_copy, vhash = (f.readline().split()[1]
                                                    for _ in range(4))
                model = cls(vocab, order=int(order), kappa=float(kappa),
                            lambda_copy=float(lambda_copy))
                for line in f:
                    *ids, count = map(int, line.split())
                    model.counts[len(ids)].setdefault(tuple(ids[:-1]), {})[ids[-1]] = count
            except (IndexError, ValueError):
                raise GeneratorError(
                    f"truncated or malformed generator model file: {path}") from None
        if model.vocab_hash() != vhash:
            raise GeneratorError("vocabulary does not match the model file")
        return model


def train_generator(corpus: Corpus, order: int = 3, kappa: float = 1.0,
                    lambda_copy: float = 0.75) -> NGramCopyModel:
    """Count-based fit on references framed as SOS ... EOS."""
    if not corpus.pairs:
        raise GeneratorError("empty corpus")
    model = NGramCopyModel(corpus.vocab, order=order, kappa=kappa, lambda_copy=lambda_copy)
    for p in corpus.pairs:
        model.add_sequence(p.reference)
    return model
