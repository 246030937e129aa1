"""Conditional next-token model: smoothed n-gram over references + copy bias.

The next-token distribution is a mixture
    P = lambda_copy * Copy(.|source) + (1 - lambda_copy) * NGram(.|prefix)
where Copy(t|x) = count(t in x)/|x| (no mass on EOS or SOS) and NGram is a
stupid-backoff model (backoff factor 0.4, additive kappa floor at the
unigram level) normalized over vocabulary + EOS. SOS is never predicted.

numpy is imported with the first row a process computes (next_probs), so
training, which only counts n-grams, and saving a model load none.
"""

from __future__ import annotations

import math

from dasearch.corpus import Corpus, Vocabulary, atomic_write, finite_float, read_body, read_header

BACKOFF = 0.4
np = None  # the numpy module, once _import_numpy has run


def _import_numpy() -> None:
    global np
    import numpy
    np = numpy


class GeneratorError(ValueError):
    pass


class NGramCopyModel:
    def __init__(self, vocab: Vocabulary, order: int = 3, kappa: float = 1.0,
                 lambda_copy: float = 0.75):
        if order < 1:
            raise GeneratorError("order must be >= 1")
        if not 0 < kappa < math.inf:
            raise GeneratorError(f"kappa must be > 0 and finite, got {kappa}")
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
        self._clear_caches()

    def _clear_caches(self) -> None:
        # context() per tail and the n-gram term per context(), each at most 1 +
        # the model's table keys; the copy term of the last source. No cached
        # array leaves the model: next_probs returns a new sum of two.
        self._context_of_tail: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}
        self._lm_cache: dict[tuple[tuple[int, ...], ...], np.ndarray] = {}
        self._copy_cache: tuple[tuple[int, ...], np.ndarray | None] = ((), None)
        self._zero_beyond_sos = False  # whether a cached n-gram term is zero beyond SOS

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
        self._clear_caches()

    # -- scoring ---------------------------------------------------------------

    def context(self, prefix) -> tuple[tuple[int, ...], ...]:
        """What the n-gram distribution after `prefix` depends on: the
        prefix's last k-1 tokens for each order k whose context table holds
        them, shortest first. Prefixes with one context get one distribution."""
        tail = tuple(prefix[1 - self.order :]) if self.order > 1 else ()
        found = self._context_of_tail.get(tail)
        if found is not None:
            return found
        context = []
        for k in range(2, min(self.order, len(tail) + 1) + 1):
            ctx = tail[1 - k :]
            if self.counts[k].get(ctx):
                context.append(ctx)
        if len(self._context_of_tail) > sum(map(len, self.counts)):  # full: 1 + table keys
            self._context_of_tail.clear()
        context = self._context_of_tail[tail] = tuple(context)
        return context

    def _ngram_term(self, context: tuple[tuple[int, ...], ...]) -> np.ndarray:
        cached = self._lm_cache.get(context)
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
        for ctx in context:
            table = self.counts[len(ctx) + 1][ctx]
            total = sum(table.values())
            overlaid = BACKOFF * probs
            for tok, c in table.items():
                overlaid[tok] = c / total
            overlaid[Vocabulary.sos] = 0.0
            probs = overlaid / overlaid.sum()
        term = (1.0 - self.lambda_copy) * probs  # the very bits of probs when lambda_copy is 0
        # SOS is zero; lambda_copy 1, or an underflow at a tiny kappa, zeroes more
        self._zero_beyond_sos |= bool(np.count_nonzero(term) < nv - 1)
        self._lm_cache[context] = term
        return term

    def _copy_term(self, source) -> np.ndarray:
        key, (last, term) = tuple(source), self._copy_cache
        if key is last or key == last:
            return term
        nv = len(self.vocab)
        counts = np.bincount(key, minlength=nv) if min(key) >= 0 else ()
        if len(counts) != nv:  # an id below 0, or nv or above
            bad = next(tok for tok in key if not 0 <= tok < nv)
            raise GeneratorError(f"source token id {bad} is outside the {nv}-token vocabulary")
        probs = counts.astype(np.float64)
        probs[[Vocabulary.sos, Vocabulary.eos]] = 0.0
        total = probs.sum()
        if total > 0:
            probs /= total
        term = self.lambda_copy * probs
        self._copy_cache = (key, term)  # a search asks about one source: keep the last only
        return term

    def next_probs(self, source, prefix) -> np.ndarray:
        """lambda_copy * Copy + (1 - lambda_copy) * NGram, as a new array, the sum
        of the two cached terms (+0.0 + NGram at lambda_copy 0): numpy computes that
        expression as exactly these two products and their sum, so the bits are the same."""
        if len(source) == 0:
            raise GeneratorError("empty source")
        if len(prefix) == 0 or prefix[0] != Vocabulary.sos:
            raise GeneratorError("prefix must begin with SOS")
        if np is None:  # this process's first row
            _import_numpy()
        lm = self._ngram_term(self.context(prefix))
        return self._copy_term(source) + lm  # checks each new source's ids

    def next_logprobs(self, source, prefix) -> np.ndarray:
        """log next_probs, -inf at its zeros (SOS's, and any where an n-gram term
        is zero), which np.log meets as ones, so that it does not warn."""
        row = self.next_probs(source, prefix)
        zeros = np.flatnonzero(row == 0.0) if self._zero_beyond_sos else Vocabulary.sos
        row[zeros] = 1.0
        np.log(row, out=row)
        row[zeros] = -np.inf
        return row

    # -- persistence -------------------------------------------------------------

    def save(self, path) -> None:
        with atomic_write(path) as f:
            f.write("ngram-copy v1\n")
            f.write(f"order {self.order}\n")
            f.write(f"kappa {self.kappa!r}\n")
            f.write(f"lambda_copy {self.lambda_copy!r}\n")
            f.write(f"vocab_hash {self.vocab.digest()}\n")
            for k in range(1, self.order + 1):
                for ctx in sorted(self.counts[k]):
                    table = self.counts[k][ctx]
                    for tok in sorted(table):
                        ids = " ".join(map(str, ctx + (tok,)))
                        f.write(f"{ids} {table[tok]}\n")

    @classmethod
    def load(cls, path, vocab: Vocabulary) -> "NGramCopyModel":
        with open(path, encoding="utf-8") as f:
            try:
                header = f.readline().strip()
            except UnicodeDecodeError as e:
                raise GeneratorError(f"not a generator model file: {path}: {e}") from None
            if header != "ngram-copy v1":
                raise GeneratorError(
                    f"not a generator model file: {path}: its first line is {header!r}, "
                    f"not 'ngram-copy v1'; re-run train-generator to write one")
            try:
                order, kappa, lambda_copy, vhash = (
                    read_header(f, key) for key in ("order", "kappa", "lambda_copy", "vocab_hash"))
                model = cls(vocab, order=int(order), kappa=finite_float(kappa),
                            lambda_copy=finite_float(lambda_copy))
                ngrams = read_body(f, 6, _ngram_entry)  # after the 5 header lines
            except ValueError as e:
                raise GeneratorError(
                    f"truncated or malformed generator model file: {path}: {e}") from None
        if vocab.digest() != vhash:
            raise GeneratorError(f"vocabulary does not match the model file {path}")
        for key, count in ngrams.items():
            ids = list(key)
            if not 1 <= len(ids) <= model.order:
                raise GeneratorError(f"generator model file {path}: {len(ids)}-gram {ids} "
                                     f"in an order-{model.order} model")
            if not all(0 <= i < len(vocab) for i in ids):
                raise GeneratorError(f"generator model file {path}: n-gram {ids} has a token "
                                     f"id outside the {len(vocab)}-token vocabulary")
            if count < 1:
                raise GeneratorError(f"generator model file {path}: n-gram {ids} has "
                                     f"count {count}")
            model.counts[len(ids)].setdefault(key[:-1], {})[key[-1]] = count
        return model


def _ngram_entry(fields) -> tuple[tuple[int, ...], int]:
    """The (n-gram, count) of a generator model file's `ids... count` line."""
    *ids, count = map(int, fields)
    return tuple(ids), count


def train_generator(corpus: Corpus, order: int = 3, kappa: float = 1.0,
                    lambda_copy: float = 0.75) -> NGramCopyModel:
    """Count-based fit on references framed as SOS ... EOS."""
    if not corpus.pairs:
        raise GeneratorError("empty corpus")
    model = NGramCopyModel(corpus.vocab, order=order, kappa=kappa, lambda_copy=lambda_copy)
    for p in corpus.pairs:
        model.add_sequence(p.reference)
    return model
