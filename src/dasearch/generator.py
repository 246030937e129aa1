"""Conditional next-token model: smoothed n-gram over references + copy bias.

The next-token distribution is a mixture
    P = lambda_copy * Copy(.|source) + (1 - lambda_copy) * NGram(.|prefix)
where Copy(t|x) = count(t in x)/|x| (no mass on EOS or SOS) and NGram is a
stupid-backoff model (backoff factor 0.4, additive kappa floor at the
unigram level) normalized over vocabulary + EOS. SOS is never predicted.

A row (Row) builds no vocabulary-long vector. The n-gram term is cached per
context together with its token ids best first (ngram_terms); the copy term
is non-zero only on the source's distinct ids, and an id's term depends on
its count alone (copy_terms). Row.top reads the two only as far as the n
best can reach.

next_logprobs(source, prefix) is the one way to a Row, through a chain of
memos: the prefix's tail to its context, the source's Rows by context, and
each Row's top memo of the largest n asked. The source last asked about
keeps its copy term and Rows, so next_logprobs returns the same Row for that
source and context. A source asked about again after another one keeps them
across searches, so a K x alpha sweep's cells after the first reuse each
pair's Rows; a source asked about once keeps nothing after the next source,
so a decode holds one source's Rows at a time. The sources asked about and
the kept ones are cleared by add_sequence, and when the set would hold more
sources than 1 + the model's table keys, the bound of the context memo. So
there are at most that many sources with Rows and contexts: (1 + table
keys)^2 Rows at worst. In practice a source has a few: the bench model has
297 table keys, and a pass of the bench's sweep keeps 368 Rows for its 40
pairs, at most 13 for one. A Row is a function of the counts and the source
alone, so a pickled model's Rows stay valid.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import filterfalse, islice
from math import log

from dasearch.corpus import (Corpus, InputError, Vocabulary, finite_float, read_model_file,
                             write_model_file)

BACKOFF = 0.4
VERSION = "ngram-copy v2"  # the first line of a model file
# how a model file's header lines parse, by key, in file order
_HEADER = {"order": int, "kappa": finite_float, "lambda_copy": finite_float, "vocab_hash": str}


class GeneratorError(InputError):
    pass


def _normalised(values: list) -> list:
    """Each value divided by the correctly rounded sum of all of them, which
    math.fsum gives whatever their order and Python's version."""
    total = math.fsum(values)
    return [v / total for v in values]


def ngram_terms(term: list) -> tuple[list, list, list]:
    """A row's n-gram term as Row takes it: the term, its token ids by
    value, highest first, then by id (np.argsort(-term, kind="stable")),
    and their values negated, ascending."""
    order = sorted(range(len(term)), key=term.__getitem__, reverse=True)  # stable
    return term, order, [-term[tok] for tok in order]


def copy_terms(counts: Counter, lambda_copy: float) -> tuple:
    """A source's copy term as Row takes it, from the count of each of its
    ids, the Counter `counts`, which loses SOS and EOS (and every id at
    lambda_copy 0). The term of an id is lambda_copy * (count / total),
    where total counts the ids left (an exact integer), and zero off them.
    Returns `counts`, the term of each count (0.0 at count 0) and a memo of
    Row.top's plan for each n."""
    total = sum(counts.values()) - counts.pop(Vocabulary.sos, 0) - counts.pop(Vocabulary.eos, 0)
    if not lambda_copy:
        counts.clear()
    terms = [lambda_copy * (count / total) if count else 0.0
             for count in range(max(counts.values(), default=0) + 1)]
    return counts, terms, {}


def _plan(counts: Counter, terms: list, n: int) -> tuple:
    """How Row.top finds the n best tokens of a source's rows: the ids whose
    counts are so large that they fit in n whole, as (-copy term, id) pairs;
    and, when the source has more ids than n, (the count of the (n + 1)-th
    largest, its copy term, the ids of that count, the copy term of the next
    smaller count or 0.0)."""
    ids = sorted(counts, key=counts.__getitem__, reverse=True)
    if n >= len(ids):
        return [(-terms[counts[tok]], tok) for tok in ids], None
    count = counts[ids[n]]

    def key(tok):
        return -counts[tok]

    start = bisect_left(ids, -count, key=key)
    end = bisect_right(ids, -count, start, key=key)
    below = terms[counts[ids[end]]] if end < len(ids) else 0.0
    return ([(-terms[counts[tok]], tok) for tok in ids[:start]],
            (count, terms[count], frozenset(ids[start:end]), below))


class Row:
    """The next-token distribution after one prefix of one source.

    row.prob(tok) is tok's probability, lambda_copy * Copy + (1 - lambda_copy)
    * NGram as the sum of the two terms (0.0 + the n-gram term off the
    source's ids, which is that term), and row[tok] its math.log, -inf where
    it is zero. row.top(n) is the n most probable (token, log-probability)
    pairs, by probability, then by token id, memoised for the largest n
    asked, as a new list at every call.

    top sums and sorts only the tokens that can be among them. The source's
    ids of one count have one copy term, and among them, as among the other
    tokens, probability follows the n-gram term, whose order the row's
    context keeps. So top takes the ids whose counts are so large that they
    fit in n whole, then the best ids of the next count in n-gram order up to
    n tokens: n tokens at or above the least of them, a floor under the n-th
    best. Past the floor it reads that count's ids on while they reach it,
    and the tokens whose n-gram term reaches it less the next count's copy
    term (0.0 when none is left)."""

    __slots__ = ("_ngram", "_copy", "_top", "_asked")

    def __init__(self, ngram: tuple, copy: tuple):
        self._ngram = ngram  # (the n-gram term, its ids best first, their values negated)
        self._copy = copy  # copy_terms of the source
        self._top, self._asked = [], 0

    def prob(self, tok: int) -> float:
        counts, terms = self._copy[:2]
        return terms[counts.get(tok, 0)] + self._ngram[0][tok]

    def __getitem__(self, tok: int) -> float:
        p = self.prob(tok)
        return log(p) if p > 0.0 else -math.inf

    def top(self, n: int) -> list:
        if n <= self._asked:  # a list of the caller's own: the model keeps the row
            return self._top[:n]
        term, order, neg_term = self._ngram
        counts, terms, plans = self._copy
        asked, n = n, min(n, len(term))  # no more to rank; islice refuses n > sys.maxsize
        plan = plans.get(n)
        if plan is None:
            plan = plans[n] = _plan(counts, terms, n)
        whole, rest = plan
        # (-probability, id) of the tokens that can be among the n best: -c - g is
        # -(c + g). Loops, not comprehensions, as these run a few times per row.
        best = []
        append = best.append
        for neg_c, tok in whole:
            append((neg_c - term[tok], tok))
        if rest is None:  # the whole source, and the others by n-gram term
            for tok in islice(filterfalse(counts.__contains__, order), n):
                append((-term[tok], tok))
        else:
            # the best ids of the next count by n-gram term, up to n: their least
            # is a floor under the n-th best; then that count's ids while they reach it
            count, c, members, below = rest
            stream = filter(members.__contains__, order)
            for tok in islice(stream, n - len(whole)):
                append((-(c + term[tok]), tok))
            floor = max(best)[0]  # negated
            for tok in stream:
                q = -(c + term[tok])
                if q > floor:
                    break
                append((q, tok))
            # the tokens of smaller counts (or none) whose n-gram term reaches the
            # floor less the next count's term; a rounded sum reaches the floor only
            # if its exact one comes within 2^-53 of it, so 2^-50 less lets none
            # through that can reach it
            get = counts.get
            for tok in order[:bisect_right(neg_term, below + floor + 2.0 ** -50)]:
                j = get(tok, 0)
                if j < count:
                    append((-(terms[j] + term[tok]), tok))
        best.sort()
        top = []
        for q, tok in best[:n]:
            top.append((tok, log(-q) if q < 0.0 else -math.inf))
        self._top, self._asked = top, asked
        return top[:]


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
        # context() per tail and the n-gram term with its order per context(), each
        # at most 1 + the model's table keys; the unigram level; the last source with
        # its copy term and its Rows by context; the sources asked about, and the
        # copy term and Rows of each one asked about again (the store)
        self._context_of_tail: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}
        self._lm_cache: dict[tuple[tuple[int, ...], ...], tuple[list, list, list]] = {}
        self._unigram: list | None = None
        self._last: tuple[tuple[int, ...] | None, tuple | None, dict] = (None, None, {})
        self._seen: set[tuple[int, ...]] = set()
        self._kept: dict[tuple[int, ...], tuple[tuple, dict]] = {}

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

    def _ngram_term(self, context: tuple[tuple[int, ...], ...]) -> tuple[list, list, list]:
        """ngram_terms of (1 - lambda_copy) * NGram after `context`."""
        cached = self._lm_cache.get(context)
        if cached is not None:
            return cached
        probs = self._unigram
        if probs is None:  # unigram level with additive floor
            probs = [self.kappa] * len(self.vocab)
            for tok, c in self.counts[1].get((), {}).items():
                probs[tok] += c
            probs[Vocabulary.sos] = 0.0
            probs = self._unigram = _normalised(probs)
        # stupid backoff: overlay observed higher-order continuations
        for ctx in context:
            table = self.counts[len(ctx) + 1][ctx]
            total = sum(table.values())  # of ints: exact
            overlaid = [BACKOFF * p for p in probs]
            for tok, c in table.items():
                overlaid[tok] = c / total
            overlaid[Vocabulary.sos] = 0.0
            probs = _normalised(overlaid)
        scale = 1.0 - self.lambda_copy
        # the very bits of probs when lambda_copy is 0
        cached = self._lm_cache[context] = ngram_terms([scale * p for p in probs])
        return cached

    def _source(self, key: tuple[int, ...]) -> tuple:
        """`(copy term, Rows by context)` of a source other than the last one
        asked about, which becomes the last: kept ones, or new ones once its
        ids are checked against the vocabulary (see the module docstring)."""
        kept = self._kept.get(key)
        if kept is None:
            if not key:
                raise GeneratorError("empty source")
            nv, counts = len(self.vocab), Counter(key)
            if min(counts) < 0 or max(counts) >= nv:
                bad = next(tok for tok in key if not 0 <= tok < nv)
                raise GeneratorError(f"source token id {bad} is outside the {nv}-token "
                                     f"vocabulary")
            kept = (copy_terms(counts, self.lambda_copy), {})
            if len(self._seen) > sum(map(len, self.counts)):  # full: 1 + table keys
                self._seen.clear()
                self._kept.clear()
            if key in self._seen:  # asked about again after another source: keep it
                self._kept[key] = kept
            else:
                self._seen.add(key)
        self._last = (key, *kept)
        return kept

    def next_logprobs(self, source, prefix) -> Row:
        """The Row of the next token after `prefix` given `source`: the
        mixture lambda_copy * Copy + (1 - lambda_copy) * NGram, computed as
        the two products and their sum. The Row is kept for the source and
        the prefix's context, and returned again for both."""
        if len(prefix) == 0 or prefix[0] != Vocabulary.sos:
            raise GeneratorError("prefix must begin with SOS")
        key, (last, copy, rows) = tuple(source), self._last
        if key is not last and key != last:
            copy, rows = self._source(key)
        context = self.context(prefix)
        row = rows.get(context)
        if row is None:
            row = rows[context] = Row(self._ngram_term(context), copy)
        return row

    # -- persistence -------------------------------------------------------------

    def save(self, path) -> None:
        write_model_file(path, VERSION, GeneratorError,
                         {"order": self.order, "kappa": self.kappa,
                          "lambda_copy": self.lambda_copy, "vocab_hash": self.vocab.digest()},
                         (" ".join(map(str, (*ctx, tok, table[tok]))) + "\n"
                          for counts in self.counts[1:] for ctx, table in sorted(counts.items())
                          for tok in sorted(table)))

    @classmethod
    def load(cls, path, vocab: Vocabulary) -> "NGramCopyModel":
        header, ngrams = read_model_file(path, "generator", VERSION, GeneratorError, _HEADER,
                                         _ngram_entry, vocab)
        try:
            model = cls(vocab, header["order"], header["kappa"], header["lambda_copy"])
        except GeneratorError as e:
            raise GeneratorError(
                f"truncated or malformed generator model file: {path}: {e}") from None
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
