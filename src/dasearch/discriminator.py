"""Sequential prefix classifier: P(prefix is human-written | source, prefix).

Hashed-unigram/bigram logistic regression with a handful of dense features,
trained by SGD on the set-normalized logistic objective
    (1/|H|) sum_H log D + (1/|G|) sum_G log(1 - D)
over all prefixes of human references (H) and generated summaries (G). H and
G are held as their (source, tokens) sequences, one per pair and side: every
prefix of a sequence is one example, and the sequence is one feature chain.
eq2_objective sums the objective example by example; training takes it once,
after the last epoch, as the model's final_objective. accuracy_by_length
counts the examples classified right per prefix length.

The weights are array('d') and inference reads them as Python floats, so
loading a model and scoring prefixes import no numpy; the functions that
featurise batches, train and evaluate import it when they are called.
"""

from __future__ import annotations

import itertools
import math
import struct
import zlib
from array import array
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

from dasearch.corpus import (Corpus, InputError, Vocabulary, finite_float, read_model_file,
                             write_model_file)

# H and G hold no EOS (references refuse it, generations are stripped of it), so no dense
# feature marks an ended prefix: D sees an EOS candidate only by its unigram and bigram keys
DENSE_FEATURES = (
    "rel_length",      # t / T_max
    "source_overlap",  # fraction of prefix tokens present in the source
    "rep1",
    "rep2",
    "rep3",
    "mean_logfreq",    # mean background-unigram log-frequency (scaled)
)
N_DENSE = len(DENSE_FEATURES)
VERSION = "discriminator v4"  # the first line of a model file

if TYPE_CHECKING:
    import numpy as np


class DiscriminatorError(InputError):
    pass


# the largest d_hash: a model holds d_hash sparse weights of 8 bytes each
D_HASH_MAX = 2 ** 24


@dataclass(frozen=True)
class FeatureConfig:
    d_hash: int = 2 ** 16
    use_source: bool = True
    t_max: int = 140
    # background unigram log-frequencies indexed by token id
    logfreq: tuple[float, ...] = ()
    vocab_hash: str = ""  # Vocabulary.digest() of the vocabulary logfreq is over, if known

    def __post_init__(self):
        if self.d_hash < 1 or self.t_max < 1:
            raise DiscriminatorError(f"d_hash and t_max must be >= 1, got {self.d_hash} "
                                     f"and {self.t_max}")
        if self.d_hash > D_HASH_MAX:
            raise DiscriminatorError(f"d_hash must be at most 2**24 = {D_HASH_MAX}, got "
                                     f"{self.d_hash}")

    @classmethod
    def from_corpus(cls, corpus: Corpus, d_hash: int = 2 ** 16,
                    use_source: bool = True, t_max: int = 140) -> "FeatureConfig":
        counts = [1] * len(corpus.vocab)
        for p in corpus.pairs:
            for tok in p.reference:
                counts[tok] += 1
        total = sum(counts)
        # math.log, not numpy's log, whose bits depend on numpy's CPU dispatch
        return cls(d_hash=d_hash, use_source=use_source, t_max=t_max,
                   logfreq=tuple(math.log(c / total) for c in counts),
                   vocab_hash=corpus.vocab.digest())


@dataclass(frozen=True)
class FeatureBatch:
    """The features of every prefix of some sequences, packed into arrays:
    each sequence is one chain, its prefixes consecutive rows, shortest first.
    A labelled set is one batch: the rows of its H sequences, then those of
    its G sequences, so its first n_human rows are the human ones (training
    featurises the distinct ones only). Sparse features are numbered by
    column: column k is the hashed index columns[k].

    Row i is a prefix of t[i] tokens with the dense values dense[i]. Its
    2 t[i] - 1 hits, in token order, are hits[offset[i]:offset[i] + 2 t[i] - 1],
    the first of its chain's. Each hit is worth 1 / t[i], so a column hit c
    times has the value c / t[i]. Scoring sums the hits one by one. Training
    steps from each row's _step_records record: t, the offset, the dense
    values and, for a row with fewer distinct columns than tokens, its
    (column, count) pairs."""

    dense: np.ndarray      # n x N_DENSE
    t: np.ndarray          # n prefix lengths
    offset: np.ndarray     # n offsets of each row's chain's hits in hits
    chain_ptr: np.ndarray  # offset of every chain's hits in hits, and their end
    hits: np.ndarray
    columns: np.ndarray

    def __len__(self) -> int:
        return len(self.dense)


def _hash(key: str, d_hash: int) -> int:
    return zlib.crc32(key.encode()) % d_hash


def logit(bias: float, dense_w, dense, S: float, t: int) -> float:
    """The discriminator's logit of a t-token prefix, z = (bias + zd) + S / t.
    zd sums dense_w[j] * dense[j] left to right from 0.0. S sums, from 0.0,
    the sparse weights of the prefix's hits in token order: each token's
    unigram index, then its bigram index. So an index hit c times has the
    value c / t. The search and every scorer use this arithmetic. Training
    sums c * w per distinct index instead for a prefix with fewer distinct
    indices than tokens, equal up to rounding; none takes a dot product,
    whose result depends on the BLAS kernel."""
    w0, w1, w2, w3, w4, w5 = dense_w
    d0, d1, d2, d3, d4, d5 = dense
    return (bias + (0.0 + w0 * d0 + w1 * d1 + w2 * d2 + w3 * d3 + w4 * d4 + w5 * d5)) + S / t


class PrefixState:
    """What the features of one prefix need to take one more token in O(1)
    new work: its length, how many of its tokens are in the source, the
    running logfreq sum, its distinct 1-, 2- and 3-grams, its last two tokens
    and S, the summed weights of its hits under the featurizer's model."""

    __slots__ = ("source_set", "t", "in_source", "logfreq_sum", "grams", "distinct",
                 "last", "S")

    def __init__(self, source_set: frozenset):
        self.source_set = source_set
        self.t = 0
        self.in_source = 0
        self.logfreq_sum = 0  # summed left to right from 0
        self.grams: set = set()  # tokens, (a, b) bigrams and (a, b, c) trigrams
        self.distinct = (0, 0, 0)
        self.last: tuple[int, ...] = ()
        self.S = 0.0

    def copy(self) -> "PrefixState":
        new = PrefixState(self.source_set)
        new.t, new.in_source, new.logfreq_sum = self.t, self.in_source, self.logfreq_sum
        new.grams, new.distinct, new.last = set(self.grams), self.distinct, self.last
        new.S = self.S
        return new


class PrefixFeaturizer:
    """Prefix features built one token at a time. `score_next`, the one token
    step, gives the logit of a PrefixState plus one token (D is its
    _sigmoid) and the step, in one straight-line pass over the state's
    fields that leaves the state as it is: the new (t, in_source,
    logfreq_sum, distinct, S), the token's hits (the column of its unigram,
    then that of its bigram if it has a predecessor) and the new dense
    values. `commit` applies a step to the state it was taken from. A hit is
    a column: the featurizer numbers the hashed indices in the order it
    meets them, and `columns` lists them. The logit is under the model's
    weights as they are when the featurizer is made (a zero bias and zero
    weights without a model). It memoises the column of every
    (token, bit) unigram and (a, b, bit) bigram key it meets, and the model's
    weight of every column, so make one per search or per training set. The
    model memoises each key's hashed index for all its featurizers, up to
    d_hash keys (a model-less featurizer gets a model of its own)."""

    def __init__(self, config: FeatureConfig, model: "DiscriminatorModel | None" = None):
        if model is None:
            model = DiscriminatorModel.zeros(config)
        self.config = config
        self.columns: list[int] = []
        self._column_of: dict[int, int] = {}
        self._column: dict[tuple[int, ...], int] = {}
        self._index_of = model.index_of
        self._logfreq, self._t_max = config.logfreq, config.t_max
        self._bias, self._dense_w = float(model.bias), model.dense_w.tolist()
        self._sparse_w, self._weights = model.sparse_w, []

    def _new_column(self, key: tuple) -> int:
        """Number the column of a unigram (token, bit) or bigram (a, b, bit) key new here."""
        index = self._index_of.get(key)
        if index is None:
            if len(self._index_of) >= self.config.d_hash:  # the memo's bound
                self._index_of.clear()
            name = f"u:{key[0]}:{key[1]}" if len(key) == 2 else f"b:{key[0]}_{key[1]}:{key[2]}"
            index = self._index_of[key] = _hash(name, self.config.d_hash)
        column = self._column_of.get(index)
        if column is None:
            column = self._column_of[index] = len(self.columns)
            self.columns.append(index)
            self._weights.append(float(self._sparse_w[index]))
        self._column[key] = column
        return column

    def state_of(self, source) -> PrefixState:
        """The state of the empty prefix of `source`."""
        return PrefixState(frozenset(source) if self.config.use_source else frozenset())

    def score_next(self, state: PrefixState, token: int,
                   scored: bool = True) -> tuple[float | None, tuple]:
        """(logit, step) of the state's prefix plus `token`, leaving `state` as
        it is, in O(1) through the one `logit`; D is its _sigmoid. With
        scored=False only the step that `commit` reads is taken: the logit
        and the step's dense values are None."""
        src, grams, last, column = state.source_set, state.grams, state.last, self._column
        bit = 1 if token in src else 0
        u = column.get((token, bit))
        if u is None:
            u = self._new_column((token, bit))
        S = state.S + self._weights[u]
        d1, d2, d3 = state.distinct
        d1 += token not in grams
        if last:
            a = last[-1]
            d2 += (a, token) not in grams
            if len(last) == 2:
                d3 += (last[0], a, token) not in grams
            key = (a, token, 1 if bit and a in src else 0)
            b = column.get(key)
            if b is None:
                b = self._new_column(key)
            S, hits = S + self._weights[b], (u, b)
        else:
            hits = (u,)
        t, in_source, logfreq = state.t + 1, state.in_source + bit, self._logfreq
        logfreq_sum = state.logfreq_sum + logfreq[token] if logfreq else 0
        if not scored:
            return None, (t, in_source, logfreq_sum, (d1, d2, d3), S, hits, None)
        # the dense values, in DENSE_FEATURES order; rep<n> is metrics.repetition_n / 100
        dense = [min(t, self._t_max) / self._t_max, in_source / t, (100.0 * (1.0 - d1 / t)) / 100.0,
                 (100.0 * (1.0 - d2 / (t - 1))) / 100.0 if t >= 2 else 0.0,
                 (100.0 * (1.0 - d3 / (t - 2))) / 100.0 if t >= 3 else 0.0,
                 logfreq_sum / t if logfreq else 0.0]
        return (logit(self._bias, self._dense_w, dense, S, t),
                (t, in_source, logfreq_sum, (d1, d2, d3), S, hits, dense))

    @staticmethod
    def commit(state: PrefixState, token: int, step: tuple) -> None:
        """Append `token` to `state` in place by its score_next `step` from `state`."""
        state.t, state.in_source, state.logfreq_sum, state.distinct, state.S, _, _ = step
        grams, last = state.grams, state.last
        grams.add(token)
        if last:
            grams.add((last[-1], token))
            if len(last) == 2:
                grams.add((*last, token))
            state.last = (last[-1], token)
        else:
            state.last = (token,)


def extract_features(source, prefix, config: FeatureConfig) -> tuple[list, list]:
    """The dense values of `prefix` given `source` and the hashed indices of
    its hits in token order: the last row of its prefix_features."""
    if not prefix:
        raise DiscriminatorError("empty prefix")
    batch = prefix_features([(source, prefix)], config)
    return batch.dense[-1].tolist(), batch.columns[batch.hits].tolist()


def prefix_features(sequences, config: FeatureConfig) -> FeatureBatch:
    """The features of every prefix of every (source, tokens) sequence, in
    order, as one FeatureBatch: each sequence is walked once, as one chain."""
    import numpy as np
    featurizer = PrefixFeaturizer(config)
    score_next, commit = featurizer.score_next, featurizer.commit
    dense, ts, offset = array("d"), array("q"), array("q")
    chain_ptr, hits = array("q", [0]), array("q")
    for source, tokens in sequences:
        state = featurizer.state_of(source)
        for token in tokens:
            _, step = score_next(state, token)
            commit(state, token, step)
            t, _, _, _, _, step_hits, step_dense = step
            hits.extend(step_hits)
            dense.extend(step_dense)
            ts.append(t)
            offset.append(chain_ptr[-1])
        chain_ptr.append(len(hits))
    return FeatureBatch(np.frombuffer(dense).reshape(-1, N_DENSE),
                        *(np.frombuffer(a, dtype=np.int64) for a in (ts, offset, chain_ptr, hits)),
                        np.array(featurizer.columns, dtype=np.int64))


def _step_records(batch: FeatureBatch) -> list[tuple]:
    """Each row's SGD step record (t, pairs, a, *dense), in one walk of each
    chain: a is its chain's hit offset, dense the row's N_DENSE values. A
    t-token row with fewer distinct columns than tokens has pairs, its
    (column, count) pairs in first-hit order, each count a float so the
    step's products are float by float; any other row has pairs None. Such
    a row repeats t or more hits, so a chain is walked only up to the row as
    long as its repeats. `shared` holds one object per distinct pair and per
    distinct dense value, keyed by its bits (0.0 == -0.0)."""
    records, hits, shared = [], batch.hits.tolist(), {}
    dense = zip(*(struct.iter_unpack(f"{N_DENSE}{kind}", batch.dense) for kind in "qd"))
    for a, b in itertools.pairwise(batch.chain_ptr.tolist()):
        walked = min((b - a + 1) // 2, b - a - len(set(hits[a:b])))  # in rows
        running = {}  # column -> (column, count so far), in first-hit order
        for j, k in enumerate(hits[a:a + max(2 * walked - 1, 0)]):
            pair = k, running.get(k, (k, 0.0))[1] + 1.0
            running[k] = shared.setdefault(pair, pair)
            if not j % 2:  # the last of a row's 2 t - 1 hits
                t = j // 2 + 1
                records.append((t, tuple(running.values()) if len(running) < t else None, a,
                                *map(shared.setdefault, *next(dense))))
        records.extend((t, None, a, *map(shared.setdefault, *next(dense)))
                       for t in range(walked + 1, (b - a + 1) // 2 + 1))
    return records


@dataclass
class DiscriminatorModel:
    config: FeatureConfig
    dense_w: array  # N_DENSE doubles
    sparse_w: array  # d_hash doubles
    bias: float
    final_objective: float = 0.0
    # what a bootstrap model was trained from (selftrain.bootstrap_provenance), by key
    provenance: dict[str, str] = field(default_factory=dict)
    index_of: dict[tuple[int, ...], int] = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def zeros(cls, config: FeatureConfig) -> "DiscriminatorModel":
        return cls(config, array("d", [0.0]) * N_DENSE, array("d", [0.0]) * config.d_hash, 0.0)

    def score_features(self, batch: FeatureBatch) -> list[float]:
        """D of every row of `batch`: _sigmoid of its logit."""
        return list(map(_sigmoid, _logits(self, batch).tolist()))

    def score(self, source, prefix) -> float:
        """D of one prefix: commit all but its last token by their steps, then
        _sigmoid of score_next's logit."""
        if not prefix:
            raise DiscriminatorError("empty prefix")
        featurizer = PrefixFeaturizer(self.config, self)
        state = featurizer.state_of(source)
        for token in prefix[:-1]:
            featurizer.commit(state, token, featurizer.score_next(state, token)[1])
        return _sigmoid(featurizer.score_next(state, prefix[-1])[0])

    def save(self, path) -> None:
        """Write a `discriminator v4` file: 9 header lines, then one `index
        weight` line per nonzero sparse weight."""
        config = self.config
        write_model_file(path, VERSION, DiscriminatorError, {
            "d_hash": config.d_hash, "use_source": int(config.use_source), "t_max": config.t_max,
            "vocab_hash": config.vocab_hash, "final_objective": float(self.final_objective),
            "logfreq": " ".join(str(float(v)) for v in config.logfreq),
            "bias": float(self.bias), "dense": " ".join(str(float(v)) for v in self.dense_w),
            "provenance": " ".join(f"{key}={value}" for key, value in self.provenance.items()),
        }, (f"{i} {float(self.sparse_w[i])}\n"
            for i in itertools.compress(itertools.count(), self.sparse_w)))

    @classmethod
    def load(cls, path, vocab: Vocabulary | None = None) -> "DiscriminatorModel":
        """Read a `discriminator v4` file, written for `vocab` if one is given."""
        header, sparse_entries = read_model_file(
            path, "discriminator", VERSION, DiscriminatorError, _HEADER, _sparse_entry, vocab,
            many=("vocab_hash", "logfreq", "dense", "provenance"))
        try:
            config = FeatureConfig(**{f.name: header[f.name] for f in fields(FeatureConfig)})
        except DiscriminatorError as e:
            raise DiscriminatorError(f"discriminator model file {path}: {e}") from None
        sparse = array("d", [0.0]) * config.d_hash
        for i, w in sparse_entries.items():
            if not 0 <= i < config.d_hash:
                raise DiscriminatorError(f"discriminator model file {path}: sparse index {i} "
                                         f"is outside [0, {config.d_hash})")
            sparse[i] = w
        return cls(config, header["dense"], sparse, header["bias"],
                   final_objective=header["final_objective"], provenance=header["provenance"])


def _non_finite(named) -> tuple[str, float] | None:
    """(name, value) of the first value that is not finite among the
    (name, values) pairs `named`, or None."""
    for name, values in named:
        for value in itertools.filterfalse(math.isfinite, values):
            return name, value
    return None


def _use_source(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"use_source must be 0 or 1, got {text!r}")
    return text == "1"


def _vocab_hash(values: list) -> str:
    if len(values) > 1:
        raise ValueError(f"the 'vocab_hash' line holds {len(values)} values, not 0 or 1")
    return "".join(values)


def _dense(values: list) -> array:
    dense = array("d", map(finite_float, values))
    if len(dense) != N_DENSE:
        raise ValueError(f"{len(dense)} dense weights, not {N_DENSE}")
    return dense


def _provenance(entries: list) -> dict[str, str]:
    for entry in entries:
        if entry.find("=") < 1:  # no "=", or nothing before it
            raise ValueError(f"provenance entry {entry!r} is not key=value")
    return dict(entry.split("=", 1) for entry in entries)


# how a model file's header lines parse, by key, in file order
_HEADER = {"d_hash": int, "use_source": _use_source, "t_max": int, "vocab_hash": _vocab_hash,
           "final_objective": finite_float, "logfreq": lambda v: tuple(map(finite_float, v)),
           "bias": finite_float, "dense": _dense, "provenance": _provenance}


def _sparse_entry(fields) -> tuple[int, float]:
    """The (index, weight) of a discriminator model file's `index weight` line."""
    i, w = fields
    return int(i), finite_float(w)


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def build_prefix_sets(corpus: Corpus, generations: dict, t_max: int = 140):
    """The (source, tokens) sequences of the references (H) and of the
    generated summaries (G), one per pair and side, cut at t_max tokens;
    each of their prefixes is one example."""
    H, G = [], []
    for p in corpus.pairs:
        if p.id not in generations:
            raise DiscriminatorError(f"missing generation for id {p.id!r}")
        gen = tuple(generations[p.id])
        if not gen:
            raise DiscriminatorError(f"empty generation for id {p.id!r}")
        H.append((p.source, p.reference[:t_max]))
        G.append((p.source, gen[:t_max]))
    return H, G


def _logits(model: DiscriminatorModel, batch: FeatureBatch) -> np.ndarray:
    """`logit` of every row of `batch`, bit for bit, in array arithmetic:
    the same additions in the same order, element by element."""
    import numpy as np
    zd = np.zeros(len(batch))
    for j in range(N_DENSE):
        zd += batch.dense[:, j] * model.dense_w[j]
    # the running sums of the weights along each chain's hits, from 0.0 as
    # logit sums them: + 0.0 turns a -0.0 weight into 0.0 and leaves every
    # other weight, and so every running sum, as it is
    sums = (np.asarray(model.sparse_w)[batch.columns] + 0.0)[batch.hits]
    for a, b in itertools.pairwise(batch.chain_ptr.tolist()):
        np.add.accumulate(sums[a:b], out=sums[a:b])
    S = sums[batch.offset + 2 * batch.t - 2]
    return (float(model.bias) + zd) + S / batch.t


def eq2_objective(model: DiscriminatorModel, batch: FeatureBatch, n_human: int,
                  rows=None) -> float:
    """Set-normalized logistic objective (to be maximized) of a labelled
    batch whose first n_human rows are human, summed example by example left
    to right: the score_features arithmetic, the value model files store.
    The examples are the batch's `rows`, in order: all of them by default.
    Each distinct row's term is taken once per side."""
    z = _logits(model, batch)
    rows, total = range(len(z)) if rows is None else rows, 0.0
    for part, n, human in ((rows[:n_human], n_human, True),
                           (rows[n_human:], len(rows) - n_human, False)):
        terms = [None] * len(z)
        for r in part:
            term = terms[r]
            if term is None:
                p = _sigmoid(z.item(r))
                term = terms[r] = math.log(max(p if human else 1.0 - p, 1e-300)) / n
            total += term
    return total


def check_training_settings(epochs: int, learning_rate: float, ratio: float) -> None:
    """Raise DiscriminatorError unless epochs >= 1 and learning_rate and ratio
    are finite and > 0 (NaN fails each check)."""
    if epochs < 1:
        raise DiscriminatorError(f"epochs must be >= 1, got {epochs}")
    for name, value in (("learning_rate", learning_rate), ("ratio", ratio)):
        if not 0 < value < math.inf:
            raise DiscriminatorError(f"{name} must be > 0 and finite, got {value}")


def train_discriminator(H, G, config: FeatureConfig, epochs: int = 10,
                        learning_rate: float = 2.0, seed: int = 0,
                        init: DiscriminatorModel | None = None,
                        ratio: float = 1.0) -> DiscriminatorModel:
    """SGD ascent on the set-normalized objective over every prefix of the
    (source, tokens) sequences H (human) and G (generated), step decay
    1/sqrt(epoch), each step rescaled by (|H|+|G|)/2, in prefixes, so the
    learning rate is comparable across dataset sizes. `ratio` reweights the
    generated side: 1.0 balances the classes, 2.0 gives G twice H's weight.

    Features depend on a source only through which of the sequence's tokens
    it holds (none without use_source), so each distinct (tokens, those
    bits) sequence is featurised once, and one index maps every example,
    H's then G's, to its row's step record (_step_records), built once;
    each epoch visits every example in a seeded shuffle. A t-token row with
    fewer than t distinct columns reads and moves each once (S sums c * w
    from 0.0 over its pairs, w moves by (step / t) * c); any other row sums
    its hits as `logit` does and moves each by step / t: equal up to
    rounding, the same bits if every c is 1. The model's weights are
    array('d'); training steps a list of the batch's sparse weights and
    writes it back through a numpy view of sparse_w. Training that leaves
    the bias, a weight, a training row's logit or final_objective not finite
    raises DiscriminatorError naming learning_rate and ratio."""
    import numpy as np
    n_H = sum(len(tokens) for _, tokens in H)
    if not n_H or not any(tokens for _, tokens in G):
        raise DiscriminatorError("H and G must each hold a prefix")
    check_training_settings(epochs, learning_rate, ratio)
    if init is not None and init.config != config:
        differ = ", ".join(f.name for f in fields(config)
                           if getattr(init.config, f.name) != getattr(config, f.name))
        raise DiscriminatorError(f"the warm-start model's feature settings differ in {differ}")
    model = DiscriminatorModel.zeros(config) if init is None else DiscriminatorModel(
        config, array("d", init.dense_w), array("d", init.sparse_w), float(init.bias))

    first_row, sequences, row_of, n_rows = {}, [], array("q"), 0
    for source, tokens in itertools.chain(H, G):
        src = frozenset(source) if config.use_source else ()
        key = tuple(tokens), bytes(tok in src for tok in tokens)
        if key not in first_row:
            first_row[key], n_rows = n_rows, n_rows + len(tokens)
            sequences.append((source, tokens))
        row_of.extend(range(first_row[key], first_row[key] + len(tokens)))
    batch, n_total = prefix_features(sequences, config), len(row_of)
    del first_row, sequences  # dead here; training's peak memory is in its epochs
    scale_H = n_total / ((1.0 + ratio) * n_H)
    scale_G = n_total * ratio / ((1.0 + ratio) * (n_total - n_H))

    # one example's step: `logit` of its row, unrolled, then the update of every weight the
    # row used, all from the row's step record, which every example of the row shares
    examples = np.fromiter(map(_step_records(batch).__getitem__, row_of), object, n_total)
    hits, exp = batch.hits.tolist(), math.exp
    w0, w1, w2, w3, w4, w5 = model.dense_w
    sparse_w = np.frombuffer(model.sparse_w)  # a view: writes reach the model
    w, bias = sparse_w[batch.columns].tolist(), float(model.bias)
    rng, order = np.random.default_rng(seed), np.arange(n_total)
    for epoch in range(epochs):
        rng.shuffle(order)
        lr = learning_rate / math.sqrt(epoch + 1)
        rate_H, rate_G = lr * scale_H, lr * scale_G
        for (n, pairs, a, d0, d1, d2, d3, d4, d5), human in zip(
                examples[order].tolist(), (order < n_H).tolist()):
            S = 0.0
            if pairs is None:
                row = hits[a:a + 2 * n - 1]
                for k in row:
                    S += w[k]
            else:
                for k, c in pairs:
                    S += c * w[k]
            z = (bias + (0.0 + w0 * d0 + w1 * d1 + w2 * d2 + w3 * d3 + w4 * d4 + w5 * d5)) + S / n
            if z >= 0:  # _sigmoid
                p = 1.0 / (1.0 + exp(-z))
            else:
                e = exp(z)
                p = e / (1.0 + e)
            step = rate_H * (1.0 - p) if human else rate_G * (0.0 - p)
            w0 += step * d0
            w1 += step * d1
            w2 += step * d2
            w3 += step * d3
            w4 += step * d4
            w5 += step * d5
            share = step / n
            if pairs is None:
                for k in row:
                    w[k] += share
            else:
                for k, c in pairs:
                    w[k] += share * c
            bias += step
        model.dense_w = array("d", (w0, w1, w2, w3, w4, w5))
        sparse_w[batch.columns] = w
        model.bias = bias
    del examples, hits  # the objective reads the batch, not the step records
    bad = _non_finite((("the bias", (model.bias,)), ("a dense weight", model.dense_w),
                       ("a sparse weight", w)))
    if not bad:  # finite weights can still sum past the float range
        with np.errstate(over="ignore", invalid="ignore"):
            z = _logits(model, batch)
        bad = _non_finite((("a training row's logit", z[~np.isfinite(z)].tolist()),))
    if not bad:
        model.final_objective = eq2_objective(model, batch, n_H, row_of)
        bad = _non_finite((("final_objective", (model.final_objective,)),))
    if bad:
        raise DiscriminatorError(f"training diverged at learning_rate {learning_rate} and "
                                 f"ratio {ratio}: {bad[0]} is {bad[1]}")
    return model


def accuracy_by_length(model: DiscriminatorModel, H_eval, G_eval, buckets):
    """How many prefixes of each length in `buckets` the model classifies
    right at threshold 0.5 (human = positive), over the prefixes of the H
    then the G sequences: one featurisation and one batch score.

    Returns a list of integer counts (t, right, n_examples).
    """
    import numpy as np
    H_eval = list(H_eval)
    batch = prefix_features(itertools.chain(H_eval, G_eval), model.config)
    human = np.arange(len(batch)) < sum(len(tokens) for _, tokens in H_eval)
    right = (np.array(model.score_features(batch)) > 0.5) == human
    size = max(buckets, default=0) + 1
    n, hits = np.bincount(batch.t, minlength=size), np.bincount(batch.t[right], minlength=size)
    return [(t, int(hits[t]), int(n[t])) for t in buckets]
