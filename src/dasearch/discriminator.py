"""Sequential prefix classifier: P(prefix is human-written | source, prefix).

Hashed-unigram/bigram logistic regression with a handful of dense features,
trained by SGD on the set-normalized logistic objective
    (1/|H|) sum_H log D + (1/|G|) sum_G log(1 - D)
over all prefixes of human references (H) and generated summaries (G).
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from dasearch.corpus import Corpus, Vocabulary
from dasearch.metrics import repetition_n

DENSE_FEATURES = (
    "rel_length",      # t / T_max
    "source_overlap",  # fraction of prefix tokens present in the source
    "rep1",
    "rep2",
    "rep3",
    "mean_logfreq",    # mean background-unigram log-frequency (scaled)
    "eos_flag",        # last token is EOS
)
N_DENSE = len(DENSE_FEATURES)


class DiscriminatorError(ValueError):
    pass


@dataclass(frozen=True)
class PrefixExample:
    source: tuple[int, ...]
    prefix: tuple[int, ...]
    label: int  # 1 = human, 0 = generated
    t: int

    def __post_init__(self):
        if self.t != len(self.prefix) or self.t < 1:
            raise DiscriminatorError("t must equal the prefix length (>= 1)")


@dataclass(frozen=True)
class FeatureConfig:
    d_hash: int = 2 ** 16
    use_source: bool = True
    t_max: int = 140
    # background unigram log-frequencies indexed by token id
    logfreq: tuple[float, ...] = ()

    @classmethod
    def from_corpus(cls, corpus: Corpus, d_hash: int = 2 ** 16,
                    use_source: bool = True, t_max: int = 140) -> "FeatureConfig":
        counts = np.ones(len(corpus.vocab))
        for p in corpus.pairs:
            for tok in p.reference:
                counts[tok] += 1
        logfreq = np.log(counts / counts.sum())
        return cls(d_hash=d_hash, use_source=use_source, t_max=t_max,
                   logfreq=tuple(logfreq))


@dataclass(frozen=True)
class FeatureVector:
    dense: np.ndarray          # length N_DENSE
    sparse_idx: np.ndarray     # hashed indices < d_hash
    sparse_val: np.ndarray


def _hash(key: str, d_hash: int) -> int:
    return zlib.crc32(key.encode()) % d_hash


def extract_features(source, prefix, config: FeatureConfig) -> FeatureVector:
    if len(prefix) == 0:
        raise DiscriminatorError("empty prefix")
    prefix = tuple(prefix)
    src_set = set(source) if config.use_source else frozenset()

    dense = np.zeros(N_DENSE)
    dense[0] = min(len(prefix), config.t_max) / config.t_max
    if config.use_source:
        dense[1] = sum(1 for t in prefix if t in src_set) / len(prefix)
    dense[2] = (repetition_n(prefix, 1) or 0.0) / 100.0
    dense[3] = (repetition_n(prefix, 2) or 0.0) / 100.0
    dense[4] = (repetition_n(prefix, 3) or 0.0) / 100.0
    if config.logfreq:
        lf = config.logfreq
        dense[5] = sum(lf[t] for t in prefix) / len(prefix)
    dense[6] = 1.0 if prefix[-1] == Vocabulary.eos else 0.0

    weight = 1.0 / len(prefix)
    sparse: dict[int, float] = {}
    for t in prefix:
        bit = int(t in src_set)
        idx = _hash(f"u:{t}:{bit}", config.d_hash)
        sparse[idx] = sparse.get(idx, 0.0) + weight
    for a, b in zip(prefix, prefix[1:]):
        bit = int(a in src_set and b in src_set)
        idx = _hash(f"b:{a}_{b}:{bit}", config.d_hash)
        sparse[idx] = sparse.get(idx, 0.0) + weight
    items = sorted(sparse.items())
    return FeatureVector(
        dense=dense,
        sparse_idx=np.array([i for i, _ in items], dtype=np.int64),
        sparse_val=np.array([v for _, v in items]),
    )


@dataclass
class DiscriminatorModel:
    config: FeatureConfig
    dense_w: np.ndarray
    sparse_w: np.ndarray
    bias: float
    final_objective: float = 0.0
    objective_history: tuple[float, ...] = ()

    @classmethod
    def zeros(cls, config: FeatureConfig) -> "DiscriminatorModel":
        return cls(config, np.zeros(N_DENSE), np.zeros(config.d_hash), 0.0)

    def score_features(self, fv: FeatureVector) -> float:
        z = self.bias + float(self.dense_w @ fv.dense)
        if fv.sparse_idx.size:
            z += float(self.sparse_w[fv.sparse_idx] @ fv.sparse_val)
        return _sigmoid(z)

    def score(self, source, prefix) -> float:
        return self.score_features(extract_features(source, prefix, self.config))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("discriminator v1\n")
            f.write(f"d_hash {self.config.d_hash}\n")
            f.write(f"use_source {int(self.config.use_source)}\n")
            f.write(f"t_max {self.config.t_max}\n")
            f.write(f"final_objective {float(self.final_objective)!r}\n")
            f.write("logfreq " + " ".join(repr(float(v)) for v in self.config.logfreq) + "\n")
            f.write(f"bias {float(self.bias)!r}\n")
            f.write("dense " + " ".join(repr(float(v)) for v in self.dense_w) + "\n")
            for i in np.nonzero(self.sparse_w)[0]:
                f.write(f"{i} {float(self.sparse_w[i])!r}\n")

    @classmethod
    def load(cls, path) -> "DiscriminatorModel":
        with open(path, encoding="utf-8") as f:
            if f.readline().strip() != "discriminator v1":
                raise DiscriminatorError(f"not a discriminator model file: {path}")
            try:
                d_hash = int(f.readline().split()[1])
                use_source = bool(int(f.readline().split()[1]))
                t_max = int(f.readline().split()[1])
                final_objective = float(f.readline().split()[1])
                logfreq = tuple(float(v) for v in f.readline().split()[1:])
                bias = float(f.readline().split()[1])
                dense = np.array([float(v) for v in f.readline().split()[1:]])
                if dense.size != N_DENSE:
                    raise ValueError("dense weights cut short")
                sparse = np.zeros(d_hash)
                for line in f:
                    i, w = line.split()
                    sparse[int(i)] = float(w)
            except (IndexError, ValueError):
                raise DiscriminatorError(
                    f"truncated or malformed discriminator model file: {path}") from None
        config = FeatureConfig(d_hash=d_hash, use_source=use_source, t_max=t_max,
                               logfreq=logfreq)
        return cls(config, dense, sparse, bias, final_objective=final_objective)


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def build_prefix_sets(corpus: Corpus, generations: dict, t_max: int = 140):
    """All prefixes of references (H) and of generated summaries (G),
    truncated at t_max tokens."""
    H: list[PrefixExample] = []
    G: list[PrefixExample] = []
    for p in corpus.pairs:
        if p.id not in generations:
            raise DiscriminatorError(f"missing generation for id {p.id!r}")
        gen = tuple(generations[p.id])
        if not gen:
            raise DiscriminatorError(f"empty generation for id {p.id!r}")
        for t in range(1, min(len(p.reference), t_max) + 1):
            H.append(PrefixExample(p.source, p.reference[:t], 1, t))
        for t in range(1, min(len(gen), t_max) + 1):
            G.append(PrefixExample(p.source, gen[:t], 0, t))
    return H, G


def eq2_objective(model: DiscriminatorModel, feats_H, feats_G) -> float:
    """Set-normalized logistic objective (to be maximized)."""
    total = 0.0
    for fv in feats_H:
        total += math.log(max(model.score_features(fv), 1e-300)) / len(feats_H)
    for fv in feats_G:
        total += math.log(max(1.0 - model.score_features(fv), 1e-300)) / len(feats_G)
    return total


def eq2_gradient(model: DiscriminatorModel, feats_H, feats_G):
    """Analytic gradient of the objective w.r.t. (dense_w, sparse_w, bias)."""
    g_dense = np.zeros(N_DENSE)
    g_sparse = np.zeros(model.config.d_hash)
    g_bias = 0.0
    for feats, label, norm in ((feats_H, 1.0, len(feats_H)), (feats_G, 0.0, len(feats_G))):
        for fv in feats:
            p = model.score_features(fv)
            coef = (label - p) / norm
            g_dense += coef * fv.dense
            if fv.sparse_idx.size:
                np.add.at(g_sparse, fv.sparse_idx, coef * fv.sparse_val)
            g_bias += coef
    return g_dense, g_sparse, g_bias


def train_discriminator(H, G, config: FeatureConfig, epochs: int = 10,
                        learning_rate: float = 2.0, seed: int = 0,
                        init: DiscriminatorModel | None = None,
                        ratio: float = 1.0) -> DiscriminatorModel:
    """SGD ascent on the set-normalized objective, step decay 1/sqrt(epoch).

    Per-example steps are rescaled by (|H|+|G|)/2 so the learning rate is
    comparable across dataset sizes. `ratio` reweights the generated side:
    1.0 balances the two classes, 2.0 gives G twice the weight of H.
    """
    if not H or not G:
        raise DiscriminatorError("H and G must be non-empty")
    if ratio <= 0:
        raise DiscriminatorError("ratio must be > 0")
    if init is not None:
        model = DiscriminatorModel(config, init.dense_w.copy(), init.sparse_w.copy(),
                                   init.bias)
    else:
        model = DiscriminatorModel.zeros(config)

    examples = [(extract_features(ex.source, ex.prefix, config), ex.label, kind)
                for kind, exs in (("H", H), ("G", G)) for ex in exs]
    n_total = len(examples)
    scale = {"H": n_total / ((1.0 + ratio) * len(H)),
             "G": n_total * ratio / ((1.0 + ratio) * len(G))}

    rng = np.random.default_rng(seed)
    order = np.arange(n_total)
    feats_H = [fv for fv, label, _ in examples if label == 1]
    feats_G = [fv for fv, label, _ in examples if label == 0]
    history = []
    for epoch in range(epochs):
        rng.shuffle(order)
        lr = learning_rate / math.sqrt(epoch + 1)
        for i in order:
            fv, label, kind = examples[i]
            p = model.score_features(fv)
            step = lr * scale[kind] * (label - p)
            model.dense_w += step * fv.dense
            if fv.sparse_idx.size:
                model.sparse_w[fv.sparse_idx] += step * fv.sparse_val
            model.bias += step
        history.append(eq2_objective(model, feats_H, feats_G))
    model.objective_history = tuple(history)
    model.final_objective = history[-1] if history else 0.0
    return model


def accuracy(model: DiscriminatorModel, examples) -> float:
    """Share of non-empty `examples` classified right at threshold 0.5
    (human = positive)."""
    examples = list(examples)
    hits = sum(int(model.score(ex.source, ex.prefix) > 0.5) == ex.label for ex in examples)
    return hits / len(examples)


def accuracy_by_length(model: DiscriminatorModel, H_eval, G_eval, buckets):
    """Per-prefix-length accuracy at threshold 0.5 (human = positive).

    Returns a list of (t, accuracy_or_None, n_examples).
    """
    by_t: dict[int, list[PrefixExample]] = {t: [] for t in buckets}
    for ex in list(H_eval) + list(G_eval):
        if ex.t in by_t:
            by_t[ex.t].append(ex)
    return [(t, accuracy(model, by_t[t]) if by_t[t] else None, len(by_t[t]))
            for t in buckets]


def write_accuracy_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("t,accuracy,n_examples\n")
        for t, acc, n in rows:
            f.write(f"{t},{'' if acc is None else acc},{n}\n")
