import dataclasses
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from array import array
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dasearch import discriminator
from dasearch.corpus import Vocabulary, generate_synthetic_corpus
from dasearch.discriminator import (
    D_HASH_MAX,
    DiscriminatorError,
    DiscriminatorModel,
    FeatureConfig,
    N_DENSE,
    PrefixFeaturizer,
    _hash,
    _sigmoid,
    accuracy_by_length,
    build_prefix_sets,
    eq2_objective,
    extract_features,
    prefix_features,
    train_discriminator,
)
from dasearch.metrics import repetition_n

from conftest import eq2_gradient, make_corpus, make_vocab, reframed

EOS = Vocabulary.eos


@pytest.fixture
def config():
    return FeatureConfig(d_hash=256, t_max=140)


def _separable_sets(n=40, seed=0):
    """Human sequences overlap the source fully, generated ones not at all."""
    rng = random.Random(seed)
    source = (3, 4, 5, 6)
    H, G = [], []
    for _ in range(n):
        t = rng.randint(1, 4)
        H.append((source, tuple(rng.choice(source) for _ in range(t))))
        G.append((source, tuple(rng.choice((7, 8, 9)) for _ in range(t))))
    return H, G


def prefixes(sequences):
    """(source, prefix) for every prefix of every (source, tokens) sequence,
    in the order of the rows prefix_features builds."""
    return [(source, tokens[:t]) for source, tokens in sequences
            for t in range(1, len(tokens) + 1)]


# --- prefix sets ----------------------------------------------------------------


def test_prefix_sets_one_example_per_prefix_length():
    vocab = make_vocab("a", "b", "c")
    corpus = make_corpus(vocab, [("p", ["a", "b"], ["a", "b", "c"])])
    H, G = build_prefix_sets(corpus, {"p": (3, 4)})
    assert H == [((3, 4), (3, 4, 5))] and G == [((3, 4), (3, 4))]
    assert [prefix for _, prefix in prefixes(H)] == [(3,), (3, 4), (3, 4, 5)]
    assert len(prefix_features(H, FeatureConfig(d_hash=64))) == 3
    assert len(prefix_features(G, FeatureConfig(d_hash=64))) == 2


def test_prefix_sets_truncate_long_references_at_t_max():
    vocab = make_vocab("a", "b")
    ref = ["a", "b"] * 100  # 200 tokens
    corpus = make_corpus(vocab, [("p", ["a"], ref)])
    H, _ = build_prefix_sets(corpus, {"p": (3,)}, t_max=140)
    assert H == [(corpus.pairs[0].source, corpus.pairs[0].reference[:140])]
    assert len(prefixes(H)) == 140


def test_prefix_sets_require_generations():
    vocab = make_vocab("a")
    corpus = make_corpus(vocab, [("p", ["a"], ["a"])])
    with pytest.raises(DiscriminatorError, match="missing"):
        build_prefix_sets(corpus, {})
    with pytest.raises(DiscriminatorError, match="empty"):
        build_prefix_sets(corpus, {"p": ()})


def test_prefix_sets_take_memory_of_the_pairs_not_of_their_prefixes():
    """build_prefix_sets keeps each sequence whole: on 140-token generations
    at t_max 140 its peak traced allocation stays under 64 bytes per input
    token, where a tuple per prefix takes O(L^2) (about 640)."""
    corpus = generate_synthetic_corpus(1, 20)
    rng = random.Random(0)
    gens = {p.id: tuple(rng.randrange(3, len(corpus.vocab)) for _ in range(140))
            for p in corpus.pairs}
    n_tokens = sum(len(p.reference) + len(gens[p.id]) for p in corpus.pairs)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        H, G = build_prefix_sets(corpus, gens, t_max=140)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(prefixes(G)) == 20 * 140 and len(prefixes(H)) < n_tokens
    assert peak < 64 * n_tokens, f"{peak / n_tokens:.1f} bytes per input token"


# --- features -------------------------------------------------------------------


def test_repetition_dense_feature_is_duplicated_mass_fraction(config):
    dense, _ = extract_features((3, 4), (5, 5, 5), config)
    assert math.isclose(dense[2], 2 / 3, abs_tol=1e-12)


def test_source_overlap_feature(config):
    dense, _ = extract_features((3, 4), (3, 7), config)
    assert dense[1] == 0.5


def test_use_source_false_zeroes_source_features():
    config = FeatureConfig(d_hash=256, use_source=False)
    dense, _ = extract_features((3, 4), (3, 4), config)
    assert dense[1] == 0.0


def test_relative_length_and_eos_flag(config):
    dense, _ = extract_features((3,), (3, 4, 5), config)
    assert math.isclose(dense[0], 3 / config.t_max, abs_tol=1e-12)
    # no dense feature marks an ended prefix: H and G hold no EOS
    dense_end, _ = extract_features((3,), (3, EOS), config)
    assert len(dense) == len(dense_end) == N_DENSE


def test_feature_extraction_deterministic(config):
    a = extract_features((3, 4, 5), (3, 5, 7), config)
    b = extract_features((3, 4, 5), (3, 5, 7), config)
    assert a == b


def test_empty_prefix_rejected(config):
    with pytest.raises(DiscriminatorError):
        extract_features((3,), (), config)
    with pytest.raises(DiscriminatorError, match="^empty prefix$"):
        DiscriminatorModel.zeros(config).score((3,), ())


def test_background_logfreq_feature_uses_reference_counts():
    vocab = make_vocab("a", "b")
    corpus = make_corpus(vocab, [("p", ["a"], ["a", "a", "b"])])
    config = FeatureConfig.from_corpus(corpus, d_hash=64)
    counts = np.ones(len(vocab))
    counts[3] += 2
    counts[4] += 1
    expected = np.log(counts / counts.sum())
    dense, _ = extract_features((3,), (3, 4), config)
    assert math.isclose(dense[5], (expected[3] + expected[4]) / 2, abs_tol=1e-12)


# --- incremental features against the from-scratch reference ------------------------


def reference_features(source, prefix, config: FeatureConfig):
    """Every feature of the prefix, rebuilt from scratch: the dense values as
    an array and the hashed index of every hit in token order (each token's
    unigram, then its bigram with the token before it). The reference the
    incremental PrefixFeaturizer must match bit for bit."""
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
        total = 0.0
        for t in prefix:  # left to right, as the featurizer adds them
            total += config.logfreq[t]
        dense[5] = total / len(prefix)

    hits = []
    for i, b in enumerate(prefix):
        hits.append(_hash(f"u:{b}:{int(b in src_set)}", config.d_hash))
        if i:
            a = prefix[i - 1]
            hits.append(_hash(f"b:{a}_{b}:{int(a in src_set and b in src_set)}",
                              config.d_hash))
    return dense, hits


def reference_score(model: DiscriminatorModel, features) -> float:
    """D of reference_features, in the canonical arithmetic written out
    here: z = (bias + zd) + S / t, with zd and S summed left to right from
    0.0 and t the prefix length."""
    dense, hits = features
    zd = 0.0
    for j in range(N_DENSE):
        zd += float(model.dense_w[j]) * float(dense[j])
    S = 0.0
    for i in hits:
        S += float(model.sparse_w[i])
    t = (len(hits) + 1) // 2  # a t-token prefix has t unigram and t - 1 bigram hits
    return _sigmoid((float(model.bias) + zd) + S / t)


def assert_same_features(got, ref):
    """`got`, a (dense, hashed hits) pair, holds the values of `ref` bit for bit."""
    assert np.asarray(got[0]).tobytes() == ref[0].tobytes(), "dense"
    assert list(got[1]) == ref[1], "hits"


def random_model(config: FeatureConfig, seed: int) -> DiscriminatorModel:
    rng = np.random.default_rng(seed)
    return DiscriminatorModel(config, rng.normal(size=N_DENSE), rng.normal(size=config.d_hash),
                              float(rng.normal()))


@st.composite
def feature_configs(draw, n_vocab):
    """d_hash 1, 2 and 7 force index collisions; 2**16 is the default."""
    logfreq = ()
    if draw(st.booleans(), label="with_logfreq"):
        counts = np.array(draw(st.lists(st.integers(1, 50), min_size=n_vocab,
                                        max_size=n_vocab), label="counts"), dtype=float)
        values = np.log(counts / counts.sum())
        # a hand-built config may hold numpy scalars; from_corpus (math.log) and a
        # loaded model file hold Python floats
        logfreq = tuple(values) if draw(st.booleans(), label="numpy") else tuple(
            values.tolist())
    return FeatureConfig(d_hash=draw(st.sampled_from([1, 2, 7, 2 ** 16]), label="d_hash"),
                         use_source=draw(st.booleans(), label="use_source"),
                         t_max=draw(st.integers(1, 12), label="t_max"), logfreq=logfreq)


def tokens(n_vocab, min_size, max_size):
    return st.lists(st.integers(0, n_vocab - 1), min_size=min_size, max_size=max_size)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_incremental_features_equal_the_reference_bitwise(data):
    n_vocab = data.draw(st.integers(4, 10), label="n_vocab")
    config = data.draw(feature_configs(n_vocab), label="config")
    source = tuple(data.draw(tokens(n_vocab, 1, 8), label="source"))
    prefix = tuple(data.draw(tokens(n_vocab, 1, 30), label="prefix"))
    model = random_model(config, data.draw(st.integers(0, 99), label="model_seed"))
    # a featurizer alone, and one that carries each prefix's S under `model`
    featurizer, scorer = PrefixFeaturizer(config), PrefixFeaturizer(config, model)
    state, scored, hits = featurizer.state_of(source), scorer.state_of(source), []

    def check(state, scored, hits, token, p):
        """The step of `token` from each state gives the features and the
        logit, whose _sigmoid is D, of the prefix `p` it ends; returns both
        steps and the prefix's hits."""
        _, step = featurizer.score_next(state, token)
        z, scored_step = scorer.score_next(scored, token)
        D = _sigmoid(z)
        *_, step_hits, dense = step
        hits = hits + [featurizer.columns[c] for c in step_hits]
        ref = reference_features(source, p, config)
        assert_same_features((dense, hits), ref)
        assert D.hex() == reference_score(model, ref).hex()
        assert D.hex() == model.score(source, p).hex()
        return step, scored_step, hits

    for t, token in enumerate(prefix, start=1):
        # a sibling is scored off the same parent first and commits to a
        # copy, and the child commits to the parent's state, as in the search
        other = (token + 1) % n_vocab
        sibling_p = prefix[: t - 1] + (other,)
        step, scored_step, sibling_hits = check(state, scored, hits, other, sibling_p)
        sibling, scored_sibling = state.copy(), scored.copy()
        featurizer.commit(sibling, other, step)
        scorer.commit(scored_sibling, other, scored_step)
        step, scored_step, hits = check(state, scored, hits, token, prefix[:t])
        featurizer.commit(state, token, step)
        scorer.commit(scored, token, scored_step)
        # the sibling's committed state takes one more token as a fresh one would
        check(sibling, scored_sibling, sibling_hits, token, sibling_p + (token,))
    assert_same_features(extract_features(source, prefix, config),
                         reference_features(source, prefix, config))


def state_fields(state):
    return (state.source_set, state.t, state.in_source, state.logfreq_sum, set(state.grams),
            state.distinct, state.last, state.S)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_score_next_leaves_the_state_and_commit_applies_its_step(data):
    n_vocab = data.draw(st.integers(4, 10), label="n_vocab")
    config = data.draw(feature_configs(n_vocab), label="config")
    source = tuple(data.draw(tokens(n_vocab, 1, 8), label="source"))
    prefix = tuple(data.draw(tokens(n_vocab, 0, 20), label="prefix"))
    model = random_model(config, data.draw(st.integers(0, 99), label="model_seed"))
    scorer = PrefixFeaturizer(config, model)
    state = scorer.state_of(source)
    for token in prefix:
        scorer.commit(state, token, scorer.score_next(state, token)[1])
    for token in range(n_vocab):
        before = state_fields(state)
        z, step = scorer.score_next(state, token)
        assert state_fields(state) == before
        committed, rescored = state.copy(), state.copy()
        scorer.commit(committed, token, step)
        scorer.commit(rescored, token, scorer.score_next(rescored, token)[1])
        assert state_fields(committed) == state_fields(rescored)
        # the unscored step is the scored one without its dense values, and
        # commits as it does
        z_unscored, unscored = scorer.score_next(state, token, scored=False)
        assert state_fields(state) == before
        assert z_unscored is None and unscored == (*step[:-1], None)
        scorer.commit(rescored := state.copy(), token, unscored)
        assert state_fields(committed) == state_fields(rescored)
        assert _sigmoid(z).hex() == model.score(source, prefix + (token,)).hex()


def key_name(key):
    """The name a unigram (token, bit) or bigram (a, b, bit) key is hashed by."""
    return f"u:{key[0]}:{key[1]}" if len(key) == 2 else f"b:{key[0]}_{key[1]}:{key[2]}"


class ClearRecordingDict(dict):
    """A dict that records its size each time it is cleared."""

    def __init__(self):
        super().__init__()
        self.cleared_at = []

    def clear(self):
        self.cleared_at.append(len(self))
        super().clear()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_hashed_indices_memoised_on_the_model_are_the_hashes_of_their_keys(data):
    """Featurizers made one after another with one model, as searches are,
    share its memo of hashed indices: every entry is _hash of its key's name
    under d_hash, every featurizer's hits are the reference's indices, and a
    memo is cleared when it holds d_hash keys and meets another, and only
    then."""
    n_vocab = data.draw(st.integers(4, 10), label="n_vocab")
    config = FeatureConfig(d_hash=data.draw(st.sampled_from([1, 2, 7, 2 ** 16])
                                            | st.integers(1, 40), label="d_hash"),
                           use_source=data.draw(st.booleans(), label="use_source"), t_max=12)
    model, met, sizes = random_model(config, 0), set(), []
    model.index_of = memo = ClearRecordingDict()
    for _ in range(data.draw(st.integers(1, 4), label="searches")):
        source = tuple(data.draw(tokens(n_vocab, 1, 8), label="source"))
        prefix = tuple(data.draw(tokens(n_vocab, 1, 20), label="prefix"))
        featurizer = PrefixFeaturizer(config, model)
        state, hits = featurizer.state_of(source), []
        src = set(source) if config.use_source else set()
        for t, token in enumerate(prefix):
            _, step = featurizer.score_next(state, token)
            featurizer.commit(state, token, step)
            hits += [featurizer.columns[c] for c in step[5]]
            bit = int(token in src)
            met.add((token, bit))
            if t:
                met.add((prefix[t - 1], token, int(bit and prefix[t - 1] in src)))
            sizes.append(len(model.index_of))
        assert hits == reference_features(source, prefix, config)[1]
    assert all(index == _hash(key_name(key), config.d_hash) for key, index in memo.items())
    assert set(memo) <= met and max(sizes) <= config.d_hash
    if len(met) > config.d_hash:  # the memo filled, and was cleared to take a new key
        assert memo.cleared_at and set(memo.cleared_at) == {config.d_hash}
    else:
        assert not memo.cleared_at and set(memo) == met


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_sequence_features_equal_the_reference_at_every_prefix(data):
    n_vocab = data.draw(st.integers(4, 10), label="n_vocab")
    config = data.draw(feature_configs(n_vocab), label="config")
    sources = data.draw(st.lists(tokens(n_vocab, 1, 6).map(tuple), min_size=1, max_size=2),
                        label="sources")
    sequences = data.draw(st.lists(tokens(n_vocab, 0, 12).map(tuple), min_size=1,
                                   max_size=3), label="sequences")
    # every sequence under every source; an empty one is a chain with no row
    seqs = [(source, seq) for source in sources for seq in sequences]
    batch = prefix_features(seqs, config)
    rows = [(n, source, seq[:t]) for n, (source, seq) in enumerate(seqs)
            for t in range(1, len(seq) + 1)]
    assert len(batch) == len(rows) == len(prefixes(seqs))
    assert len(batch.chain_ptr) == len(seqs) + 1
    assert batch.chain_ptr[0] == 0 and batch.chain_ptr[-1] == len(batch.hits)
    assert len(set(batch.columns.tolist())) == len(batch.columns)
    for i, (n, source, prefix) in enumerate(rows):
        t, start = len(prefix), batch.offset[i]
        assert start == batch.chain_ptr[n] and batch.t[i] == t
        assert batch.chain_ptr[n + 1] - start == 2 * len(seqs[n][1]) - 1
        hits = batch.columns[batch.hits[start:start + 2 * t - 1]].tolist()
        ref = reference_features(source, prefix, config)
        assert_same_features((batch.dense[i], hits), ref)


# --- scoring --------------------------------------------------------------------


def test_zero_model_scores_half(config):
    model = DiscriminatorModel.zeros(config)
    assert model.score((3, 4), (3,)) == 0.5
    assert model.score((3, 4), (7, 8, 9)) == 0.5


def test_score_monotone_in_positive_weight_feature(config):
    model = DiscriminatorModel.zeros(config)
    model.dense_w[1] = 2.0  # reward source overlap
    low = model.score((3, 4), (7, 7))
    mid = model.score((3, 4), (3, 7))
    high = model.score((3, 4), (3, 4))
    assert low < mid < high


def test_score_matches_manual_recomputation(config):
    rng = np.random.default_rng(0)
    model = DiscriminatorModel(config, rng.normal(size=N_DENSE),
                               rng.normal(size=config.d_hash), 0.3)
    dense, hits = extract_features((3, 4, 5), (3, 9, 3, EOS), config)
    assert len(hits) == 7  # 4 unigrams and 3 bigrams
    zd = 0.0
    for w, x in zip(model.dense_w.tolist(), dense):
        zd += w * x
    S = 0.0
    for i in hits:
        S += model.sparse_w[i]
    z = (0.3 + zd) + S / 4
    assert model.score((3, 4, 5), (3, 9, 3, EOS)) == _sigmoid(z)


# --- training -------------------------------------------------------------------


def test_training_separates_linearly_separable_sets(config):
    H, G = _separable_sets(n=40, seed=0)
    model = train_discriminator(H, G, config, epochs=5, seed=1)
    H_eval, G_eval = _separable_sets(n=30, seed=9)
    examples = [(p, True) for p in prefixes(H_eval)] + [(p, False) for p in prefixes(G_eval)]
    hits = sum((model.score(*p) > 0.5) == human for p, human in examples)
    assert hits / len(examples) >= 0.95


def test_identical_sets_stay_at_chance(config):
    H, _ = _separable_sets(n=30, seed=2)
    G = list(H)
    model = train_discriminator(H, G, config, epochs=5, seed=1)
    examples = [(p, True) for p in prefixes(H)] + [(p, False) for p in prefixes(G)]
    hits = sum((model.score(*p) > 0.5) == human for p, human in examples)
    assert abs(hits / len(examples) - 0.5) <= 0.05


def test_objective_non_decreasing_with_decaying_steps(config):
    # a k-epoch run is the first k epochs of a longer one: the same shuffles
    # and the same decaying steps, so its final_objective is the objective
    # after epoch k of the longer run
    H, G = _separable_sets(n=40, seed=3)
    history = [train_discriminator(H, G, config, epochs=epochs, learning_rate=0.5,
                                   seed=1).final_objective for epochs in range(1, 9)]
    assert all(b >= a - 1e-3 for a, b in zip(history, history[1:]))


def test_training_takes_the_objective_once(config, monkeypatch):
    H, G = _separable_sets(n=10, seed=3)
    values = []

    def counted(*args):
        values.append(eq2_objective(*args))
        return values[-1]

    monkeypatch.setattr(discriminator, "eq2_objective", counted)
    model = train_discriminator(H, G, config, epochs=3, seed=1)
    assert len(values) == 1
    assert model.final_objective.hex() == values[0].hex()


def test_training_deterministic_in_seed(config):
    H, G = _separable_sets()
    m1 = train_discriminator(H, G, config, epochs=3, seed=7)
    m2 = train_discriminator(H, G, config, epochs=3, seed=7)
    assert np.array_equal(m1.dense_w, m2.dense_w)
    assert np.array_equal(m1.sparse_w, m2.sparse_w)
    assert m1.bias == m2.bias


def test_training_validates_inputs(config):
    H, G = _separable_sets()
    with pytest.raises(DiscriminatorError):
        train_discriminator([], G, config)
    with pytest.raises(DiscriminatorError):
        train_discriminator(H, G, config, ratio=0.0)
    for epochs in (0, -2):
        with pytest.raises(DiscriminatorError, match=f"epochs must be >= 1, got {epochs}"):
            train_discriminator(H, G, config, epochs=epochs)


def test_training_that_diverges_raises_naming_its_settings(config):
    # one human prefix against 20 generated ones: the human side's steps are
    # rescaled by 21 / 2, so at 1e308 they are inf, the weights go to nan, and
    # so does every logit. On the separable sets the weights stay finite near
    # the float limit, but the logits they sum to overflow, and numpy warns of
    # nothing
    for (H, G), what in (
            (([((3, 4), (3,))], [((3, 4), (5, 6, 7, 8, 9))] * 4),
             "a training row's logit is nan"),
            (_separable_sets(), "a training row's logit is inf")):
        assert math.isfinite(train_discriminator(H, G, config).bias)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DiscriminatorError, match=re.escape(
                    f"training diverged at learning_rate 1e+308 and ratio 1.0: {what}")):
                train_discriminator(H, G, config, learning_rate=1e308)


def test_training_rejects_a_side_without_prefixes(config):
    H, G = _separable_sets()
    empty = [((3, 4), ()), ((5,), ())]
    for args in ((empty, G), (H, empty), (H, []), ([], [])):
        with pytest.raises(DiscriminatorError, match="H and G must each hold a prefix"):
            train_discriminator(*args, config)


def test_class_ratio_reweights_generated_side(config):
    H, G = _separable_sets(n=20, seed=4)
    balanced = train_discriminator(H, G, config, epochs=2, seed=1)
    skewed = train_discriminator(H, G, config, epochs=2, seed=1, ratio=5.0)
    assert not np.array_equal(balanced.dense_w, skewed.dense_w)
    # heavier weight on log(1 - D) pushes scores down
    assert skewed.score(*H[0]) < balanced.score(*H[0])


def test_warm_start_initialization_is_used(config):
    H, G = _separable_sets(n=20, seed=5)
    base = train_discriminator(H, G, config, epochs=2, seed=1)
    resumed = train_discriminator(H, G, config, epochs=1, seed=2, init=base)
    fresh = train_discriminator(H, G, config, epochs=1, seed=2)
    assert not np.array_equal(resumed.dense_w, fresh.dense_w)


# --- the packed trainer against the per-example reference ----------------------------


def reference_train(H, G, config: FeatureConfig, epochs: int, learning_rate: float,
                    seed: int, init: DiscriminatorModel | None, ratio: float,
                    per_hit: bool = False):
    """SGD over the reference_features of every prefix of the H and G
    sequences, and the objective, scored by reference_score, summed example
    by example after the last epoch: the trainer the packed one must match
    bit for bit. A t-token example with fewer than t distinct indices takes
    S as the sum of c * w from 0.0 over them in first-hit order and moves each
    by (step / t) * c, for an index hit c times; any other example, and
    every example with `per_hit`, is scored by reference_score and moves
    each hit's weight by step / t."""
    if init is not None:
        model = DiscriminatorModel(config, init.dense_w.copy(), init.sparse_w.copy(),
                                   init.bias)
    else:
        model = DiscriminatorModel.zeros(config)
    examples = [(reference_features(source, prefix, config), label, kind)
                for kind, label, seqs in (("H", 1, H), ("G", 0, G))
                for source, prefix in prefixes(seqs)]
    n_total = len(examples)
    n_H = len(prefixes(H))
    scale = {"H": n_total / ((1.0 + ratio) * n_H),
             "G": n_total * ratio / ((1.0 + ratio) * (n_total - n_H))}
    feats_H = [row for row, label, _ in examples if label == 1]
    feats_G = [row for row, label, _ in examples if label == 0]

    def objective():
        total = 0.0
        for row in feats_H:
            total += math.log(max(reference_score(model, row), 1e-300)) / len(feats_H)
        for row in feats_G:
            total += math.log(max(1.0 - reference_score(model, row), 1e-300)) / len(feats_G)
        return total

    def distinct_score(dense, counts, t):
        zd = 0.0
        for j in range(N_DENSE):
            zd += float(model.dense_w[j]) * float(dense[j])
        S = 0.0
        for index, count in counts.items():
            S += count * float(model.sparse_w[index])
        return _sigmoid((float(model.bias) + zd) + S / t)

    rng = np.random.default_rng(seed)
    order = np.arange(n_total)
    for epoch in range(epochs):
        rng.shuffle(order)
        lr = learning_rate / math.sqrt(epoch + 1)
        for i in order:
            (dense, hits), label, kind = examples[i]
            # a t-token prefix has t unigram and t - 1 bigram hits; Counter
            # keeps its indices in first-hit order
            t, counts = (len(hits) + 1) // 2, Counter(hits)
            by_index = len(counts) < t and not per_hit
            D = distinct_score(dense, counts, t) if by_index else \
                reference_score(model, (dense, hits))
            step = lr * scale[kind] * (label - D)
            model.dense_w += step * dense
            if by_index:
                share = step / t
                for index, count in counts.items():
                    model.sparse_w[index] += share * count
            else:
                for index in hits:
                    model.sparse_w[index] += step / t
            model.bias += step
    model.final_objective = objective()
    return model


def sequence_runs(data, n_vocab, name):
    """A few sequences under each of a few sources."""
    sources = data.draw(st.lists(tokens(n_vocab, 1, 6).map(tuple), min_size=1, max_size=2),
                        label=f"{name}_sources")
    sequences = data.draw(st.lists(tokens(n_vocab, 1, 10).map(tuple), min_size=1,
                                   max_size=3), label=f"{name}_sequences")
    return [(source, seq) for source in sources for seq in sequences]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_step_records_count_each_rows_columns_in_first_hit_order(data):
    n_vocab = data.draw(st.integers(4, 10), label="n_vocab")
    config = data.draw(feature_configs(n_vocab), label="config")
    # an empty sequence is a chain with no row
    seqs = data.draw(st.lists(st.tuples(tokens(n_vocab, 1, 6).map(tuple),
                                        tokens(n_vocab, 0, 40).map(tuple)),
                              min_size=1, max_size=4), label="sequences")
    batch = prefix_features(seqs, config)
    records = discriminator._step_records(batch)
    assert len(records) == len(batch)
    for i, (t, pairs, a, *dense) in enumerate(records):
        want = Counter(batch.hits[batch.offset[i]:batch.offset[i] + 2 * t - 1].tolist())
        assert (t, a) == (batch.t[i], batch.offset[i])
        assert np.array(dense).tobytes() == batch.dense[i].tobytes()
        if len(want) < t:  # a row SGD steps per distinct column
            assert pairs == tuple(want.items())
            assert all(type(c) is float for _, c in pairs)
        else:
            assert pairs is None


def test_step_records_share_one_float_per_bit_pattern_and_keep_the_zeros_apart(config):
    batch = prefix_features([((3,), (3, 4, 3, 4, 5))], config)
    dense = batch.dense.copy()
    dense[:, 0] = [0.0, -0.0, 0.0, -0.0, 0.5]
    dense[:, 1] = [-0.0, 0.0, 0.5, 0.0, -0.0]
    records = discriminator._step_records(dataclasses.replace(batch, dense=dense))
    values = [value for record in records for value in record[3:]]
    assert np.array(values).tobytes() == dense.tobytes()
    # one object per distinct bit pattern: 0.0 and -0.0 are two
    assert len({id(value) for value in values}) == len(set(dense.view(np.int64).ravel().tolist()))
    assert records[0][3] is records[2][3] and records[0][3] is not records[1][3]


@settings(derandomize=True, deadline=None, max_examples=120)
@given(data=st.data())
def test_packed_training_equals_the_per_example_reference_bitwise(data):
    n_vocab = data.draw(st.integers(4, 10), label="n_vocab")
    config = data.draw(feature_configs(n_vocab), label="config")
    H = sequence_runs(data, n_vocab, "H")
    G = sequence_runs(data, n_vocab, "G")
    kwargs = dict(epochs=data.draw(st.integers(1, 4), label="epochs"),
                  learning_rate=data.draw(st.sampled_from([0.5, 2.0]), label="lr"),
                  seed=data.draw(st.integers(0, 2 ** 32 - 1), label="seed"),
                  ratio=data.draw(st.sampled_from([1.0, 0.4, 3.0]), label="ratio"),
                  init=None)
    if data.draw(st.booleans(), label="warm_start"):
        rng = np.random.default_rng(data.draw(st.integers(0, 99), label="init_seed"))
        kwargs["init"] = DiscriminatorModel(config, rng.normal(size=N_DENSE),
                                            rng.normal(size=config.d_hash),
                                            float(rng.normal()))
    packed = train_discriminator(H, G, config, **kwargs)
    reference = reference_train(H, G, config, **kwargs)
    for name in ("dense_w", "sparse_w"):
        assert getattr(packed, name).tobytes() == getattr(reference, name).tobytes(), name
    assert packed.bias.hex() == reference.bias.hex()
    assert packed.final_objective.hex() == reference.final_objective.hex()
    # the batch scorer (accuracy, final_objective), the from-scratch one and
    # the search's carried S equal the reference scoring bit for bit
    examples = prefixes(H + G)
    want = [reference_score(packed, reference_features(source, prefix, config))
            for source, prefix in examples]
    assert packed.score_features(prefix_features(H + G, config)) == want
    assert [packed.score(source, prefix) for source, prefix in examples] == want
    carried = []
    for source, prefix in examples:
        scorer = PrefixFeaturizer(config, packed)
        state = scorer.state_of(source)
        for token in prefix:
            z, step = scorer.score_next(state, token)
            scorer.commit(state, token, step)
        carried.append(_sigmoid(z))
    assert carried == want


@settings(derandomize=True, deadline=None, max_examples=40)
@given(data=st.data())
def test_a_bootstrap_shaped_set_trains_as_the_reference_bitwise(data):
    """As the plain bootstrap set is: one generated sequence that repeats its
    tokens, under several sources (some twice), so rows stepped per distinct
    column with counts above 1 share a chain, against references of 1, 2 and
    more tokens; with use_source on and off."""
    n_vocab = data.draw(st.integers(4, 10), label="n_vocab")
    config = data.draw(feature_configs(n_vocab), label="config")
    generated = tuple(data.draw(tokens(n_vocab, 1, 3), label="unit")
                      * data.draw(st.integers(3, 6), label="repeats"))
    sources = data.draw(st.lists(tokens(n_vocab, 0, 6).map(tuple), min_size=2, max_size=4),
                        label="sources")
    references = [tuple(data.draw(tokens(n_vocab, size, size), label=f"reference_{size}"))
                  for size in (1, 2, data.draw(st.integers(3, 8), label="long"))]
    H = [(source, reference) for source in sources for reference in references]
    G = [(source, generated) for source in sources + sources[:1]]
    kwargs = dict(epochs=data.draw(st.integers(1, 3), label="epochs"),
                  learning_rate=data.draw(st.sampled_from([0.5, 2.0]), label="lr"),
                  seed=data.draw(st.integers(0, 2 ** 32 - 1), label="seed"),
                  ratio=data.draw(st.sampled_from([1.0, 0.4]), label="ratio"))
    warm = data.draw(st.booleans(), label="warm_start")
    for use_source in (True, False):
        config = dataclasses.replace(config, use_source=use_source)
        records = discriminator._step_records(prefix_features(G, config))
        assert any(pairs for _, pairs, *_ in records)  # the shape the test is for
        init = random_model(config, kwargs["seed"] % 100) if warm else None
        packed = train_discriminator(H, G, config, init=init, **kwargs)
        reference = reference_train(H, G, config, init=init, **kwargs)
        for name in ("dense_w", "sparse_w"):
            assert getattr(packed, name).tobytes() == getattr(reference, name).tobytes(), name
        assert packed.bias.hex() == reference.bias.hex()
        assert packed.final_objective.hex() == reference.final_objective.hex()


def _distinct_rows(sequences, use_source):
    """The rows of the distinct (tokens, which tokens the source holds) sequences."""
    keys = {(tuple(tokens), tuple(tok in source for tok in tokens) if use_source else ())
            for source, tokens in sequences}
    return sum(len(tokens) for tokens, _ in keys)


def _counting_rows(featurised: list):
    """prefix_features that appends the row count of every batch it builds."""
    real = discriminator.prefix_features

    def counted(sequences, config):
        batch = real(sequences, config)
        featurised.append(len(batch))
        return batch

    return counted


@settings(derandomize=True, deadline=None, max_examples=80)
@given(data=st.data())
def test_sequences_merge_by_source_bits_and_train_as_the_reference_bitwise(data):
    """One token sequence under a source, under another that holds the same
    of its tokens, and under one that differs on one token's membership, in
    H and in G: the first two share their rows, the third shares them only
    without use_source, and training is the per-example reference bit for
    bit."""
    n_vocab = data.draw(st.integers(4, 10), label="n_vocab")
    config = data.draw(feature_configs(n_vocab), label="config")
    seq = tuple(data.draw(tokens(n_vocab, 1, 10), label="seq"))
    source = set(data.draw(tokens(n_vocab, 0, 6), label="source"))
    others = set(range(n_vocab)) - set(seq)
    agreeing = (source & set(seq)) | set(data.draw(
        st.lists(st.sampled_from(sorted(others)), max_size=3) if others else st.just([]),
        label="extra"))
    flipped = data.draw(st.sampled_from(seq), label="flipped")
    differing = source ^ {flipped}
    other = tuple(data.draw(tokens(n_vocab, 1, 10), label="other"))
    H = [(tuple(source), seq), (tuple(agreeing), other), (tuple(agreeing), seq)]
    G = [(tuple(differing), seq), (tuple(agreeing), seq), (tuple(source), other),
         (tuple(source), seq)]
    kwargs = dict(epochs=data.draw(st.integers(1, 3), label="epochs"), learning_rate=2.0,
                  seed=data.draw(st.integers(0, 2 ** 32 - 1), label="seed"),
                  ratio=data.draw(st.sampled_from([1.0, 0.4]), label="ratio"),
                  init=random_model(config, data.draw(st.integers(0, 99), label="init_seed"))
                  if data.draw(st.booleans(), label="warm_start") else None)
    featurised = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(discriminator, "prefix_features", _counting_rows(featurised))
        packed = train_discriminator(H, G, config, **kwargs)
    reference = reference_train(H, G, config, **kwargs)
    for name in ("dense_w", "sparse_w"):
        assert getattr(packed, name).tobytes() == getattr(reference, name).tobytes(), name
    assert packed.bias.hex() == reference.bias.hex()
    assert packed.final_objective.hex() == reference.final_objective.hex()
    # seq under source and under agreeing is one row set; under differing, one
    # more unless the source is off
    assert featurised == [_distinct_rows(H + G, config.use_source)]
    assert featurised[0] <= len(seq) * (1 + config.use_source) + len(other) * 2


def test_training_featurises_each_distinct_sequence_once(config, monkeypatch):
    H, G = _separable_sets(n=20, seed=9)
    source = H[0][0]
    G = [(source, (7, 8, 7, 8, 9))] * 30 + [((3, 4), (7, 8, 7, 8, 9))] + G[:5]
    featurised = []
    monkeypatch.setattr(discriminator, "prefix_features", _counting_rows(featurised))
    model = train_discriminator(H + H, G, config, epochs=2, seed=1)
    # (3, 4) holds none of 7, 8 and 9, as `source` holds none: one row set
    assert featurised == [_distinct_rows(H + G, True)]
    assert featurised[0] < len(prefixes(H)) + 5 + len(prefixes(G[-5:]))
    monkeypatch.undo()
    reference = reference_train(H + H, G, config, epochs=2, learning_rate=2.0, seed=1,
                                init=None, ratio=1.0)
    assert model.sparse_w.tobytes() == reference.sparse_w.tobytes()
    assert model.final_objective.hex() == reference.final_objective.hex()


@pytest.mark.parametrize("init_config, config, names", [
    (FeatureConfig(d_hash=16), FeatureConfig(d_hash=2 ** 16), "d_hash"),
    (FeatureConfig(d_hash=2 ** 16), FeatureConfig(d_hash=16), "d_hash"),
    (FeatureConfig(d_hash=16, t_max=9), FeatureConfig(d_hash=16, use_source=False),
     "use_source, t_max"),
])
def test_warm_start_refuses_a_model_of_other_feature_settings(init_config, config, names,
                                                              monkeypatch):
    # a smaller d_hash in init would index out of its weights, a larger one
    # would return a model whose file cannot be loaded
    H, G = _separable_sets(n=5, seed=3)
    featurised = []
    monkeypatch.setattr(discriminator, "prefix_features", _counting_rows(featurised))
    with pytest.raises(DiscriminatorError, match=f"feature settings differ in {names}$"):
        train_discriminator(H, G, config, init=random_model(init_config, 0))
    assert featurised == []  # refused before featurising


def test_per_hit_steps_equal_the_per_column_arithmetic_up_to_rounding(config):
    # a column hit c times in a t-token prefix is read as c * w and moves by
    # one step of (step / t) * c, not c reads of w and c steps of step / t:
    # the same SGD step in exact arithmetic
    H, G = _separable_sets(n=40, seed=8)
    assert any(len(set(tokens)) < len(tokens) for _, tokens in G)  # some c > 1
    for seed in (0, 1):
        packed = train_discriminator(H, G, config, epochs=4, seed=seed)
        per_hit = reference_train(H, G, config, epochs=4, learning_rate=2.0, seed=seed,
                                  init=None, ratio=1.0, per_hit=True)
        assert not np.array_equal(packed.sparse_w, per_hit.sparse_w)
        for name in ("dense_w", "sparse_w"):
            np.testing.assert_allclose(getattr(packed, name), getattr(per_hit, name),
                                       rtol=1e-9, atol=0, err_msg=name)
        assert math.isclose(packed.bias, per_hit.bias, rel_tol=1e-9)


# --- objective and gradient ------------------------------------------------------


def test_label_swap_with_negated_weights_preserves_objective(config):
    rng = np.random.default_rng(1)
    model = DiscriminatorModel(config, rng.normal(size=N_DENSE),
                               rng.normal(size=config.d_hash), -0.2)
    negated = DiscriminatorModel(config, -model.dense_w, -model.sparse_w, -model.bias)
    H, G = _separable_sets(n=10, seed=6)
    n_H, n_G = len(prefixes(H)), len(prefixes(G))
    assert math.isclose(eq2_objective(model, prefix_features(H + G, config), n_H),
                        eq2_objective(negated, prefix_features(G + H, config), n_G),
                        abs_tol=1e-12)


def test_gradient_matches_central_differences(config):
    H, G = _separable_sets(n=8, seed=7)
    batch, n_H = prefix_features(H + G, config), len(prefixes(H))
    rng = np.random.default_rng(2)
    eps = 1e-6
    for _ in range(3):
        model = DiscriminatorModel(config, rng.normal(size=N_DENSE) * 0.5,
                                   rng.normal(size=config.d_hash) * 0.5,
                                   float(rng.normal()) * 0.5)
        g_dense, g_sparse, g_bias = eq2_gradient(model, batch, n_H)
        for i in range(N_DENSE):
            model.dense_w[i] += eps
            hi = eq2_objective(model, batch, n_H)
            model.dense_w[i] -= 2 * eps
            lo = eq2_objective(model, batch, n_H)
            model.dense_w[i] += eps
            num = (hi - lo) / (2 * eps)
            assert abs(num - g_dense[i]) <= 1e-4 * max(1.0, abs(num))
        for i in batch.columns.tolist():  # the hashed indices the batch hits
            model.sparse_w[i] += eps
            hi = eq2_objective(model, batch, n_H)
            model.sparse_w[i] -= 2 * eps
            lo = eq2_objective(model, batch, n_H)
            model.sparse_w[i] += eps
            num = (hi - lo) / (2 * eps)
            assert abs(num - g_sparse[i]) <= 1e-4 * max(1.0, abs(num))
        model.bias += eps
        hi = eq2_objective(model, batch, n_H)
        model.bias -= 2 * eps
        lo = eq2_objective(model, batch, n_H)
        model.bias += eps
        num = (hi - lo) / (2 * eps)
        assert abs(num - g_bias) <= 1e-4 * max(1.0, abs(num))


# --- accuracy by length -----------------------------------------------------------


def test_accuracy_by_length_counts_every_prefix_of_both_sides(config):
    model = DiscriminatorModel.zeros(config)  # scores exactly 0.5 -> predicts 0
    H, G = _separable_sets(n=30, seed=8)
    n_H, n_G = len(prefixes(H)), len(prefixes(G))
    every_length = range(1, 5)  # the sequences are 1 to 4 tokens long

    def totals(H, G):
        _, right, n = map(sum, zip(*accuracy_by_length(model, H, G, every_length)))
        return right, n

    assert totals(H, G) == (n_G, n_H + n_G)
    assert totals([], iter(G)) == (n_G, n_G)
    assert totals(iter(H), []) == (0, n_H)
    assert accuracy_by_length(model, [], [], [1, 2]) == [(1, 0, 0), (2, 0, 0)]


def test_accuracy_by_length_perfect_model_and_empty_bucket(config):
    model = DiscriminatorModel.zeros(config)
    model.dense_w[1] = 50.0
    model.bias = -25.0  # threshold at overlap 0.5
    H, G = _separable_sets(n=30, seed=8)
    rows = accuracy_by_length(model, H, G, buckets=[1, 2, 3, 4, 99])
    by_t = {t: (right, n) for t, right, n in rows}
    for t in (1, 2, 3, 4):
        right, n = by_t[t]
        assert n > 0 and right == n
    assert by_t[99] == (0, 0)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data())
def test_accuracy_by_length_is_the_per_prefix_scores_bucketed(data):
    n_vocab = data.draw(st.integers(4, 10), label="n_vocab")
    config = data.draw(feature_configs(n_vocab), label="config")
    model = random_model(config, data.draw(st.integers(0, 99), label="model_seed"))
    H = sequence_runs(data, n_vocab, "H")
    G = sequence_runs(data, n_vocab, "G")
    # sequences are at most 10 tokens long, so 11, 12 and 99 are empty buckets
    buckets = sorted(data.draw(st.sets(st.integers(1, 12), min_size=1, max_size=5),
                               label="buckets") | {99})
    rows = accuracy_by_length(model, H, G, buckets)
    assert [t for t, _, _ in rows] == buckets and rows[-1] == (99, 0, 0)
    for t, right, n in rows:
        calls = [(model.score(source, prefix) > 0.5) == human
                 for seqs, human in ((H, True), (G, False))
                 for source, prefix in prefixes(seqs) if len(prefix) == t]
        assert (right, n) == (sum(calls), len(calls))
        assert type(right) is int and type(n) is int


def test_accuracy_by_length_random_model_near_chance(config):
    model = DiscriminatorModel.zeros(config)  # scores exactly 0.5 -> predicts 0
    H, G = _separable_sets(n=50, seed=9)
    rows = accuracy_by_length(model, H, G, buckets=[1, 2, 3, 4])
    for _, right, n in rows:
        if n:
            assert abs(right / n - 0.5) <= 0.15


# --- persistence -------------------------------------------------------------------


def test_model_save_load_roundtrip(tmp_path):
    vocab = make_vocab("a", "b", "c")
    corpus = make_corpus(vocab, [("p", ["a", "b"], ["a", "c"])])
    config = FeatureConfig.from_corpus(corpus, d_hash=128, t_max=60)
    H, G = build_prefix_sets(corpus, {"p": (4, 5)}, t_max=60)
    model = train_discriminator(H, G, config, epochs=2, seed=3)
    path = tmp_path / "disc.model"
    model.save(path)
    reloaded = DiscriminatorModel.load(path)
    for source, prefix in prefixes(H + G):
        assert math.isclose(reloaded.score(source, prefix), model.score(source, prefix),
                            abs_tol=1e-12)
    assert reloaded.final_objective == model.final_objective


@pytest.mark.parametrize("d_hash, t_max", [(0, 60), (128, 0)])
def test_feature_config_rejects_sizes_below_one(d_hash, t_max):
    with pytest.raises(DiscriminatorError, match="d_hash and t_max must be >= 1"):
        FeatureConfig(d_hash=d_hash, t_max=t_max)


def test_feature_config_caps_d_hash():
    assert D_HASH_MAX == 2 ** 24 and FeatureConfig(d_hash=D_HASH_MAX).d_hash == D_HASH_MAX
    with pytest.raises(DiscriminatorError, match=re.escape(
            f"d_hash must be at most 2**24 = {D_HASH_MAX}, got {D_HASH_MAX + 1}")):
        FeatureConfig(d_hash=D_HASH_MAX + 1)


@pytest.mark.parametrize("field, value, line", [
    ("bias", math.nan, 9), ("final_objective", -math.inf, 7), ("dense", math.nan, 10),
    ("sparse", math.inf, None), ("logfreq", math.nan, 8)])
def test_save_refuses_a_value_that_load_refuses(tmp_path, field, value, line):
    """write_model_file refuses a nan or infinite field, naming its line
    and the line's first field, before anything is written."""
    vocab = make_vocab("a", "b", "c")
    corpus = make_corpus(vocab, [("p", ["a", "b"], ["a", "c"])])
    config = FeatureConfig.from_corpus(corpus, d_hash=128, t_max=60)
    H, G = build_prefix_sets(corpus, {"p": (4, 5)}, t_max=60)
    model = train_discriminator(H, G, config, epochs=2, seed=3)
    if field in ("bias", "final_objective"):
        setattr(model, field, value)
    elif field == "logfreq":
        model.config = dataclasses.replace(config, logfreq=(*config.logfreq[:-1], value))
    else:
        getattr(model, f"{field}_w")[-1] = value
    if field == "sparse":  # the last index's line, after the 9 header lines
        line, key = 12 + sum(map(bool, model.sparse_w[:-1])), str(config.d_hash - 1)
    else:
        key = field
    path = tmp_path / "disc.model"
    with pytest.raises(DiscriminatorError, match=re.escape(
            f"not writing model file {path}: line {line} ({key} ...) holds {value}, not a "
            f"finite number")):
        model.save(path)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("old, new, problem", [
    ("", "-2 0.5\n", "sparse index -2 is outside [0, 128)"),
    ("", "128 0.5\n", "sparse index 128 is outside [0, 128)"),
    ("d_hash 128\n", "d_hash 0\n", "d_hash and t_max must be >= 1, got 0 and 60"),
    ("t_max 60\n", "t_max 0\n", "d_hash and t_max must be >= 1, got 128 and 0"),
    ("d_hash 128\n", f"d_hash {D_HASH_MAX + 1}\n",
     f"d_hash must be at most 2**24 = {D_HASH_MAX}, got {D_HASH_MAX + 1}"),
])
def test_model_load_rejects_out_of_range_content(tmp_path, old, new, problem):
    vocab = make_vocab("a", "b", "c")
    corpus = make_corpus(vocab, [("p", ["a", "b"], ["a", "c"])])
    config = FeatureConfig.from_corpus(corpus, d_hash=128, t_max=60)
    H, G = build_prefix_sets(corpus, {"p": (4, 5)}, t_max=60)
    path = tmp_path / "disc.model"
    train_discriminator(H, G, config, epochs=2, seed=3).save(path)
    text = path.read_text()
    path.write_text(reframed(text.replace(old, new) if old else text + new))
    with pytest.raises(DiscriminatorError,
                       match=re.escape(f"discriminator model file {path}: {problem}")):
        DiscriminatorModel.load(path)


@pytest.mark.parametrize("edit, problem", [
    (lambda t: t.replace("use_source 1\nt_max 60\n", "t_max 60\nuse_source 1\n"),
     "no 'use_source' line where one belongs"),
    (lambda t: t.replace("use_source 1\n", "use_source 2\n"), "use_source must be 0 or 1, got '2'"),
    (lambda t: re.sub(r"\nbias \S+\n", "\nbias nan\n", t), "not a finite number: 'nan'"),
    (lambda t: re.sub(r"\nfinal_objective \S+\n", "\nfinal_objective -inf\n", t),
     "not a finite number: '-inf'"),
    (lambda t: re.sub(r"(\nprovenance .*\n)", r"\g<1>3 inf\n", t),
     "line 12: '3 inf': not a finite number: 'inf'"),
    (lambda t: re.sub(r"(\nprovenance .*\n)", r"\g<1>3\n", t),
     "line 12: '3': not enough values to unpack (expected 2, got 1)"),
    (lambda t: re.sub(r"\ndense \S+", "\ndense nan", t), "not a finite number: 'nan'"),
    (lambda t: re.sub(r"\ndense \S+ ", "\ndense ", t),
     f"{N_DENSE - 1} dense weights, not {N_DENSE}"),
    (lambda t: re.sub(r"\nvocab_hash (\S+)\n", r"\nvocab_hash \1 \1\n", t),
     "the 'vocab_hash' line holds 2 values, not 0 or 1"),
    (lambda t: re.sub(r"\nprovenance ", "\nprovenance epochs ", t),
     "provenance entry 'epochs' is not key=value"),
    (lambda t: re.sub(r"\nprovenance .*\n", "\n", t), "no 'provenance' line where one belongs"),
], ids=["swapped", "use-source-2", "bias-nan", "objective-inf", "sparse-inf", "sparse-one-field",
        "dense-nan", "dense-short", "vocab-hash-two", "provenance-entry", "provenance-missing"])
def test_model_load_checks_each_header_line_by_key(tmp_path, edit, problem):
    vocab = make_vocab("a", "b", "c")
    corpus = make_corpus(vocab, [("p", ["a", "b"], ["a", "c"])])
    config = FeatureConfig.from_corpus(corpus, d_hash=128, t_max=60)
    H, G = build_prefix_sets(corpus, {"p": (4, 5)}, t_max=60)
    path = tmp_path / "disc.model"
    train_discriminator(H, G, config, epochs=2, seed=3).save(path)
    text = path.read_text()
    assert edit(text) != text
    path.write_text(reframed(edit(text)))
    with pytest.raises(DiscriminatorError, match=re.escape(
            f"truncated or malformed discriminator model file: {path}: {problem}")):
        DiscriminatorModel.load(path)


def test_model_load_rejects_a_repeated_sparse_index(tmp_path):
    vocab = make_vocab("a", "b", "c")
    corpus = make_corpus(vocab, [("p", ["a", "b"], ["a", "c"])])
    config = FeatureConfig.from_corpus(corpus, d_hash=128, t_max=60)
    H, G = build_prefix_sets(corpus, {"p": (4, 5)}, t_max=60)
    path = tmp_path / "disc.model"
    train_discriminator(H, G, config, epochs=2, seed=3).save(path)
    text = path.read_text()
    lines = text.splitlines(keepends=True)
    # the first body line: below the count-and-digest line 2, an `index weight` line
    first = next(n for n, line in enumerate(lines, start=1) if n > 2 and line[0].isdigit())
    index = lines[first - 1].split()[0]
    path.write_text(reframed(text + f"{index} 5.0\n"))
    with pytest.raises(DiscriminatorError, match=re.escape(
            f"truncated or malformed discriminator model file: {path}: line {len(lines) + 1}: "
            f"'{index} 5.0' repeats the key of line {first}")):
        DiscriminatorModel.load(path)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_save_load_save_is_byte_identical_and_scores_the_same(data):
    """A model file read back writes the same bytes, whether its weights are
    numpy arrays or array('d'), and loads as array('d') that scores alike."""
    n_vocab = 7  # ids 3..6 are tokens
    weights = st.floats(-30.0, 30.0)
    d_hash = data.draw(st.integers(1, 64), label="d_hash")
    logfreq = data.draw(st.one_of(st.just(()), st.tuples(*[st.floats(-20.0, 0.0)] * n_vocab)),
                        label="logfreq")
    config = FeatureConfig(d_hash=d_hash, use_source=data.draw(st.booleans(), label="use_source"),
                           t_max=data.draw(st.integers(1, 30), label="t_max"), logfreq=logfreq,
                           vocab_hash=data.draw(st.sampled_from(["", "0123456789abcdef"]),
                                                label="vocab_hash"))
    provenance = data.draw(st.dictionaries(
        st.sampled_from(["train_sha256", "epochs", "learning_rate"]),
        st.from_regex(r"[0-9a-f.]{1,12}", fullmatch=True)), label="provenance")
    sparse = np.zeros(d_hash)
    for i, w in data.draw(st.dictionaries(st.integers(0, d_hash - 1), weights, max_size=12),
                          label="sparse").items():
        sparse[i] = w
    model = DiscriminatorModel(
        config, np.array(data.draw(st.lists(weights, min_size=N_DENSE, max_size=N_DENSE),
                                   label="dense")),
        sparse, data.draw(weights, label="bias"),
        final_objective=data.draw(st.floats(-1e3, 0.0), label="final_objective"),
        provenance=provenance)
    # the same weights as array('d'), the form load and training give
    doubles = DiscriminatorModel(config, array("d", model.dense_w), array("d", model.sparse_w),
                                 model.bias, final_objective=model.final_objective,
                                 provenance=provenance)
    with tempfile.TemporaryDirectory() as tmp:
        first, second, third = (Path(tmp, f"{name}.model") for name in ("first", "second", "third"))
        model.save(first)
        loaded = DiscriminatorModel.load(first)
        loaded.save(second)
        assert second.read_bytes() == first.read_bytes()
        doubles.save(third)
        assert third.read_bytes() == first.read_bytes()
    assert isinstance(loaded.dense_w, array) and isinstance(loaded.sparse_w, array)
    assert list(loaded.sparse_w) == model.sparse_w.tolist()  # -0.0 is not written
    assert loaded.config == config and loaded.final_objective == model.final_objective
    assert loaded.provenance == provenance
    tokens = st.lists(st.integers(3, n_vocab - 1), min_size=1, max_size=8)
    for source, prefix in data.draw(st.lists(st.tuples(tokens, tokens), min_size=1, max_size=5),
                                    label="source, prefix"):
        assert loaded.score(source, prefix).hex() == model.score(source, prefix).hex()


TRAIN_AND_SAVE = """
import sys
from dasearch.corpus import generate_synthetic_corpus
from dasearch.decoder import SearchConfig, hypothesis_content, plain_beam_search
from dasearch.discriminator import FeatureConfig, build_prefix_sets, train_discriminator
from dasearch.generator import train_generator

corpus = generate_synthetic_corpus(3, 40)
generator = train_generator(corpus, lambda_copy=0.75)
search = SearchConfig(beam_size=2, k_rerank=4, t_max=30)
gens = {p.id: hypothesis_content(plain_beam_search(generator, p.source, search)[0])
        for p in corpus.pairs}
H, G = build_prefix_sets(corpus, gens, t_max=30)
config = FeatureConfig.from_corpus(corpus, d_hash=4096, t_max=30)
train_discriminator(H, G, config, epochs=3, seed=5).save(sys.argv[1])
"""


def test_model_files_do_not_depend_on_the_blas_kernel(tmp_path):
    """The same training under OpenBLAS's Prescott kernel and under the
    default one writes the same bytes: no weight or objective goes through a
    BLAS dot product."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    env.pop("OPENBLAS_CORETYPE", None)
    models = []
    for kernel in ("Prescott", None):
        path = tmp_path / f"{kernel}.model"
        run_env = dict(env, OPENBLAS_CORETYPE=kernel) if kernel else env
        subprocess.run([sys.executable, "-c", TRAIN_AND_SAVE, str(path)], env=run_env,
                       check=True, timeout=300)
        models.append(path.read_bytes())
    assert models[0] == models[1]


def test_sigmoid_is_stable_at_extremes():
    assert _sigmoid(1000.0) == 1.0
    assert _sigmoid(-1000.0) == 0.0
    assert _sigmoid(0.0) == 0.5
