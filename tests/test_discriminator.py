import math
import random

import numpy as np
import pytest

from dasearch.corpus import Vocabulary
from dasearch.discriminator import (
    DiscriminatorError,
    DiscriminatorModel,
    FeatureConfig,
    N_DENSE,
    PrefixExample,
    _sigmoid,
    accuracy,
    accuracy_by_length,
    build_prefix_sets,
    eq2_gradient,
    eq2_objective,
    extract_features,
    train_discriminator,
)

from conftest import make_corpus, make_vocab

EOS = Vocabulary.eos


@pytest.fixture
def config():
    return FeatureConfig(d_hash=256, t_max=140)


def _separable_sets(n=40, seed=0):
    """Human prefixes overlap the source fully, generated ones not at all."""
    rng = random.Random(seed)
    source = (3, 4, 5, 6)
    H, G = [], []
    for _ in range(n):
        t = rng.randint(1, 4)
        H.append(PrefixExample(source, tuple(rng.choice(source) for _ in range(t)), 1, t))
        G.append(PrefixExample(source, tuple(rng.choice((7, 8, 9)) for _ in range(t)), 0, t))
    return H, G


# --- prefix sets ----------------------------------------------------------------


def test_prefix_sets_one_example_per_prefix_length():
    vocab = make_vocab("a", "b", "c")
    corpus = make_corpus(vocab, [("p", ["a", "b"], ["a", "b", "c"])])
    H, G = build_prefix_sets(corpus, {"p": (3, 4)})
    assert len(H) == 3 and len(G) == 2
    assert [ex.prefix for ex in H] == [(3,), (3, 4), (3, 4, 5)]
    assert all(ex.label == 1 for ex in H) and all(ex.label == 0 for ex in G)


def test_prefix_sets_truncate_long_references_at_t_max():
    vocab = make_vocab("a", "b")
    ref = ["a", "b"] * 100  # 200 tokens
    corpus = make_corpus(vocab, [("p", ["a"], ref)])
    H, _ = build_prefix_sets(corpus, {"p": (3,)}, t_max=140)
    assert len(H) == 140


def test_prefix_sets_require_generations():
    vocab = make_vocab("a")
    corpus = make_corpus(vocab, [("p", ["a"], ["a"])])
    with pytest.raises(DiscriminatorError, match="missing"):
        build_prefix_sets(corpus, {})
    with pytest.raises(DiscriminatorError, match="empty"):
        build_prefix_sets(corpus, {"p": ()})


# --- features -------------------------------------------------------------------


def test_repetition_dense_feature_is_duplicated_mass_fraction(config):
    fv = extract_features((3, 4), (5, 5, 5), config)
    assert math.isclose(fv.dense[2], 2 / 3, abs_tol=1e-12)


def test_source_overlap_feature(config):
    fv = extract_features((3, 4), (3, 7), config)
    assert fv.dense[1] == 0.5


def test_use_source_false_zeroes_source_features():
    config = FeatureConfig(d_hash=256, use_source=False)
    fv = extract_features((3, 4), (3, 4), config)
    assert fv.dense[1] == 0.0


def test_relative_length_and_eos_flag(config):
    fv = extract_features((3,), (3, 4, 5), config)
    assert math.isclose(fv.dense[0], 3 / config.t_max, abs_tol=1e-12)
    assert fv.dense[6] == 0.0
    fv_end = extract_features((3,), (3, EOS), config)
    assert fv_end.dense[6] == 1.0


def test_feature_extraction_deterministic(config):
    a = extract_features((3, 4, 5), (3, 5, 7), config)
    b = extract_features((3, 4, 5), (3, 5, 7), config)
    assert np.array_equal(a.dense, b.dense)
    assert np.array_equal(a.sparse_idx, b.sparse_idx)
    assert np.array_equal(a.sparse_val, b.sparse_val)


def test_empty_prefix_rejected(config):
    with pytest.raises(DiscriminatorError):
        extract_features((3,), (), config)


def test_background_logfreq_feature_uses_reference_counts():
    vocab = make_vocab("a", "b")
    corpus = make_corpus(vocab, [("p", ["a"], ["a", "a", "b"])])
    config = FeatureConfig.from_corpus(corpus, d_hash=64)
    counts = np.ones(len(vocab))
    counts[3] += 2
    counts[4] += 1
    expected = np.log(counts / counts.sum())
    fv = extract_features((3,), (3, 4), config)
    assert math.isclose(fv.dense[5], (expected[3] + expected[4]) / 2, abs_tol=1e-12)


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
    fv = extract_features((3, 4, 5), (3, 9, 3, EOS), config)
    z = 0.3 + float(np.dot(model.dense_w, fv.dense))
    z += float(np.sum(model.sparse_w[fv.sparse_idx] * fv.sparse_val))
    assert math.isclose(model.score_features(fv), 1.0 / (1.0 + math.exp(-z)),
                        abs_tol=1e-12)


# --- training -------------------------------------------------------------------


def test_training_separates_linearly_separable_sets(config):
    H, G = _separable_sets(n=40, seed=0)
    model = train_discriminator(H, G, config, epochs=5, seed=1)
    H_eval, G_eval = _separable_sets(n=30, seed=9)
    hits = sum((model.score(ex.source, ex.prefix) > 0.5) == bool(ex.label)
               for ex in H_eval + G_eval)
    assert hits / 60 >= 0.95


def test_identical_sets_stay_at_chance(config):
    H, _ = _separable_sets(n=30, seed=2)
    G = [PrefixExample(ex.source, ex.prefix, 0, ex.t) for ex in H]
    model = train_discriminator(H, G, config, epochs=5, seed=1)
    hits = sum((model.score(ex.source, ex.prefix) > 0.5) == bool(ex.label)
               for ex in H + G)
    assert abs(hits / len(H + G) - 0.5) <= 0.05


def test_objective_non_decreasing_with_decaying_steps(config):
    H, G = _separable_sets(n=40, seed=3)
    model = train_discriminator(H, G, config, epochs=8, learning_rate=0.5, seed=1)
    history = model.objective_history
    assert len(history) == 8
    assert all(b >= a - 1e-3 for a, b in zip(history, history[1:]))
    assert model.final_objective == history[-1]


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


def test_class_ratio_reweights_generated_side(config):
    H, G = _separable_sets(n=20, seed=4)
    balanced = train_discriminator(H, G, config, epochs=2, seed=1)
    skewed = train_discriminator(H, G, config, epochs=2, seed=1, ratio=5.0)
    assert not np.array_equal(balanced.dense_w, skewed.dense_w)
    # heavier weight on log(1 - D) pushes scores down
    probe = extract_features(H[0].source, H[0].prefix, config)
    assert skewed.score_features(probe) < balanced.score_features(probe)


def test_warm_start_initialization_is_used(config):
    H, G = _separable_sets(n=20, seed=5)
    base = train_discriminator(H, G, config, epochs=2, seed=1)
    resumed = train_discriminator(H, G, config, epochs=1, seed=2, init=base)
    fresh = train_discriminator(H, G, config, epochs=1, seed=2)
    assert not np.array_equal(resumed.dense_w, fresh.dense_w)


# --- objective and gradient ------------------------------------------------------


def test_label_swap_with_negated_weights_preserves_objective(config):
    rng = np.random.default_rng(1)
    model = DiscriminatorModel(config, rng.normal(size=N_DENSE),
                               rng.normal(size=config.d_hash), -0.2)
    negated = DiscriminatorModel(config, -model.dense_w, -model.sparse_w, -model.bias)
    H, G = _separable_sets(n=10, seed=6)
    feats_H = [extract_features(ex.source, ex.prefix, config) for ex in H]
    feats_G = [extract_features(ex.source, ex.prefix, config) for ex in G]
    assert math.isclose(eq2_objective(model, feats_H, feats_G),
                        eq2_objective(negated, feats_G, feats_H), abs_tol=1e-12)


def test_gradient_matches_central_differences(config):
    H, G = _separable_sets(n=8, seed=7)
    feats_H = [extract_features(ex.source, ex.prefix, config) for ex in H]
    feats_G = [extract_features(ex.source, ex.prefix, config) for ex in G]
    rng = np.random.default_rng(2)
    eps = 1e-6
    for _ in range(3):
        model = DiscriminatorModel(config, rng.normal(size=N_DENSE) * 0.5,
                                   rng.normal(size=config.d_hash) * 0.5,
                                   float(rng.normal()) * 0.5)
        g_dense, g_sparse, g_bias = eq2_gradient(model, feats_H, feats_G)
        active = set(np.concatenate([fv.sparse_idx for fv in feats_H + feats_G]).tolist())
        for i in range(N_DENSE):
            model.dense_w[i] += eps
            hi = eq2_objective(model, feats_H, feats_G)
            model.dense_w[i] -= 2 * eps
            lo = eq2_objective(model, feats_H, feats_G)
            model.dense_w[i] += eps
            num = (hi - lo) / (2 * eps)
            assert abs(num - g_dense[i]) <= 1e-4 * max(1.0, abs(num))
        for i in sorted(active)[:5]:
            model.sparse_w[i] += eps
            hi = eq2_objective(model, feats_H, feats_G)
            model.sparse_w[i] -= 2 * eps
            lo = eq2_objective(model, feats_H, feats_G)
            model.sparse_w[i] += eps
            num = (hi - lo) / (2 * eps)
            assert abs(num - g_sparse[i]) <= 1e-4 * max(1.0, abs(num))
        model.bias += eps
        hi = eq2_objective(model, feats_H, feats_G)
        model.bias -= 2 * eps
        lo = eq2_objective(model, feats_H, feats_G)
        model.bias += eps
        num = (hi - lo) / (2 * eps)
        assert abs(num - g_bias) <= 1e-4 * max(1.0, abs(num))


# --- accuracy by length -----------------------------------------------------------


def test_accuracy_is_hits_over_examples(config):
    model = DiscriminatorModel.zeros(config)  # scores exactly 0.5 -> predicts 0
    H, G = _separable_sets(n=30, seed=8)
    assert accuracy(model, H + G) == len(G) / (len(H) + len(G))
    assert accuracy(model, iter(G)) == 1.0
    assert accuracy(model, H) == 0.0


def test_accuracy_by_length_perfect_model_and_empty_bucket(config):
    model = DiscriminatorModel.zeros(config)
    model.dense_w[1] = 50.0
    model.bias = -25.0  # threshold at overlap 0.5
    H, G = _separable_sets(n=30, seed=8)
    rows = accuracy_by_length(model, H, G, buckets=[1, 2, 3, 4, 99])
    by_t = {t: (acc, n) for t, acc, n in rows}
    for t in (1, 2, 3, 4):
        assert by_t[t][0] == 1.0
    assert by_t[99] == (None, 0)


def test_accuracy_by_length_random_model_near_chance(config):
    model = DiscriminatorModel.zeros(config)  # scores exactly 0.5 -> predicts 0
    H, G = _separable_sets(n=50, seed=9)
    rows = accuracy_by_length(model, H, G, buckets=[1, 2, 3, 4])
    for _, acc, n in rows:
        if n:
            assert abs(acc - 0.5) <= 0.15


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
    for ex in H + G:
        assert math.isclose(reloaded.score(ex.source, ex.prefix),
                            model.score(ex.source, ex.prefix), abs_tol=1e-12)
    assert reloaded.final_objective == model.final_objective


def test_sigmoid_is_stable_at_extremes():
    assert _sigmoid(1000.0) == 1.0
    assert _sigmoid(-1000.0) == 0.0
    assert _sigmoid(0.0) == 0.5
