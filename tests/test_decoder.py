import concurrent.futures
import functools
import hashlib
import itertools
import logging
import math
import os
import pickle
import random
import re
from collections import Counter

from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dasearch import decoder, generator as generator_module
from dasearch.corpus import Corpus, Vocabulary, generate_synthetic_corpus
from dasearch.decoder import (
    EPS_DIS,
    DecoderError,
    Hypothesis,
    SearchConfig,
    _blocked,
    _expansion,
    _extend_block_index,
    _final_sort,
    _settled,
    apply_das_score,
    das_beam_search,
    decode_corpus,
    hypothesis_content,
    length_penalty,
    plain_beam_search,
)
from dasearch.discriminator import (DiscriminatorModel, FeatureConfig, N_DENSE,
                                    PrefixFeaturizer, PrefixState)
from dasearch.generator import train_generator
from dasearch.selftrain import bootstrap, DiscriminatorHparams

from conftest import (_blocked_tokens, exhaustive_oracle, make_corpus, make_vocab,
                      reference_search, row_probs, s_gen_extend, sequence_logprob)

SOS, EOS = Vocabulary.sos, Vocabulary.eos


def random_discriminator(config, seed=0, scale=0.1, offset=0.0):
    """Weights drawn from N(0, scale^2); `offset` is added to the bias."""
    rng = np.random.default_rng(seed)
    return DiscriminatorModel(config, rng.normal(size=N_DENSE) * scale,
                              rng.normal(size=config.d_hash) * scale,
                              float(rng.normal()) * scale + offset)


@pytest.fixture(scope="module")
def trained_disc(synth_corpus, synth_generator):
    search = SearchConfig(beam_size=3, k_rerank=10, alpha=1.0, t_max=60)
    hparams = DiscriminatorHparams(epochs=3, seed=0)
    return bootstrap(synth_corpus, synth_generator, hparams, search).discriminator


# --- hypothesis operations ------------------------------------------------------


def test_extend_accumulates_score():
    h = Hypothesis(tokens=(SOS,), s_gen=-1.0)
    out = s_gen_extend(h, 3, -0.5)
    assert out.s_gen == -1.5
    assert out.tokens == (SOS, 3)
    assert out.s_dis is None and out.s_das is None


def test_extend_with_eos_ends_hypothesis():
    h = s_gen_extend(Hypothesis(tokens=(SOS,), s_gen=0.0), EOS, -0.1)
    assert h.ended
    with pytest.raises(DecoderError):
        s_gen_extend(h, 3, -0.1)


def test_das_score_arithmetic():
    s_dis, s_das = apply_das_score(-2.0, alpha=1.0, dis_prob=0.5)
    assert math.isclose(s_das, -2.0 + math.log(0.5), abs_tol=1e-12)
    assert math.isclose(s_dis, math.log(0.5), abs_tol=1e-12)


def test_das_score_alpha_zero_recovers_generator_score():
    assert apply_das_score(-2.0, alpha=0.0, dis_prob=0.01)[1] == -2.0


def test_alpha_scales_discriminator_term_linearly():
    s_gen = -1.0
    lift5 = apply_das_score(s_gen, 5.0, 0.3)[1] - s_gen
    lift_half = apply_das_score(s_gen, 0.5, 0.3)[1] - s_gen
    assert math.isclose(lift5, 10.0 * lift_half, abs_tol=1e-12)


def test_zero_probability_clamped_and_flagged(caplog):
    with caplog.at_level(logging.WARNING, logger="dasearch.decoder"):
        s_dis, _ = apply_das_score(-1.0, 1.0, 0.0)
    assert math.isclose(s_dis, math.log(1e-9), abs_tol=1e-12)
    assert not caplog.records  # the search that clamped says so, once


def test_one_clamp_warning_per_search_that_clamped(synth_corpus, synth_generator, monkeypatch,
                                                   caplog):
    from dasearch import decoder

    calls = []
    monkeypatch.setattr(decoder, "apply_das_score",
                        lambda s_gen, alpha, p: calls.append(p) or apply_das_score(s_gen, alpha, p))
    disc = DiscriminatorModel.zeros(FeatureConfig(d_hash=64, t_max=20))
    config = SearchConfig(beam_size=2, k_rerank=4, t_max=20)
    sources = [p.source for p in synth_corpus.pairs[:3]]
    for bias, clamping in ((0.0, 0), (-50.0, 3)):  # D = 0.5 everywhere, then D < EPS_DIS
        disc.bias = bias
        calls.clear()
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="dasearch.decoder"):
            for source in sources:
                das_beam_search(synth_generator, disc, source, config)
        assert len(caplog.records) == clamping
        # each line counts what the module-level scorer was asked to clamp
        assert sum(rec.args[0] for rec in caplog.records) == sum(p < EPS_DIS for p in calls)
        assert all(rec.getMessage() == f"{rec.args[0]} discriminator probabilities clamped "
                   "to 1e-09 in one search" for rec in caplog.records)


@pytest.mark.parametrize("beam_size", [1, 2, 3])
def test_a_pool_as_large_as_the_beam_asks_the_discriminator_only_about_eos(
        monkeypatch, caplog, beam_size):
    """At k_rerank = beam_size every pool survives whole, so the search calls
    apply_das_score only for its EOS candidates and forced EOS, each after
    one scored score_next: as often as the reference search, which scores
    every candidate, scores an EOS one. Each search's WARNING counts their
    clamps. References of one to three tokens put EOS candidates in the
    pools, not only forced EOS at t_max."""
    calls, asked = [], []
    monkeypatch.setattr(decoder, "apply_das_score",
                        lambda s_gen, alpha, p: calls.append(p) or apply_das_score(s_gen, alpha, p))
    score_next = PrefixFeaturizer.score_next
    monkeypatch.setattr(PrefixFeaturizer, "score_next", lambda self, state, token, scored=True: (
        asked.append((token, scored)) or score_next(self, state, token, scored)))
    vocab = make_vocab("a", "b", "c")
    corpus = make_corpus(vocab, [("r0", ["a", "b"], ["a"]), ("r1", ["b", "c"], ["b", "c"]),
                                 ("r2", ["c"], ["c", "a", "b"])])
    generator = train_generator(corpus, order=2, lambda_copy=0.25)
    config = SearchConfig(beam_size=beam_size, k_rerank=beam_size, t_max=8)
    disc = random_discriminator(FeatureConfig.from_corpus(corpus, d_hash=64, t_max=8), seed=1,
                                scale=0.5)
    eos_candidates = 0
    for bias in (disc.bias, -50.0):  # at -50 every D is clamped
        disc.bias = bias
        for source in [p.source for p in corpus.pairs] + [vocab.encode(["a", "c"])]:
            calls.clear()
            asked.clear()
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="dasearch.decoder"):
                beam = das_beam_search(generator, disc, source, config)
            assert [token for token, scored in asked if scored] == [EOS] * len(calls)
            eos_candidates += len(calls) - sum(h.truncated for h in beam)
            clamped = sum(p < EPS_DIS for p in calls)
            assert [rec.args[0] for rec in caplog.records] == ([clamped] if clamped else [])
            if bias == -50.0:
                assert clamped == len(calls)
            asked.clear()
            assert beam_bits(beam) == beam_bits(reference_search(generator, disc, source, config))
            assert asked.count((EOS, True)) == len(calls)
    assert eos_candidates > 0


# --- rules ------------------------------------------------------------------------


def test_trigram_block_rejects_repeat():
    h = Hypothesis(tokens=(SOS, 3, 4, 5, 3, 4), s_gen=-1.0)
    assert 5 in _blocked_tokens(h)
    assert 6 not in _blocked_tokens(h)


def test_trigram_block_allows_short_prefixes():
    h = Hypothesis(tokens=(SOS, 3, 4), s_gen=-1.0)
    assert _blocked_tokens(h) == set()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_carried_block_index_equals_the_rescan(data):
    content = st.integers(3, 5)  # three tokens, so bigrams and trigrams repeat
    trunk = data.draw(st.lists(content, max_size=20), label="trunk")
    branches = data.draw(st.lists(st.lists(content, max_size=12), min_size=1, max_size=3),
                         label="branches")

    def extend(index, tokens, more):
        for token in more:
            _extend_block_index(index, tokens, token)
            tokens += (token,)
            assert _blocked(index, tokens) == _blocked_tokens(Hypothesis(tokens, 0.0))
        return tokens

    index = {}
    tokens = extend(index, (SOS,), trunk)
    # siblings as the search makes them: all but the last copy the parent's
    # index, then the last takes it over
    own = [index.copy() for _ in branches[:-1]] + [index]
    for branch_index, branch in zip(own, branches):
        extend(branch_index, tokens, branch)


def test_length_penalty_values():
    assert length_penalty(10, 0.0) == 1.0
    assert length_penalty(1, 0.6) == 1.0
    assert math.isclose(length_penalty(13, 0.6), 3.0 ** 0.6, abs_tol=1e-3)
    with pytest.raises(DecoderError):
        length_penalty(0, 0.6)


def test_trigram_block_rule_removes_repeats_from_outputs(synth_corpus, synth_generator):
    config = SearchConfig(beam_size=3, k_rerank=3, t_max=60,
                          block_repeated_trigrams=True)
    for p in synth_corpus.pairs[:10]:
        best = plain_beam_search(synth_generator, p.source, config)[0]
        content = best.tokens[1:]
        grams = [content[i:i + 3] for i in range(len(content) - 2)]
        assert len(set(grams)) == len(grams)


# --- expansion memo ------------------------------------------------------------------


def fresh_expansion(blank, source, tokens, blocked, k):
    """The k best next tokens after `tokens` as the search ranks them, from a
    generator with nothing cached, unpickled from `blank`: (token, logp bits),
    finite ones only, ranked by numpy's stable argsort of the probabilities."""
    p = row_probs(pickle.loads(blank), source, tokens)
    p[list(blocked)] = -1.0  # below every probability, and dropped with the zeros
    return [(int(tok), math.log(p[tok]).hex())
            for tok in np.argsort(-p, kind="stable")[:k] if p[tok] > 0.0]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_memoised_expansion_equals_the_fresh_one(data):
    vocab = make_vocab("a", "b", "c", "d", "e")
    nv = len(vocab)
    refs = data.draw(st.lists(st.lists(st.sampled_from("abcde"), min_size=1, max_size=6),
                              min_size=1, max_size=5), label="references")
    corpus = make_corpus(vocab, [(f"r{i}", ["a"], ref) for i, ref in enumerate(refs)])
    order = data.draw(st.integers(1, 3), label="order")
    lambda_copy = data.draw(st.sampled_from([0.0, 0.75]), label="lambda_copy")
    source = data.draw(st.lists(st.integers(2, nv - 1), min_size=1, max_size=8),
                       label="source")
    k = data.draw(st.integers(1, nv), label="k")
    queries = data.draw(st.lists(
        st.tuples(st.lists(st.integers(2, nv - 1), max_size=6),
                  st.frozensets(st.integers(0, nv - 1), max_size=3)),
        min_size=1, max_size=40), label="queries")
    generator = train_generator(corpus, order=order, lambda_copy=lambda_copy)
    blank = pickle.dumps(generator)
    expand, _ = _expansion(generator, tuple(source), k)
    for content, blocked in queries:
        tokens = (SOS, *content)
        got = [(tok, val.hex()) for tok, val in expand(tokens, blocked)]
        assert got == fresh_expansion(blank, source, tokens, blocked, k)


# --- configuration ------------------------------------------------------------------


def test_search_config_validation():
    with pytest.raises(DecoderError):
        SearchConfig(beam_size=5, k_rerank=3)
    with pytest.raises(DecoderError):
        SearchConfig(alpha=-0.1)
    with pytest.raises(DecoderError):
        SearchConfig(t_max=0)
    for value in (math.nan, math.inf):
        with pytest.raises(DecoderError, match="alpha must be"):
            SearchConfig(alpha=value)
        with pytest.raises(DecoderError, match="length_penalty_beta must be finite"):
            SearchConfig(length_penalty_beta=value)


@pytest.mark.parametrize("beta, t_max, divisor", [
    (400.0, 140, "nan"),     # 146.0 ** 400 overflows
    (-400.0, 140, "0.0"),    # 146.0 ** -400 underflows to 0
    (-1000.0, 1, "nan"),     # 6.0 ** -1000 is 0, and the divisor divides by it
    (200.0, 140, "nan"),     # 146.0 ** 200 overflows, where 7.0 ** 200 does not
])
def test_search_config_refuses_a_beta_whose_length_penalty_breaks_the_final_sort(
        beta, t_max, divisor):
    with pytest.raises(DecoderError, match=re.escape(
            f"length_penalty_beta {beta} with t_max {t_max} gives a {t_max + 1}-token output "
            f"the length penalty {divisor}, not a finite nonzero number")):
        SearchConfig(t_max=t_max, length_penalty_beta=beta)
    # the penalty's numerator is monotone in the length, so t_max + 1 bounds it
    assert SearchConfig(t_max=1, length_penalty_beta=200.0).t_max == 1
    for ok in (0.6, -0.6, 50.0, -50.0):
        config = SearchConfig(length_penalty_beta=ok)
        for n in range(1, config.t_max + 2):
            assert 0.0 < length_penalty(n, ok) < math.inf


def test_search_requires_source_and_discriminator(synth_generator, trained_disc):
    config = SearchConfig(beam_size=2, k_rerank=4, t_max=20)
    with pytest.raises(DecoderError):
        plain_beam_search(synth_generator, [], config)
    with pytest.raises(DecoderError):
        das_beam_search(synth_generator, None, [3, 4], config)


# --- plain beam search ----------------------------------------------------------------


def test_greedy_equals_manual_argmax_walk(synth_corpus, synth_generator):
    config = SearchConfig(beam_size=1, k_rerank=1, alpha=0.0, t_max=60)
    for p in synth_corpus.pairs[:10]:
        best = plain_beam_search(synth_generator, p.source, config)[0]
        tokens = (SOS,)
        for _ in range(60):
            probs = row_probs(synth_generator, p.source, tokens)
            top = int(np.flatnonzero(probs == probs.max())[0])  # lowest id on ties
            tokens += (top,)
            if top == EOS:
                break
        if tokens[-1] != EOS:
            tokens += (EOS,)
        assert best.tokens == tokens


def test_returned_score_matches_sequence_logprob(synth_corpus, synth_generator):
    config = SearchConfig(beam_size=3, k_rerank=6, t_max=60)
    for p in synth_corpus.pairs[:10]:
        best = plain_beam_search(synth_generator, p.source, config)[0]
        assert math.isclose(
            best.s_gen,
            sequence_logprob(synth_generator, p.source, best.tokens[1:]),
            abs_tol=1e-9)


def test_wider_beam_never_scores_worse(synth_generator):
    corpus = generate_synthetic_corpus(11, 100)
    generator = train_generator(corpus, lambda_copy=0.75)
    narrow = SearchConfig(beam_size=1, k_rerank=1, t_max=60)
    wide = SearchConfig(beam_size=5, k_rerank=5, t_max=60)
    for p in corpus.pairs:
        b1 = plain_beam_search(generator, p.source, narrow)[0]
        b5 = plain_beam_search(generator, p.source, wide)[0]
        assert b5.s_gen >= b1.s_gen - 1e-12


def test_per_step_scores_non_increasing(synth_corpus, synth_generator):
    config = SearchConfig(beam_size=3, k_rerank=6, t_max=60)
    p = synth_corpus.pairs[1]
    best = plain_beam_search(synth_generator, p.source, config)[0]
    running, prefix = 0.0, (SOS,)
    for tok in best.tokens[1:]:
        step = float(synth_generator.next_logprobs(p.source, prefix)[tok])
        assert step <= 0.0
        running += step
        prefix += (tok,)
    assert math.isclose(running, best.s_gen, abs_tol=1e-9)


# --- fused search -----------------------------------------------------------------------


def test_alpha_zero_matches_plain_search(synth_corpus, synth_generator):
    plain_cfg = SearchConfig(beam_size=3, k_rerank=6, t_max=60)
    das_cfg = SearchConfig(beam_size=3, k_rerank=6, alpha=0.0, t_max=60)
    for p in synth_corpus.pairs[:20]:
        plain = plain_beam_search(synth_generator, p.source, plain_cfg)[0]
        fused = das_beam_search(synth_generator, None, p.source, das_cfg)[0]
        assert fused.tokens == plain.tokens
        assert fused.s_gen == plain.s_gen


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_a_search_that_does_not_rerank_is_plain_search(synth_corpus, synth_generator,
                                                       trained_disc, data):
    """A fused search at alpha = 0, with or without a discriminator, returns
    plain search's full beam bit for bit at any k_rerank from beam_size up,
    with trigram blocking on and off, a length penalty and a t_max cut."""
    beam_size = data.draw(st.integers(1, 5), label="beam_size")
    config = SearchConfig(
        beam_size=beam_size,
        k_rerank=beam_size + data.draw(st.integers(0, 7), label="k_rerank - beam_size"),
        alpha=0.0,
        t_max=data.draw(st.integers(1, 30), label="t_max"),
        length_penalty_beta=data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                                      label="length_penalty_beta"),
        block_repeated_trigrams=data.draw(st.booleans(), label="block_repeated_trigrams"))
    disc = data.draw(st.sampled_from([None, trained_disc]), label="discriminator")
    source = data.draw(st.sampled_from(synth_corpus.pairs), label="pair").source
    assert (beam_bits(das_beam_search(synth_generator, disc, source, config))
            == beam_bits(plain_beam_search(synth_generator, source, config)))


def test_k_rerank_one_is_greedy(synth_corpus, synth_generator, trained_disc):
    greedy_cfg = SearchConfig(beam_size=1, k_rerank=1, t_max=60)
    das_cfg = SearchConfig(beam_size=1, k_rerank=1, alpha=1.0, t_max=60)
    for p in synth_corpus.pairs[:20]:
        greedy = plain_beam_search(synth_generator, p.source, greedy_cfg)[0]
        fused = das_beam_search(synth_generator, trained_disc, p.source, das_cfg)[0]
        assert fused.tokens == greedy.tokens


def test_carried_prefix_states_score_as_whole_prefixes(synth_corpus, synth_generator,
                                                       trained_disc):
    config = SearchConfig(beam_size=3, k_rerank=10, alpha=1.0, t_max=60)
    for p in synth_corpus.pairs[:20]:
        for h in das_beam_search(synth_generator, trained_disc, p.source, config):
            whole = trained_disc.score(p.source, h.tokens[1:])
            assert h.s_dis == math.log(max(whole, EPS_DIS))


def test_each_search_scores_with_the_weights_as_they_are_now(synth_corpus, synth_generator):
    config = FeatureConfig.from_corpus(synth_corpus, d_hash=512, t_max=60)
    disc = random_discriminator(config, seed=4, scale=0.5)
    search = SearchConfig(beam_size=3, k_rerank=10, alpha=1.0, t_max=60)
    source = synth_corpus.pairs[0].source
    before = das_beam_search(synth_generator, disc, source, search)
    # every weight changed in place, on the arrays the model already holds
    disc.dense_w *= -3.0
    disc.sparse_w += np.random.default_rng(5).normal(size=config.d_hash)
    disc.bias += 0.25
    after = das_beam_search(synth_generator, disc, source, search)
    for h in after:
        assert h.s_dis == math.log(max(disc.score(source, h.tokens[1:]), EPS_DIS))
    # and the new weights score the first search's beam differently
    rescored = [math.log(max(disc.score(source, h.tokens[1:]), EPS_DIS)) for h in before]
    assert rescored != [h.s_dis for h in before]


def test_discriminator_changes_outputs(synth_corpus, synth_generator, trained_disc):
    plain_cfg = SearchConfig(beam_size=3, k_rerank=10, t_max=60)
    das_cfg = SearchConfig(beam_size=3, k_rerank=10, alpha=1.0, t_max=60)
    changed = 0
    for p in synth_corpus.pairs[:20]:
        plain = plain_beam_search(synth_generator, p.source, plain_cfg)[0]
        fused = das_beam_search(synth_generator, trained_disc, p.source, das_cfg)[0]
        changed += int(fused.tokens != plain.tokens)
    assert changed > 0


def test_results_always_end_with_eos(synth_corpus, synth_generator, trained_disc):
    config = SearchConfig(beam_size=2, k_rerank=5, alpha=1.0, t_max=8)
    for p in synth_corpus.pairs[:10]:
        for h in das_beam_search(synth_generator, trained_disc, p.source, config):
            assert h.ended and h.tokens[-1] == EOS
            assert len(h.tokens) - 1 <= 8 + 1  # content plus forced EOS


@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data())
def test_beam_invariants(synth_corpus, synth_generator, trained_disc, data):
    k_rerank = data.draw(st.integers(1, 8), label="k_rerank")
    config = SearchConfig(
        beam_size=data.draw(st.integers(1, k_rerank), label="beam_size"),
        k_rerank=k_rerank,
        alpha=data.draw(st.sampled_from([0.5, 1.0, 5.0]), label="alpha"),
        t_max=data.draw(st.integers(1, 30), label="t_max"),
        length_penalty_beta=data.draw(st.sampled_from([0.0, 0.6, 2.0]),
                                      label="length_penalty_beta"),
        block_repeated_trigrams=data.draw(st.booleans(), label="block_repeated_trigrams"),
        final_by_s_gen=data.draw(st.booleans(), label="final_by_s_gen"))
    source = data.draw(st.sampled_from(synth_corpus.pairs), label="pair").source
    plain = plain_beam_search(synth_generator, source, config)
    fused = das_beam_search(synth_generator, trained_disc, source, config)
    for beam in (plain, fused):
        members = [astuple(h) for h in beam]
        assert 1 <= len(beam) and _final_sort(members, config) == members
        for h in beam:
            assert h.ended and h.tokens[0] == SOS and h.tokens[-1] == EOS
            assert EOS not in h.tokens[1:-1]
            assert all(0 <= tok < len(synth_corpus.vocab) for tok in h.tokens)
            assert len(h.tokens) <= config.t_max + 2
    assert len(plain) <= config.beam_size and len(fused) <= config.beam_size
    assert all(h.s_das == h.s_gen and h.s_dis is None for h in plain)
    assert all(h.s_das == h.s_gen + config.alpha * h.s_dis for h in fused)


def test_final_selection_by_generator_score_option(synth_corpus, synth_generator,
                                                   trained_disc):
    das_cfg = SearchConfig(beam_size=3, k_rerank=10, alpha=1.0, t_max=60)
    abl_cfg = SearchConfig(beam_size=3, k_rerank=10, alpha=1.0, t_max=60,
                           final_by_s_gen=True)
    for p in synth_corpus.pairs[:10]:
        # the whole final pool: a settled search returns only the members
        # that had ended when it stopped
        ranked = reference_search(synth_generator, trained_disc, p.source, das_cfg,
                                  settle=False)
        ablated = das_beam_search(synth_generator, trained_disc, p.source, abl_cfg)
        assert ablated[0].s_gen == max(h.s_gen for h in ranked)


def test_deterministic_across_runs(synth_corpus, synth_generator, trained_disc):
    config = SearchConfig(beam_size=3, k_rerank=10, alpha=1.0, t_max=60)
    p = synth_corpus.pairs[5]
    a = das_beam_search(synth_generator, trained_disc, p.source, config)
    b = das_beam_search(synth_generator, trained_disc, p.source, config)
    assert [h.tokens for h in a] == [h.tokens for h in b]
    assert [h.s_das for h in a] == [h.s_das for h in b]


# --- the reference search ---------------------------------------------------------------


def beam_bits(beam):
    """A beam's every field, floats as their bits."""
    return [(h.tokens, h.s_gen.hex(), None if h.s_dis is None else h.s_dis.hex(),
             h.s_das.hex(), h.ended, h.truncated) for h in beam]


@pytest.fixture(scope="module")
def seed1_models():
    """Test pairs, a generator and a weakly trained discriminator, synth seed 1."""
    corpus = generate_synthetic_corpus(1, 44)
    train = Corpus(corpus.pairs[:40], corpus.vocab, "train")
    generator = train_generator(train, order=3, kappa=1.0, lambda_copy=0.75)
    hparams = DiscriminatorHparams(epochs=3, seed=0, d_hash=2 ** 12)
    search = SearchConfig(beam_size=3, k_rerank=3, alpha=0.0, t_max=60)
    return corpus.pairs[40:], generator, bootstrap(train, generator, hparams,
                                                   search).discriminator


# the rules off and on, each also with the winner by s_gen and cut at t_max = 4
# (which forces EOS on live members); ids name only what differs from the
# default by-s_das run to t_max = 60
REFERENCE_SETTINGS = [
    pytest.param(rules, final_by_s_gen, t_max, id="-".join(
        ["rules-on" if rules else "rules-off"] + ["by-s_gen"] * final_by_s_gen
        + ["truncates"] * (t_max == 4)))
    for final_by_s_gen, t_max, rules in itertools.product([False, True], [60, 4],
                                                          [False, True])]


@pytest.mark.parametrize("rules, final_by_s_gen, t_max", REFERENCE_SETTINGS)
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 5.0])
@pytest.mark.parametrize("k_rerank", [1, 2, 3, 5, 10])
def test_search_equals_the_reference_search(seed1_models, k_rerank, alpha, rules,
                                            final_by_s_gen, t_max):
    pairs, generator, disc = seed1_models
    config = SearchConfig(beam_size=min(3, k_rerank), k_rerank=k_rerank, alpha=alpha,
                          t_max=t_max, length_penalty_beta=0.6 if rules else 0.0,
                          block_repeated_trigrams=rules, final_by_s_gen=final_by_s_gen)
    for p in pairs:
        assert (beam_bits(das_beam_search(generator, disc, p.source, config))
                == beam_bits(reference_search(generator, disc, p.source, config)))


# pinned from a search whose pool members were still Hypothesis objects
SEED1_WINNER_TOKENS_SHA256 = "bbf43b3e22bb2323744b51b642e68490af8194a75c0a6e64bf156713c49fbbb4"
# pinned from a search that hashed each feature key anew in every search
SEED1_WINNER_S_DIS_SHA256 = "597d190bc77d0d80c5105d9e38cbd157de5e96d8c4c8c50046e8203e1f18d38b"


def seed1_winners(seed1_models):
    """The winners at K in {1, 3, 10}, alpha in {0, 1, 5} and the rules off
    and on, over the seed-1 test pairs."""
    pairs, generator, disc = seed1_models
    for k_rerank, alpha, rules in itertools.product([1, 3, 10], [0.0, 1.0, 5.0],
                                                    [False, True]):
        config = SearchConfig(beam_size=min(3, k_rerank), k_rerank=k_rerank, alpha=alpha,
                              t_max=60, length_penalty_beta=0.6 if rules else 0.0,
                              block_repeated_trigrams=rules)
        for p in pairs:
            yield das_beam_search(generator, disc, p.source, config)[0]


def test_seed1_winner_tokens_are_unchanged(seed1_models):
    """The winners' token ids hash as they did. No float is hashed: np.log
    rows can differ in their last bits under other numpy CPU dispatch, and
    these tokens do not."""
    digest = hashlib.sha256()
    for winner in seed1_winners(seed1_models):
        digest.update(repr(winner.tokens).encode())
    assert digest.hexdigest() == SEED1_WINNER_TOKENS_SHA256


def test_seed1_winner_s_dis_bits_are_unchanged(seed1_models):
    """The winners' s_dis bits (None at alpha 0) hash as they did. s_dis is
    the discriminator's D through math.log, pure Python arithmetic, so unlike
    s_gen its bits do not depend on numpy's CPU dispatch."""
    digest = hashlib.sha256()
    for winner in seed1_winners(seed1_models):
        digest.update(repr(None if winner.s_dis is None else winner.s_dis.hex()).encode())
    assert digest.hexdigest() == SEED1_WINNER_S_DIS_SHA256


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_search_equals_the_reference_search_through_ties(data):
    vocab = make_vocab("a", "b", "c", "d", "e")
    a, b = vocab.id_of("a"), vocab.id_of("b")
    # a and b are in no reference and as often in the source as each other,
    # so every hypothesis's extensions by a and by b tie on s_gen
    refs = data.draw(st.lists(st.lists(st.sampled_from("cde"), min_size=1, max_size=4),
                              min_size=1, max_size=4), label="references")
    corpus = make_corpus(vocab, [(f"r{i}", ["a"], ref) for i, ref in enumerate(refs)])
    generator = train_generator(corpus, order=data.draw(st.integers(1, 3), label="order"),
                                lambda_copy=data.draw(st.sampled_from([0.5, 1.0]),
                                                      label="lambda_copy"))
    repeats = data.draw(st.integers(1, 3), label="repeats")
    source = vocab.encode(data.draw(st.permutations(["a", "b"] * repeats), label="source"))
    first = dict(_expansion(generator, source, len(vocab))[0]((SOS,), frozenset()))
    assert first[a] == first[b]
    ranks = list(first)
    # both are in the first step's pool, where the tie is broken on token order
    k_rerank = max(ranks.index(a), ranks.index(b)) + 1 + data.draw(st.integers(0, 2),
                                                                   label="extra_k")
    config = SearchConfig(
        beam_size=data.draw(st.integers(1, k_rerank), label="beam_size"),
        k_rerank=k_rerank,
        alpha=data.draw(st.sampled_from([0.0, 0.5, 1.0, 5.0]), label="alpha"),
        t_max=data.draw(st.integers(1, 8), label="t_max"),
        length_penalty_beta=data.draw(st.sampled_from([0.0, 0.6]), label="beta"),
        block_repeated_trigrams=data.draw(st.booleans(), label="block_repeated_trigrams"),
        final_by_s_gen=data.draw(st.booleans(), label="final_by_s_gen"))
    # at bias +50 every D is 1.0, so s_das == s_gen, the bound on s_das the
    # search prunes by; at -50 every D is clamped to EPS_DIS
    disc = random_discriminator(FeatureConfig.from_corpus(corpus, d_hash=64, t_max=8),
                                seed=data.draw(st.integers(0, 9), label="disc_seed"),
                                scale=0.5,
                                offset=data.draw(st.sampled_from([0.0, 50.0, -50.0]),
                                                 label="bias_offset"))
    beam = das_beam_search(generator, disc, source, config)
    assert beam_bits(beam) == beam_bits(reference_search(generator, disc, source, config))
    assert (beam_bits(beam[:1])
            == beam_bits(reference_search(generator, disc, source, config, settle=False)[:1]))


def test_a_pool_settles_once_its_first_ended_member_outscores_every_live_s_gen():
    """The first ended member by the final key must have an s_das above each
    live member's s_gen, the most any of its descendants can reach in s_gen
    and in s_das; its own s_gen above them is not enough."""
    def ended(s_gen, s_das, tok):
        return (SOS, tok, EOS), s_gen, s_das - s_gen, s_das, True

    live = (SOS, 5, 6), -2.0, -0.5, -2.5, False
    config = SearchConfig(beam_size=3, k_rerank=3, alpha=1.0)
    # its s_gen is above the live one's, but a child of the live one with
    # D near 1 would pass its s_das
    assert not _settled([ended(-1.0, -3.0, 7), live], config)
    # a child with logp and log D both 0 (in floats) would tie it, and the
    # tie breaks on tokens
    assert not _settled([ended(-1.0, -2.0, 7), live], config)
    first, second = ended(-1.0, -1.5, 7), ended(-1.2, -1.9, 8)
    assert _settled([second, live, first], config)
    assert _settled([second, live], config)
    assert not _settled([first, live], replace(config, length_penalty_beta=0.6))
    # by s_gen the first ended member is the one of lower s_das, which a
    # child of the live member may still outrank in the pool
    low_das = ended(-1.0, -5.0, 7)
    assert not _settled([low_das, second, live], replace(config, final_by_s_gen=True))
    assert _settled([low_das, second, live], config)


@pytest.mark.parametrize("final_by_s_gen", [False, True], ids=["by-s_das", "by-s_gen"])
@pytest.mark.parametrize("rules", [False, True], ids=["rules-off", "rules-on"])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 5.0])
@pytest.mark.parametrize("k_rerank", [1, 3, 5, 10])
def test_search_winner_equals_the_run_to_t_max_winner(seed1_models, k_rerank, alpha, rules,
                                                      final_by_s_gen):
    """Stopping once the winner is settled leaves the winner as it is, bit for
    bit: the first of the returned members is the first that running on to
    t_max (or until every member has ended) would return."""
    pairs, generator, disc = seed1_models
    config = SearchConfig(beam_size=min(3, k_rerank), k_rerank=k_rerank, alpha=alpha,
                          t_max=60, length_penalty_beta=0.6 if rules else 0.0,
                          block_repeated_trigrams=rules, final_by_s_gen=final_by_s_gen)
    for p in pairs:
        assert (beam_bits(das_beam_search(generator, disc, p.source, config)[:1])
                == beam_bits(reference_search(generator, disc, p.source, config,
                                              settle=False)[:1]))


def test_settling_saves_discriminator_calls_only_without_length_penalty(seed1_models,
                                                                        monkeypatch):
    """At K=10 and alpha=1 a settled search asks the discriminator less, in
    total, than the same search run on to t_max (no pool ever settled), and
    never more on a pair. With a length penalty nothing settles, and the two
    ask the same."""
    from dasearch import decoder

    pairs, generator, disc = seed1_models
    calls = Counter()
    score_next = PrefixFeaturizer.score_next
    monkeypatch.setattr(PrefixFeaturizer, "score_next", lambda self, state, token: (
        calls.update(["score_next"]) or score_next(self, state, token)))

    def count(config):
        counts = []
        for p in pairs:
            calls.clear()
            das_beam_search(generator, disc, p.source, config)
            counts.append(calls["score_next"])
        return counts

    for beta in (0.0, 0.6):
        config = SearchConfig(beam_size=3, k_rerank=10, alpha=1.0, t_max=60,
                              length_penalty_beta=beta)
        settled = count(config)
        with monkeypatch.context() as m:
            m.setattr(decoder, "_settled", lambda pool, config: False)
            unsettled = count(config)
        if beta == 0.0:
            assert sum(settled) < sum(unsettled)
            assert all(a <= b for a, b in zip(settled, unsettled))
        else:
            assert settled == unsettled


@pytest.mark.parametrize("all_human", [False, True], ids=["trained", "all-human"])
def test_search_work_per_step_is_bounded_by_the_beam(synth_corpus, synth_generator, monkeypatch,
                                                     trained_disc, all_human):
    """A search commits and copies at most beam_size prefix states a step,
    each by the very step it scored it with: it scores no (state, token)
    twice and commits no step twice. With D = 1 everywhere a candidate's
    s_das is its s_gen, the best it can be, so a step asks the discriminator
    about its beam_size best candidates by s_gen and no other, and the
    search returns plain search's beam."""
    disc = trained_disc
    if all_human:
        disc = DiscriminatorModel(trained_disc.config, np.zeros(N_DENSE),
                                  np.zeros(trained_disc.config.d_hash), 50.0)
    counts, lengths = Counter(), set()
    # (state, its t, token) of each scoring, and each step scored and not yet
    # committed, by id; both hold their objects, so no id is reused meanwhile
    scorings, uncommitted = {}, {}
    commit, score_next = PrefixFeaturizer.commit, PrefixFeaturizer.score_next
    copy = PrefixState.copy

    def counting_score_next(self, state, token):
        counts.update(["score_next"])
        lengths.add(state.t)
        key = (id(state), state.t, token)
        assert key not in scorings
        scorings[key] = state
        z, step = score_next(self, state, token)
        uncommitted[id(step)] = step
        return z, step

    def counting_commit(state, token, step):
        counts.update(["commit"])
        assert uncommitted.pop(id(step), None) is step
        commit(state, token, step)

    monkeypatch.setattr(PrefixFeaturizer, "score_next", counting_score_next)
    monkeypatch.setattr(PrefixFeaturizer, "commit", staticmethod(counting_commit))
    monkeypatch.setattr(PrefixState, "copy", lambda self: counts.update(["copy"]) or copy(self))
    generator = train_generator(synth_corpus, order=3, kappa=1.0, lambda_copy=0.75)
    rows, contexts = counted_rows(monkeypatch), recorded_contexts(monkeypatch, generator)
    config = SearchConfig(beam_size=3, k_rerank=10, alpha=1.0, t_max=60)
    for p in synth_corpus.pairs[:10]:
        for seen in (counts, rows, contexts, lengths, scorings, uncommitted):
            seen.clear()
        beam = das_beam_search(generator, disc, p.source, config)
        # a step is a prefix length below t_max the search scores candidates at
        steps = len({t for t in lengths if t < config.t_max})
        assert counts["commit"] <= config.beam_size * steps
        assert counts["copy"] <= config.beam_size * steps
        assert rows and len(rows) == len(set(contexts))  # one Row per context
        if all_human:
            # one more for the forced EOS of each member live at t_max
            truncated = sum(h.truncated for h in beam)
            assert counts["score_next"] <= config.beam_size * steps + truncated
            plain = plain_beam_search(synth_generator, p.source, config)
            assert ([(h.tokens, h.s_gen) for h in beam]
                    == [(h.tokens, h.s_gen) for h in plain])
            assert all(h.s_dis == 0.0 for h in beam)


@pytest.mark.parametrize("t_max", [60, 4], ids=["ends", "truncates"])
def test_a_search_builds_hypothesis_objects_only_for_the_returned_beam(
        synth_corpus, synth_generator, monkeypatch, trained_disc, t_max):
    """A scored candidate and a pool member are tuples of numbers and tokens:
    a fused search builds exactly one Hypothesis object per member of the
    beam it returns, whether the members ended or were cut at t_max."""
    from dasearch import decoder

    built = []

    class CountedHypothesis(Hypothesis):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(decoder, "Hypothesis", CountedHypothesis)
    config = SearchConfig(beam_size=3, k_rerank=10, alpha=1.0, t_max=t_max)
    truncated = 0
    for p in synth_corpus.pairs[:10]:
        built.clear()
        beam = das_beam_search(synth_generator, trained_disc, p.source, config)
        truncated += sum(h.truncated for h in beam)
        assert len(built) == len(beam) and built == beam
    assert bool(truncated) == (t_max == 4)


def counted_rows(monkeypatch) -> list:
    """Every Row the generator module builds, in order."""
    built = []

    class CountedRow(generator_module.Row):
        __slots__ = ()

        def __init__(self, ngram, copy):
            built.append(self)
            super().__init__(ngram, copy)

    monkeypatch.setattr(generator_module, "Row", CountedRow)
    return built


def recorded_contexts(monkeypatch, generator) -> list:
    """The context of every prefix `generator` is asked about."""
    contexts, context = [], generator.context
    monkeypatch.setattr(generator, "context",
                        lambda prefix: contexts.append(context(prefix)) or contexts[-1])
    return contexts


@pytest.mark.parametrize("block", [False, True], ids=["unblocked", "blocked"])
def test_search_builds_one_row_per_context(synth_corpus, monkeypatch, block):
    """A search builds one Row per context of a source it has not searched:
    the forced EOS of a member still live at t_max and a tail that comes
    back with another blocked set read the Row next_logprobs keeps."""
    generator = train_generator(synth_corpus, order=3, kappa=1.0, lambda_copy=0.75)
    rows, contexts = counted_rows(monkeypatch), recorded_contexts(monkeypatch, generator)
    blocked_sets, blocked = set(), decoder._blocked

    def recording_blocked(index, tokens):
        found = blocked(index, tokens)
        blocked_sets.add((tokens[-2:], found))
        return found

    monkeypatch.setattr(decoder, "_blocked", recording_blocked)
    config = SearchConfig(beam_size=3, k_rerank=3, alpha=0.0, t_max=20,
                          block_repeated_trigrams=block)
    truncated = returned = 0
    for p in synth_corpus.pairs[:10]:
        for seen in (rows, contexts, blocked_sets):
            seen.clear()
        beam = plain_beam_search(generator, p.source, config)
        truncated += sum(h.truncated for h in beam)
        assert rows and len(rows) == len(set(contexts))
        # a tail that came back with another blocked set
        returned += len({tail for tail, _ in blocked_sets}) < len(blocked_sets)
    assert truncated and bool(returned) == block


@pytest.mark.parametrize("block", [False, True], ids=["unblocked", "blocked"])
@pytest.mark.parametrize("alpha, disc", [(0.0, False), (0.0, True), (1.0, True)],
                         ids=["alpha-0", "alpha-0-with-discriminator", "alpha-1"])
def test_a_search_asks_a_row_for_no_more_tokens_than_its_width(
        synth_corpus, synth_generator, trained_disc, monkeypatch, alpha, disc, block):
    """A search that does not rerank asks Row.top for at most beam_size
    tokens past the prefix's blocked ones, whatever its k_rerank; one that
    reranks asks for at most k_rerank past them, and does ask for that many."""
    asked, blocked, top = [], decoder._blocked, generator_module.Row.top

    def recording_blocked(index, tokens):
        found = blocked(index, tokens)
        asked.append(("blocked", len(found)))
        return found

    def recording_top(self, n):
        asked.append(("top", n))
        return top(self, n)

    monkeypatch.setattr(decoder, "_blocked", recording_blocked)
    monkeypatch.setattr(generator_module.Row, "top", recording_top)
    config = SearchConfig(beam_size=3, k_rerank=10, alpha=alpha, t_max=30,
                          block_repeated_trigrams=block)
    width = config.k_rerank if alpha > 0 else config.beam_size
    extra = []  # each request's tokens past the blocked ones of its prefix
    for p in synth_corpus.pairs[:10]:
        asked.clear()
        das_beam_search(synth_generator, trained_disc if disc else None, p.source, config)
        n_blocked = 0
        for kind, n in asked:
            if kind == "blocked":
                n_blocked = n
            else:
                extra.append(n - n_blocked)
    assert extra and max(extra) == width


# --- rows the generator keeps across searches ---------------------------------------------


@pytest.fixture(scope="module")
def blank_generator(synth_corpus):
    """synth_generator's model with nothing cached, pickled."""
    return pickle.dumps(train_generator(synth_corpus, order=3, kappa=1.0, lambda_copy=0.75))


def revisited(order) -> set:
    """The sources of `order`, a list of searched sources, that were searched
    again after another one."""
    seen, out = set(), set()
    for last, source in zip([None, *order], order):
        if source != last and source in seen:
            out.add(source)
        seen.add(source)
    return out


@settings(derandomize=True, deadline=None, max_examples=40)
@given(data=st.data())
def test_a_generator_that_keeps_rows_searches_as_a_fresh_one(synth_corpus, blank_generator,
                                                             trained_disc, data):
    """One generator that searches sources again between searches of others,
    so that it keeps their rows and rankings, returns every beam bit for bit
    as a search with a fresh generator does, across K, alpha, trigram
    blocking, a length penalty and a t_max cut."""
    sources = [p.source for p in synth_corpus.pairs[:4]]
    searches = data.draw(st.lists(st.tuples(
        st.sampled_from(sources), st.sampled_from([1, 3, 5, 10]),
        st.sampled_from([0.0, 0.5, 1.0, 5.0]), st.booleans(), st.sampled_from([0.0, 0.6]),
        st.sampled_from([4, 60])), min_size=2, max_size=10), label="searches")
    generator = pickle.loads(blank_generator)
    for source, k, alpha, block, beta, t_max in searches:
        config = SearchConfig(beam_size=min(3, k), k_rerank=k, alpha=alpha, t_max=t_max,
                              length_penalty_beta=beta, block_repeated_trigrams=block)
        disc = trained_disc if alpha > 0 else None
        assert (beam_bits(das_beam_search(generator, disc, source, config))
                == beam_bits(das_beam_search(pickle.loads(blank_generator), disc, source,
                                             config)))
    assert generator._kept.keys() == revisited([source for source, *_ in searches])


def test_only_a_source_searched_again_after_another_keeps_its_rows(synth_corpus, monkeypatch):
    """A source searched once keeps no rows after the next source; searched
    again after another one, it keeps them, and a third search with the same
    settings builds no Row."""
    generator = train_generator(synth_corpus, order=3, kappa=1.0, lambda_copy=0.75)
    rows, contexts = counted_rows(monkeypatch), recorded_contexts(monkeypatch, generator)
    config = SearchConfig(beam_size=3, k_rerank=10, alpha=0.0, t_max=60)
    a, b = (p.source for p in synth_corpus.pairs[:2])

    def search(source):
        rows.clear()
        contexts.clear()
        return beam_bits(plain_beam_search(generator, source, config)), len(rows)

    first, built = search(a)
    asked = set(contexts)
    assert built and built == len(asked)
    search(b)
    assert generator._last[0] == b and not generator._kept
    assert search(a) == (first, built)  # it kept nothing, so it builds them again
    assert generator._kept.keys() == {a}
    search(b)
    assert generator._kept.keys() == {a, b}
    assert search(a) == (first, 0)
    assert generator._last[2] is generator._kept[a][1]
    assert asked == generator._last[2].keys()


def test_clearing_the_store_at_its_bound_changes_no_bit():
    """The sources asked about and the store are cleared when the set would
    hold more sources than 1 + the model's table keys; the searches before
    and after return the beams a fresh generator does."""
    vocab = make_vocab("a", "b", "c", "d", "e")
    corpus = make_corpus(vocab, [("r0", ["a"], ["a", "b", "c"]), ("r1", ["b"], ["c", "d"])])
    generator = train_generator(corpus, order=2)
    blank = pickle.dumps(generator)
    bound = 1 + len(generator.counts)
    sources = [tuple(p) for p in itertools.permutations(range(2, len(vocab)), 3)][:bound + 2]
    order = [sources[0], sources[1], sources[0], sources[1], *sources[2:], sources[0]]
    config = SearchConfig(beam_size=2, k_rerank=4, alpha=0.0, t_max=8)
    kept = []
    for source in order:
        assert (beam_bits(plain_beam_search(generator, source, config))
                == beam_bits(plain_beam_search(pickle.loads(blank), source, config)))
        assert len(generator._seen) <= bound
        kept.append(set(generator._kept))
    assert kept[3] == {sources[0], sources[1]}
    assert kept[-2] == set() and sources[0] not in generator._kept  # cleared on the way


def test_add_sequence_empties_the_store(synth_corpus, blank_generator, monkeypatch):
    """New counts clear the sources asked about and every kept row, so the
    next search of a revisited source builds a Row per context, and it is
    the search of a model trained with those counts."""
    generator = pickle.loads(blank_generator)
    config = SearchConfig(beam_size=3, k_rerank=10, alpha=0.0, t_max=60)
    a, b = (p.source for p in synth_corpus.pairs[:2])
    for source in (a, b, a, b):
        plain_beam_search(generator, source, config)
    assert generator._kept.keys() == {a, b}
    extra = synth_corpus.pairs[5].reference
    generator.add_sequence(extra)
    assert not generator._kept and not generator._seen and not generator._last[2]
    fresh = pickle.loads(blank_generator)
    fresh.add_sequence(extra)
    expected = beam_bits(plain_beam_search(fresh, a, config))
    rows, contexts = counted_rows(monkeypatch), recorded_contexts(monkeypatch, generator)
    assert beam_bits(plain_beam_search(generator, a, config)) == expected
    assert rows and len(rows) == len(set(contexts))


def test_a_forced_pool_sweep_equals_the_serial_one(monkeypatch, synth_corpus, blank_generator,
                                                   trained_disc):
    """Sweep cells decoded in a pool of 2 worker processes, each sent the
    generator with the rows it kept from the serial cells, return the serial
    cells' hypotheses bit for bit."""
    generator = pickle.loads(blank_generator)
    pairs = Corpus(synth_corpus.pairs[:12], synth_corpus.vocab, "validation")
    cells = [SearchConfig(beam_size=min(3, k), k_rerank=k, alpha=alpha, t_max=60)
             for k, alpha in ((1, 0.5), (5, 0.0), (10, 1.0))]

    def sweep(jobs):
        return [decode_corpus(pairs, functools.partial(
            das_beam_search, generator, trained_disc if cfg.alpha > 0 else None, config=cfg),
            jobs=jobs) for cfg in cells]

    serial = sweep(1)
    assert generator._kept.keys() == {p.source for p in pairs.pairs}
    started = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    def counted_pool(max_workers, **kwargs):
        started.append(max_workers)
        return real_pool(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted_pool)
    monkeypatch.setattr(decoder, "PAIRS_PER_WORKER", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pooled = sweep(2)
    assert started == [2] * len(cells)
    assert pickle.dumps(pooled) == pickle.dumps(serial)


# --- exhaustive oracle --------------------------------------------------------------------


class CountingGenerator:
    """Counts the sequences scored: each sequence_logprob asks once at (SOS,)."""

    def __init__(self, inner):
        self.inner = inner
        self.vocab = inner.vocab
        self.calls = 0

    def next_logprobs(self, source, prefix):
        self.calls += tuple(prefix) == (SOS,)
        return self.inner.next_logprobs(source, prefix)


def _tiny_setup(seed=0):
    vocab = make_vocab("a", "b", "c", "d")
    rng = random.Random(seed)
    refs = [["a", "b"], ["b", "c", "d"], ["a", "c"], ["d", "a"], ["c", "b"]]
    records = [(f"r{i}", [rng.choice("abcd") for _ in range(4)], ref)
               for i, ref in enumerate(refs)]
    corpus = make_corpus(vocab, records)
    generator = train_generator(corpus, order=2, lambda_copy=0.5)
    config = FeatureConfig.from_corpus(corpus, d_hash=128, t_max=4)
    return vocab, corpus, generator, config


def test_oracle_enumerates_exactly_seven_sequences_for_two_tokens():
    vocab, corpus, generator, _ = _tiny_setup()
    counting = CountingGenerator(generator)
    exhaustive_oracle(counting, None, corpus.pairs[0].source, alpha=0.0,
                      t_max=2, v_subset=[3, 4])
    assert counting.calls == 7  # lengths 0, 1, 2 over two tokens


def test_oracle_alpha_zero_maximizes_generator_score():
    vocab, corpus, generator, _ = _tiny_setup()
    source = corpus.pairs[1].source
    subset = [2, 3, 4, 5, 6]
    best = exhaustive_oracle(generator, None, source, alpha=0.0, t_max=3,
                             v_subset=subset)
    import itertools
    scores = []
    for length in range(4):
        for content in itertools.product(sorted(subset), repeat=length):
            scores.append(sequence_logprob(generator, source, content + (EOS,)))
    assert math.isclose(best.s_gen, max(scores), abs_tol=1e-12)


def test_oracle_budget_guard():
    vocab, corpus, generator, _ = _tiny_setup()
    with pytest.raises(DecoderError):
        exhaustive_oracle(generator, None, corpus.pairs[0].source, 0.0,
                          t_max=30, v_subset=[3, 4])


def test_saturated_beam_matches_oracle():
    vocab, corpus, generator, config = _tiny_setup(seed=1)
    disc = random_discriminator(config, seed=3, scale=0.5)
    search = SearchConfig(beam_size=1024, k_rerank=1024, alpha=1.0, t_max=4)
    subset = [2, 3, 4, 5, 6]  # every id the generator can emit except EOS
    for p in corpus.pairs:
        beam = das_beam_search(generator, disc, p.source, search)[0]
        oracle = exhaustive_oracle(generator, disc, p.source, alpha=1.0,
                                   t_max=4, v_subset=subset)
        assert beam.tokens == oracle.tokens
        assert math.isclose(beam.s_das, oracle.s_das, abs_tol=1e-9)


# --- corpus decoding --------------------------------------------------------------


def echo_search(source):
    """A one-hypothesis beam that repeats the source."""
    return [Hypothesis(tokens=(SOS, *source, EOS), s_gen=0.0, ended=True)]


def test_hypothesis_content_strips_only_a_final_eos():
    assert hypothesis_content(Hypothesis(tokens=(SOS, 3, EOS), s_gen=0.0)) == (3,)
    assert hypothesis_content(Hypothesis(tokens=(SOS, 3, 4), s_gen=0.0)) == (3, 4)
    assert hypothesis_content(Hypothesis(tokens=(SOS,), s_gen=0.0)) == ()


def recording_pool(started):
    """Stands in for the process pool: records its size, maps in this process."""

    class RecordingPool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            started.append(max_workers)
            if initializer is not None:
                initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    return RecordingPool


# pairs are given as (multiple of PAIRS_PER_WORKER, extra pairs)
@pytest.mark.parametrize("cpus, pairs, jobs, pools", [
    (2, (0, 30), 2, []),  # the test split: far below the break-even
    (2, (2, -1), 2, []),  # one pair short of a second worker's share
    (2, (2, 0), 2, [2]),
    (2, (2, 0), 1, []),  # jobs caps the workers
    (2, (3, 0), 4, [2]),  # so do the usable CPUs
    (1, (4, 0), 4, []),
    (8, (3, 1), 50, [3]),  # and the pairs
    (4, (4, 0), 3, [3]),
], ids=["30-pairs", "below", "at", "one-job", "two-cpus", "one-cpu", "by-pairs", "by-jobs"])
def test_decode_corpus_starts_a_worker_per_share_of_pairs(monkeypatch, cpus, pairs, jobs, pools):
    """min(jobs, usable CPUs, pairs // PAIRS_PER_WORKER) workers, none below 2."""
    started = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool(started))
    monkeypatch.setattr("dasearch.decoder._worker_search", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    multiple, extra = pairs
    n = multiple * decoder.PAIRS_PER_WORKER + extra
    vocab = make_vocab("a", "b", "c")
    records = [(f"p{i}", [("a", "b", "c")[i % 3]], ["a"]) for i in range(n)]
    hyps = decode_corpus(make_corpus(vocab, records), echo_search, jobs=jobs)
    assert started == pools
    assert list(hyps) == [i for i, _, _ in records]
    assert all(hypothesis_content(hyps[i]) == vocab.encode(src) for i, src, _ in records)


def test_usable_cpus_are_the_cpu_count_without_an_affinity_call(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert decoder._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert decoder._usable_cpus() == 1


def test_a_forced_pool_decodes_the_serial_winners_byte_for_byte(monkeypatch, synth_corpus,
                                                                 synth_generator, trained_disc):
    """A real pool of 2 worker processes, started on 60 pairs by lowering the
    share, returns the hypotheses a serial decode returns, bit for bit."""
    search = functools.partial(das_beam_search, synth_generator, trained_disc,
                               config=SearchConfig(beam_size=3, k_rerank=10, alpha=1.0,
                                                   t_max=60))
    serial = decode_corpus(synth_corpus, search, jobs=1)
    started = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    def counted_pool(max_workers, **kwargs):
        started.append(max_workers)
        return real_pool(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted_pool)
    monkeypatch.setattr(decoder, "PAIRS_PER_WORKER", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pooled = decode_corpus(synth_corpus, search, jobs=2)
    assert started == [2]
    assert pickle.dumps(pooled) == pickle.dumps(serial)


@pytest.mark.parametrize("jobs", [0, -3])
def test_decode_corpus_rejects_jobs_below_one(jobs):
    corpus = make_corpus(make_vocab("a"), [("x", ["a"], ["a"])])
    with pytest.raises(DecoderError, match="jobs must be >= 1"):
        decode_corpus(corpus, echo_search, jobs=jobs)
