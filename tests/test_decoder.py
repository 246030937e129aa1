import logging
import math
import random

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dasearch.corpus import Vocabulary, generate_synthetic_corpus
from dasearch.decoder import (
    DecoderError,
    Hypothesis,
    SearchConfig,
    apply_das_score,
    apply_trigram_block,
    das_beam_search,
    exhaustive_oracle,
    length_penalty,
    plain_beam_search,
    s_gen_extend,
)
from dasearch.discriminator import DiscriminatorModel, FeatureConfig, N_DENSE
from dasearch.generator import train_generator
from dasearch.selftrain import bootstrap, DiscriminatorHparams

from conftest import make_corpus, make_vocab

SOS, EOS = Vocabulary.sos, Vocabulary.eos


def random_discriminator(config, seed=0, scale=0.1):
    rng = np.random.default_rng(seed)
    return DiscriminatorModel(config, rng.normal(size=N_DENSE) * scale,
                              rng.normal(size=config.d_hash) * scale,
                              float(rng.normal()) * scale)


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
    h = Hypothesis(tokens=(SOS, 3), s_gen=-2.0)
    scored = apply_das_score(h, alpha=1.0, dis_prob=0.5)
    assert math.isclose(scored.s_das, -2.0 + math.log(0.5), abs_tol=1e-12)
    assert math.isclose(scored.s_dis, math.log(0.5), abs_tol=1e-12)


def test_das_score_alpha_zero_recovers_generator_score():
    h = Hypothesis(tokens=(SOS, 3), s_gen=-2.0)
    assert apply_das_score(h, alpha=0.0, dis_prob=0.01).s_das == -2.0


def test_alpha_scales_discriminator_term_linearly():
    h = Hypothesis(tokens=(SOS, 3), s_gen=-1.0)
    lift5 = apply_das_score(h, 5.0, 0.3).s_das - h.s_gen
    lift_half = apply_das_score(h, 0.5, 0.3).s_das - h.s_gen
    assert math.isclose(lift5, 10.0 * lift_half, abs_tol=1e-12)


def test_zero_probability_clamped_and_flagged(caplog):
    h = Hypothesis(tokens=(SOS, 3), s_gen=-1.0)
    with caplog.at_level(logging.WARNING, logger="dasearch.decoder"):
        scored = apply_das_score(h, 1.0, 0.0)
    assert math.isclose(scored.s_dis, math.log(1e-9), abs_tol=1e-12)
    assert any("clamped" in rec.message for rec in caplog.records)


# --- rules ------------------------------------------------------------------------


def test_trigram_block_rejects_repeat():
    h = Hypothesis(tokens=(SOS, 3, 4, 5, 3, 4), s_gen=-1.0)
    assert apply_trigram_block(h, 5) is False
    assert apply_trigram_block(h, 6) is True


def test_trigram_block_allows_short_prefixes():
    h = Hypothesis(tokens=(SOS, 3, 4), s_gen=-1.0)
    assert apply_trigram_block(h, 3) is True


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


# --- configuration ------------------------------------------------------------------


def test_search_config_validation():
    with pytest.raises(DecoderError):
        SearchConfig(beam_size=5, k_rerank=3)
    with pytest.raises(DecoderError):
        SearchConfig(alpha=-0.1)
    with pytest.raises(DecoderError):
        SearchConfig(t_max=0)


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
            lp = synth_generator.next_logprobs(p.source, tokens)
            top = int(np.flatnonzero(lp == lp.max())[0])  # lowest id on ties
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
            synth_generator.sequence_logprob(p.source, best.tokens[1:]),
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
def test_plain_search_is_fused_search_without_discriminator(synth_corpus,
                                                            synth_generator, data):
    k_rerank = data.draw(st.integers(1, 8), label="k_rerank")
    config = SearchConfig(
        beam_size=data.draw(st.integers(1, k_rerank), label="beam_size"),
        k_rerank=k_rerank,
        t_max=data.draw(st.integers(1, 30), label="t_max"),
        length_penalty_beta=data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                                      label="length_penalty_beta"),
        block_repeated_trigrams=data.draw(st.booleans(), label="block_repeated_trigrams"))
    source = data.draw(st.sampled_from(synth_corpus.pairs), label="pair").source
    plain = plain_beam_search(synth_generator, source, config)
    fused = das_beam_search(synth_generator, None, source, replace(config, alpha=0.0))
    assert [h.tokens for h in fused] == [h.tokens for h in plain]
    assert [h.s_gen for h in fused] == [h.s_gen for h in plain]


def test_k_rerank_one_is_greedy(synth_corpus, synth_generator, trained_disc):
    greedy_cfg = SearchConfig(beam_size=1, k_rerank=1, t_max=60)
    das_cfg = SearchConfig(beam_size=1, k_rerank=1, alpha=1.0, t_max=60)
    for p in synth_corpus.pairs[:20]:
        greedy = plain_beam_search(synth_generator, p.source, greedy_cfg)[0]
        fused = das_beam_search(synth_generator, trained_disc, p.source, das_cfg)[0]
        assert fused.tokens == greedy.tokens


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


def test_final_selection_by_generator_score_option(synth_corpus, synth_generator,
                                                   trained_disc):
    das_cfg = SearchConfig(beam_size=3, k_rerank=10, alpha=1.0, t_max=60)
    abl_cfg = SearchConfig(beam_size=3, k_rerank=10, alpha=1.0, t_max=60,
                           final_by_s_gen=True)
    for p in synth_corpus.pairs[:10]:
        ranked = das_beam_search(synth_generator, trained_disc, p.source, das_cfg)
        ablated = das_beam_search(synth_generator, trained_disc, p.source, abl_cfg)
        assert ablated[0].s_gen == max(h.s_gen for h in ranked)


def test_deterministic_across_runs(synth_corpus, synth_generator, trained_disc):
    config = SearchConfig(beam_size=3, k_rerank=10, alpha=1.0, t_max=60)
    p = synth_corpus.pairs[5]
    a = das_beam_search(synth_generator, trained_disc, p.source, config)
    b = das_beam_search(synth_generator, trained_disc, p.source, config)
    assert [h.tokens for h in a] == [h.tokens for h in b]
    assert [h.s_das for h in a] == [h.s_das for h in b]


# --- exhaustive oracle --------------------------------------------------------------------


class CountingGenerator:
    def __init__(self, inner):
        self.inner = inner
        self.vocab = inner.vocab
        self.calls = 0

    def next_logprobs(self, source, prefix):
        return self.inner.next_logprobs(source, prefix)

    def sequence_logprob(self, source, y):
        self.calls += 1
        return self.inner.sequence_logprob(source, y)


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
            scores.append(generator.sequence_logprob(source, content + (EOS,)))
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
