"""Discriminator self-training loop.

Iteration 0 trains a bootstrap discriminator on plain beam-search outputs;
each following iteration decodes with the current discriminator, rebuilds the
generated prefix set from those outputs and retrains. The generator is never
modified.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from dasearch.corpus import Corpus
from dasearch.decoder import SearchConfig, das_beam_search, plain_beam_search
from dasearch.discriminator import (
    DiscriminatorModel,
    FeatureConfig,
    accuracy,
    build_prefix_sets,
    train_discriminator,
)
from dasearch.metrics import evaluate_system

VAL_FRACTION = 0.1  # share of the pairs held out to validate each discriminator


@dataclass(frozen=True)
class DiscriminatorHparams:
    d_hash: int = 2 ** 16
    epochs: int = 10
    learning_rate: float = 2.0
    use_source: bool = True
    seed: int = 0
    warm_start: bool = False
    replay: bool = False  # also train on generated sets from past iterations
    ratio: float = 1.0    # class weight of generated vs. human prefixes


@dataclass
class SelfTrainState:
    iteration: int
    discriminator: DiscriminatorModel
    last_generations: dict
    history: list = field(default_factory=list)
    val_ids: frozenset = frozenset()
    stopped_reason: str | None = None
    past_generations: list = field(default_factory=list)


def hypothesis_content(h) -> tuple[int, ...]:
    """Output tokens without SOS and the trailing EOS."""
    toks = h.tokens[1:]
    if toks and toks[-1] == 1:  # Vocabulary.eos
        toks = toks[:-1]
    return toks


def _subcorpus(corpus: Corpus, ids) -> Corpus:
    pairs = tuple(p for p in corpus.pairs if p.id in ids)
    return Corpus(pairs, corpus.vocab, corpus.split)


def _train_and_validate(corpus, generations, config, hparams, seed, val_ids,
                        init=None, lr_scale=1.0, replay_generations=()):
    train_ids = {p.id for p in corpus.pairs} - val_ids
    train_sub = _subcorpus(corpus, train_ids)
    H_tr, G_tr = build_prefix_sets(train_sub, generations, t_max=config.t_max)
    for old in replay_generations:
        G_tr += build_prefix_sets(train_sub, old, t_max=config.t_max)[1]
    model = train_discriminator(H_tr, G_tr, config, epochs=hparams.epochs,
                                learning_rate=hparams.learning_rate * lr_scale,
                                seed=seed, init=init, ratio=hparams.ratio)
    H_val, G_val = build_prefix_sets(_subcorpus(corpus, val_ids), generations,
                                     t_max=config.t_max)
    return model, accuracy(model, H_val + G_val)


def _history_entry(iteration, val_accuracy, generations, corpus):
    report = evaluate_system(generations, corpus)
    return {
        "iteration": iteration,
        "val_accuracy": val_accuracy,
        "d_len": report.d_len,
        "d_nov1": report.d_nov1,
        "d_nov3": report.d_nov3,
        "d_rep1": report.d_rep1,
        "d_rep3": report.d_rep3,
        "bleu1": report.bleu1,
        "rouge1": report.rouge1_f,
        "rougeL": report.rougeL_f,
    }


def bootstrap(corpus: Corpus, generator, disc_hparams: DiscriminatorHparams,
              search_config: SearchConfig) -> SelfTrainState:
    """Iteration 0: plain beam-search outputs seed the first discriminator."""
    generations = {
        p.id: hypothesis_content(plain_beam_search(generator, p.source, search_config)[0])
        for p in corpus.pairs
    }
    feature_config = FeatureConfig.from_corpus(
        corpus, d_hash=disc_hparams.d_hash, use_source=disc_hparams.use_source,
        t_max=search_config.t_max)
    ids = sorted(p.id for p in corpus.pairs)
    rng = random.Random(disc_hparams.seed)
    rng.shuffle(ids)
    n_val = max(1, int(len(ids) * VAL_FRACTION))
    val_ids = frozenset(ids[:n_val])
    model, val_accuracy = _train_and_validate(corpus, generations, feature_config,
                                              disc_hparams, disc_hparams.seed, val_ids)
    state = SelfTrainState(iteration=0, discriminator=model,
                           last_generations=generations, val_ids=val_ids)
    state.history.append(_history_entry(0, val_accuracy, generations, corpus))
    return state


def self_train_step(state: SelfTrainState, generator, corpus: Corpus,
                    search_config: SearchConfig,
                    disc_hparams: DiscriminatorHparams) -> SelfTrainState:
    """One retraining round: decode with the current discriminator, rebuild G,
    train a fresh discriminator on the new outputs."""
    generations = {
        p.id: hypothesis_content(
            das_beam_search(generator, state.discriminator, p.source, search_config)[0])
        for p in corpus.pairs
    }
    seed = disc_hparams.seed * 1000003 + state.iteration + 1
    init = state.discriminator if disc_hparams.warm_start else None
    # fine-tuning rounds use a gentler step than the from-scratch bootstrap
    lr_scale = 1.0 / (state.iteration + 1) if disc_hparams.warm_start else 1.0
    replay = tuple(state.past_generations) + (state.last_generations,)
    model, val_accuracy = _train_and_validate(
        corpus, generations, state.discriminator.config, disc_hparams, seed,
        state.val_ids, init=init, lr_scale=lr_scale,
        replay_generations=replay if disc_hparams.replay else ())
    new_state = SelfTrainState(
        iteration=state.iteration + 1,
        discriminator=model,
        last_generations=generations,
        history=list(state.history),
        val_ids=state.val_ids,
        past_generations=list(replay),
    )
    new_state.history.append(
        _history_entry(new_state.iteration, val_accuracy, generations, corpus))
    return new_state


def _delta_sum(entry) -> float:
    return abs(entry["d_len"]) + abs(entry["d_nov1"]) + abs(entry["d_rep3"])


def run_until_convergence(state: SelfTrainState, generator, corpus: Corpus,
                          search_config: SearchConfig,
                          disc_hparams: DiscriminatorHparams,
                          max_iters: int, tau_acc: float = 0.55,
                          tau_delta: float | None = None,
                          on_iteration=None) -> SelfTrainState:
    """Iterate until the discriminator stops separating fresh generations
    (accuracy < tau_acc), the metric-delta sum plateaus, or max_iters.
    on_iteration, if given, is called with the new state after each round."""
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if tau_delta is None:
        tau_delta = 0.01 * search_config.t_max
    for _ in range(max_iters):
        prev_delta = _delta_sum(state.history[-1])
        state = self_train_step(state, generator, corpus, search_config, disc_hparams)
        if on_iteration is not None:
            on_iteration(state)
        entry = state.history[-1]
        if entry["val_accuracy"] < tau_acc:
            state.stopped_reason = "accuracy_floor"
            return state
        if prev_delta - _delta_sum(entry) < tau_delta:
            state.stopped_reason = "delta_plateau"
            return state
    state.stopped_reason = "max_iters"
    return state
