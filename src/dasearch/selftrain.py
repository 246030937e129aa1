"""Discriminator self-training loop.

Iteration 0 trains a bootstrap discriminator on plain beam-search outputs;
each following iteration decodes with the current discriminator, rebuilds the
generated prefix set from those outputs and retrains. Every round counts its
model's right calls on the held-out pairs' prefixes once, by length
(`held_out`); its `val_accuracy` is their share. The generator is never
modified. A bootstrap round's state, but for its model, is a JSON-able
record (round_record), from which resumed_bootstrap rebuilds it, given the
model that round trained (see bootstrap_provenance), without decoding
anything; no function here reads or writes a file.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import partial

from dasearch.corpus import Corpus, Vocabulary
from dasearch.decoder import (
    SearchConfig,
    das_beam_search,
    decode_corpus,
    hypothesis_content,
    plain_beam_search,
)
from dasearch.discriminator import (
    DiscriminatorError,
    DiscriminatorModel,
    FeatureConfig,
    accuracy_by_length,
    build_prefix_sets,
    check_training_settings,
    train_discriminator,
)
from dasearch.metrics import evaluate_system

VAL_FRACTION = 0.1  # share of the pairs held out to validate each discriminator
# the version of what bootstrap computes from its inputs: bump it with any
# change to that computation, so no model file of the old one is reused
BOOTSTRAP_REVISION = 3


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

    def __post_init__(self):
        # checked here, before a round decodes, and again by train_discriminator
        check_training_settings(self.epochs, self.learning_rate, self.ratio)


@dataclass
class SelfTrainState:
    iteration: int
    discriminator: DiscriminatorModel
    last_generations: dict
    history: list = field(default_factory=list)
    val_ids: frozenset = frozenset()
    stopped_reason: str | None = None
    past_generations: list = field(default_factory=list)
    held_out: list = field(default_factory=list)  # (t, right, n) on val_ids, t = 1..t_max


# the keys of a round's history entry, in order: the columns of history.csv
HISTORY_KEYS = ("iteration", "val_accuracy", "final_objective", "d_len", "d_nov1", "d_nov3",
                "d_rep1", "d_rep3", "bleu1", "rouge1", "rougeL", "distinct_G")


def _history_entry(iteration, val_accuracy, final_objective, generations, corpus, G):
    report = evaluate_system(generations, corpus)
    return {"iteration": iteration, "val_accuracy": val_accuracy,
            "final_objective": final_objective,
            **{key: getattr(report, key)
               for key in ("d_len", "d_nov1", "d_nov3", "d_rep1", "d_rep3", "bleu1")},
            "rouge1": report.rouge1_f, "rougeL": report.rougeL_f,
            "distinct_G": len({tokens for _, tokens in G})}  # distinct sequences trained on


def _round(corpus: Corpus, search_one, config: FeatureConfig,
           hparams: DiscriminatorHparams, iteration: int, seed: int, val_ids,
           history=(), past=(), init=None, lr_scale: float = 1.0) -> SelfTrainState:
    """Decode every pair with `search_one`, train a discriminator on the
    prefixes of the non-validation pairs (plus the `past` generated sets when
    hparams.replay is on), count its right calls on the held-out pairs' prefixes
    by length and record the round's metrics."""
    generations = {i: hypothesis_content(h)
                   for i, h in decode_corpus(corpus, search_one).items()}
    train = corpus.subset({p.id for p in corpus.pairs} - val_ids)
    H_tr, G_tr = build_prefix_sets(train, generations, t_max=config.t_max)
    if hparams.replay:
        for old in past:
            G_tr += build_prefix_sets(train, old, t_max=config.t_max)[1]
    model = train_discriminator(H_tr, G_tr, config, epochs=hparams.epochs,
                                learning_rate=hparams.learning_rate * lr_scale,
                                seed=seed, init=init, ratio=hparams.ratio)
    H_val, G_val = build_prefix_sets(corpus.subset(val_ids), generations,
                                     t_max=config.t_max)
    held_out = accuracy_by_length(model, H_val, G_val, range(1, config.t_max + 1))
    state = SelfTrainState(iteration=iteration, discriminator=model,
                           last_generations=generations, history=list(history),
                           val_ids=val_ids, past_generations=list(past), held_out=held_out)
    _, right, n = map(sum, zip(*held_out))
    state.history.append(_history_entry(iteration, right / n, model.final_objective,
                                        generations, corpus, G_tr))
    return state


def bootstrap(corpus: Corpus, generator, disc_hparams: DiscriminatorHparams,
              search_config: SearchConfig) -> SelfTrainState:
    """Iteration 0: plain beam-search outputs seed the first discriminator."""
    feature_config = FeatureConfig.from_corpus(
        corpus, d_hash=disc_hparams.d_hash, use_source=disc_hparams.use_source,
        t_max=search_config.t_max)
    return _round(corpus, partial(plain_beam_search, generator, config=search_config),
                  feature_config, disc_hparams, iteration=0, seed=disc_hparams.seed,
                  val_ids=validation_ids(corpus, disc_hparams))


def validation_ids(corpus: Corpus, disc_hparams: DiscriminatorHparams) -> frozenset:
    """The ids of the pairs every round holds out: VAL_FRACTION of them, at
    least one, drawn with the discriminator seed."""
    ids = sorted(p.id for p in corpus.pairs)
    rng = random.Random(disc_hparams.seed)
    rng.shuffle(ids)
    n_val = max(1, int(len(ids) * VAL_FRACTION))
    if len(ids) - n_val < 1:
        raise DiscriminatorError(f"train split too small: {len(ids)} pair(s), {n_val} held out, "
                                 f"none left to train the bootstrap discriminator on")
    return frozenset(ids[:n_val])


def round_record(state: SelfTrainState, model_sha256: str) -> dict:
    """What resumed_bootstrap needs of bootstrap round `state` besides its
    model, as JSON values: the sha256 of the model's file, every pair's
    generated tokens by id and the round's history entry."""
    return {"model_sha256": model_sha256,
            "generations": {i: list(tokens) for i, tokens in state.last_generations.items()},
            "history": state.history[0]}


def resumed_bootstrap(record, model_sha256: str, corpus: Corpus, model: DiscriminatorModel,
                      disc_hparams: DiscriminatorHparams) -> SelfTrainState:
    """The state bootstrap returned when it trained `model` on `corpus`,
    rebuilt from `record`, that round's round_record, where `model`'s file
    has sha256 `model_sha256`; it decodes, featurises and evaluates nothing.
    A record that is not one raises DiscriminatorError naming what does not
    hold: it must name that sha256; its generations must cover exactly the
    corpus's pair ids, each a non-empty list of ids of the corpus vocabulary
    other than SOS and EOS; and its history entry must have HISTORY_KEYS's
    keys, in order, with iteration 0 and every value a finite number. Other
    keys, such as an older record's held-out counts, are ignored, and
    held_out is empty."""
    if not isinstance(record, dict) or record.get("model_sha256") != model_sha256:
        raise DiscriminatorError("it records another model file")
    generations, entry = record.get("generations"), record.get("history")
    if not isinstance(generations, dict):
        raise DiscriminatorError("it holds no generations")
    ids = [p.id for p in corpus.pairs]
    if missing := set(ids) - generations.keys():
        raise DiscriminatorError(f"it has no generation of pair {min(missing)!r}")
    if extra := generations.keys() - set(ids):
        raise DiscriminatorError(f"its pair {min(extra)!r} is not in the train split")
    n_vocab = len(corpus.vocab)
    for i in ids:
        tokens = generations[i]
        if not (isinstance(tokens, list) and tokens and all(
                type(tok) is int and 0 <= tok < n_vocab and tok not in (Vocabulary.sos,
                                                                        Vocabulary.eos)
                for tok in tokens)):
            raise DiscriminatorError(f"the generation of pair {i!r} is not a non-empty list of ids of "
                             f"the {n_vocab}-token vocabulary other than SOS and EOS")
    if not (isinstance(entry, dict) and tuple(entry) == HISTORY_KEYS
            and all(type(value) in (int, float) for value in entry.values())
            and type(entry["iteration"]) is int and entry["iteration"] == 0):
        raise DiscriminatorError("its history entry is not that of a bootstrap round")
    for key, value in entry.items():  # json.load reads NaN and Infinity
        if not math.isfinite(value):
            raise DiscriminatorError(f"its history entry's {key} is {value}, not a finite number")
    return SelfTrainState(iteration=0, discriminator=model,
                          last_generations={i: tuple(generations[i]) for i in ids},
                          history=[entry], val_ids=validation_ids(corpus, disc_hparams))


def bootstrap_provenance(train_sha256: str, generator_sha256: str,
                         disc_hparams: DiscriminatorHparams,
                         search_config: SearchConfig) -> dict[str, str]:
    """Everything the bootstrap discriminator is a function of, as strings by
    key: the sha256 of the train corpus file and of the generator model file
    (which records its vocabulary's hash), every setting bootstrap reads, with
    the search settings as plain_beam_search runs them, and the constants of
    its computation. A model file that records the provenance of a run holds
    the discriminator that run's bootstrap would train."""
    return {
        "bootstrap_revision": str(BOOTSTRAP_REVISION),
        "train_sha256": train_sha256,
        "generator_sha256": generator_sha256,
        **{key: repr(getattr(disc_hparams, key)) for key in
           ("d_hash", "epochs", "learning_rate", "use_source", "ratio", "seed")},
        **{key: repr(getattr(search_config, key)) for key in
           ("beam_size", "t_max", "length_penalty_beta", "block_repeated_trigrams",
            "final_by_s_gen")},
        "val_fraction": repr(VAL_FRACTION),
    }


def self_train_step(state: SelfTrainState, generator, corpus: Corpus,
                    search_config: SearchConfig,
                    disc_hparams: DiscriminatorHparams) -> SelfTrainState:
    """One retraining round: decode with the current discriminator, rebuild G,
    train a fresh discriminator on the new outputs."""
    warm = disc_hparams.warm_start
    return _round(
        corpus, partial(das_beam_search, generator, state.discriminator, config=search_config),
        state.discriminator.config, disc_hparams, iteration=state.iteration + 1,
        seed=disc_hparams.seed * 1000003 + state.iteration + 1, val_ids=state.val_ids,
        history=state.history, past=state.past_generations + [state.last_generations],
        init=state.discriminator if warm else None,
        # fine-tuning rounds use a gentler step than the from-scratch bootstrap
        lr_scale=1.0 / (state.iteration + 1) if warm else 1.0)


def _delta_sum(entry) -> float:
    return abs(entry["d_len"]) + abs(entry["d_nov1"]) + abs(entry["d_rep3"])


def run_until_convergence(state: SelfTrainState, generator, corpus: Corpus,
                          search_config: SearchConfig,
                          disc_hparams: DiscriminatorHparams,
                          max_iters: int, tau_acc: float = 0.55,
                          tau_delta: float | None = None,
                          on_iteration=None) -> SelfTrainState:
    """Iterate until the discriminator stops separating fresh generations
    (accuracy < tau_acc), the metric-delta sum falls by less than tau_delta,
    or max_iters. A round whose sum fell by less stops as delta_plateau, or
    as regressed when the sum rose by more than tau_delta.
    on_iteration, if given, is called with the new state after each round."""
    if max_iters < 1:
        raise DiscriminatorError(f"max_iters must be >= 1, got {max_iters}")
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
        fall = prev_delta - _delta_sum(entry)
        if fall < tau_delta:
            state.stopped_reason = "regressed" if -fall > tau_delta else "delta_plateau"
            return state
    state.stopped_reason = "max_iters"
    return state
