import builtins
import io
import json
import os
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from dasearch.corpus import generate_synthetic_corpus
from dasearch import selftrain
from dasearch.decoder import Hypothesis, SearchConfig, plain_beam_search
from dasearch.discriminator import DiscriminatorError
from dasearch.generator import train_generator
from dasearch.selftrain import (
    DiscriminatorHparams,
    bootstrap,
    hypothesis_content,
    run_until_convergence,
    self_train_step,
)

SEARCH = SearchConfig(beam_size=2, k_rerank=5, alpha=1.0, t_max=40)
HPARAMS = DiscriminatorHparams(epochs=2, seed=0)


@pytest.fixture(scope="module")
def loop_corpus():
    return generate_synthetic_corpus(5, 40)


@pytest.fixture(scope="module")
def loop_generator(loop_corpus):
    return train_generator(loop_corpus, lambda_copy=0.75)


@pytest.fixture(scope="module")
def state0(loop_corpus, loop_generator):
    return bootstrap(loop_corpus, loop_generator, HPARAMS, SEARCH)


def test_hypothesis_content_strips_frame():
    h = Hypothesis(tokens=(0, 3, 4, 1), s_gen=-1.0, ended=True)
    assert hypothesis_content(h) == (3, 4)


def test_bootstrap_reads_and_writes_no_file(loop_corpus, loop_generator, tmp_path,
                                            monkeypatch):
    opened = []

    def refused(*args, **kwargs):
        opened.append(args)
        raise AssertionError(f"bootstrap opened {args}")

    monkeypatch.chdir(tmp_path)
    for module in (builtins, io, os):
        monkeypatch.setattr(module, "open", refused)
    state = bootstrap(loop_corpus, loop_generator, HPARAMS, SEARCH)
    monkeypatch.undo()
    assert opened == [] and list(tmp_path.iterdir()) == []
    assert state.history[0]["iteration"] == 0


def test_a_round_record_gives_back_the_bootstrap_state(state0, loop_corpus):
    """All of it but the held-out counts, which a record no longer holds:
    only train-discriminator reads them, from the round it has just trained."""
    record = json.loads(json.dumps(selftrain.round_record(state0, "sha")))
    resumed = selftrain.resumed_bootstrap(record, "sha", loop_corpus, state0.discriminator,
                                          HPARAMS)
    assert resumed.held_out == []
    assert replace(resumed, held_out=state0.held_out) == state0
    assert list(state0.history[0]) == list(selftrain.HISTORY_KEYS)


def test_bootstrap_starts_at_iteration_zero(state0):
    assert state0.iteration == 0
    assert len(state0.history) == 1
    assert state0.history[0]["iteration"] == 0


def test_bootstrap_generations_match_standalone_plain_search(state0, loop_corpus,
                                                             loop_generator):
    for p in loop_corpus.pairs[:10]:
        standalone = hypothesis_content(
            plain_beam_search(loop_generator, p.source, SEARCH)[0])
        assert state0.last_generations[p.id] == standalone


def test_bootstrap_discriminator_beats_chance(state0):
    assert state0.history[0]["val_accuracy"] > 0.5


@pytest.mark.parametrize("rounds", [0, 1], ids=["bootstrap", "step"])
def test_val_accuracy_is_the_held_out_counts(state0, loop_corpus, loop_generator, rounds):
    state = state0
    for _ in range(rounds):
        state = self_train_step(state, loop_generator, loop_corpus, SEARCH, HPARAMS)
    assert [t for t, _, _ in state.held_out] == list(range(1, SEARCH.t_max + 1))
    _, right, n = map(sum, zip(*state.held_out))
    assert state.history[-1]["val_accuracy"] == right / n
    # the counts are the held-out prefixes the model scores on their side of 0.5
    model, right_at, n_at = state.discriminator, Counter(), Counter()
    for p in loop_corpus.pairs:
        if p.id not in state.val_ids:
            continue
        for tokens, human in ((p.reference, True), (state.last_generations[p.id], False)):
            for t in range(1, min(len(tokens), SEARCH.t_max) + 1):
                n_at[t] += 1
                right_at[t] += (model.score(p.source, tokens[:t]) > 0.5) == human
    assert state.held_out == [(t, right_at[t], n_at[t]) for t in range(1, SEARCH.t_max + 1)]


def test_step_increments_and_appends_history(state0, loop_corpus, loop_generator):
    state1 = self_train_step(state0, loop_generator, loop_corpus, SEARCH, HPARAMS)
    assert state1.iteration == 1
    assert len(state1.history) == len(state0.history) + 1
    # original state untouched
    assert state0.iteration == 0 and len(state0.history) == 1


def test_step_changes_generations_when_alpha_positive(state0, loop_corpus,
                                                      loop_generator):
    state1 = self_train_step(state0, loop_generator, loop_corpus, SEARCH, HPARAMS)
    assert state1.last_generations != state0.last_generations


def test_step_with_alpha_zero_keeps_bootstrap_generations(state0, loop_corpus,
                                                          loop_generator):
    degenerate = SearchConfig(beam_size=2, k_rerank=5, alpha=0.0, t_max=40)
    state1 = self_train_step(state0, loop_generator, loop_corpus, degenerate, HPARAMS)
    assert state1.last_generations == state0.last_generations


def test_replay_option_changes_training_set(state0, loop_corpus, loop_generator):
    with_replay = self_train_step(state0, loop_generator, loop_corpus, SEARCH,
                                  DiscriminatorHparams(epochs=2, seed=0, replay=True))
    without = self_train_step(state0, loop_generator, loop_corpus, SEARCH, HPARAMS)
    assert with_replay.past_generations == [state0.last_generations]
    assert not np.array_equal(with_replay.discriminator.dense_w,
                              without.discriminator.dense_w)


def test_warm_start_initializes_from_previous_model(state0, loop_corpus,
                                                    loop_generator):
    warm = self_train_step(state0, loop_generator, loop_corpus, SEARCH,
                           DiscriminatorHparams(epochs=2, seed=0, warm_start=True))
    cold = self_train_step(state0, loop_generator, loop_corpus, SEARCH, HPARAMS)
    assert not np.array_equal(warm.discriminator.dense_w, cold.discriminator.dense_w)


def test_convergence_runs_exactly_one_step_with_max_iters_one(state0, loop_corpus,
                                                              loop_generator):
    out = run_until_convergence(state0, loop_generator, loop_corpus, SEARCH, HPARAMS,
                                max_iters=1, tau_acc=0.0, tau_delta=-1e9)
    assert out.iteration == 1
    assert out.stopped_reason == "max_iters"


def test_convergence_accuracy_floor_one_is_degenerate(state0, loop_corpus,
                                                      loop_generator):
    out = run_until_convergence(state0, loop_generator, loop_corpus, SEARCH, HPARAMS,
                                max_iters=5, tau_acc=1.0)
    assert out.stopped_reason == "accuracy_floor"
    # it stops at the first step whose validation accuracy drops below 1.0
    accs = [e["val_accuracy"] for e in out.history[1:]]
    assert accs[-1] < 1.0 and all(a == 1.0 for a in accs[:-1])


def run_scripted_rounds(monkeypatch, state0, loop_corpus, loop_generator, deltas, tau_delta):
    """run_until_convergence over rounds whose (d_len, d_nov1, d_rep3) are
    `deltas`, in order, from a bootstrap whose delta sum is 12; returns the
    final state and the iterations on_iteration saw."""
    deltas = iter(deltas)

    def scripted_step(state, *args):
        d_len, d_nov1, d_rep3 = next(deltas)
        entry = {**state.history[-1], "iteration": state.iteration + 1, "val_accuracy": 0.9,
                 "d_len": d_len, "d_nov1": d_nov1, "d_rep3": d_rep3}
        return replace(state, iteration=state.iteration + 1, history=state.history + [entry])

    monkeypatch.setattr(selftrain, "self_train_step", scripted_step)
    start = replace(state0, history=[{**state0.history[0], "d_len": 10.0, "d_nov1": -1.0,
                                      "d_rep3": 1.0}])
    seen = []
    out = run_until_convergence(start, loop_generator, loop_corpus, SEARCH, HPARAMS,
                                max_iters=5, tau_delta=tau_delta, on_iteration=seen.append)
    return out, [s.iteration for s in seen]


@pytest.mark.parametrize("tau_delta, rounds", [(1.0, 2), (None, 3)], ids=["given", "default"])
def test_convergence_stops_when_the_delta_sum_plateaus(state0, loop_corpus, loop_generator,
                                                      monkeypatch, tau_delta, rounds):
    """It stops with delta_plateau after the first round whose |d_len| +
    |d_nov1| + |d_rep3| falls by less than tau_delta (0.01 * t_max = 0.4 by
    default) from the round before's; a fall of exactly tau_delta goes on."""
    # sums 12 (bootstrap), 11, 10.5, 10.2, 0: falls of 1, 0.5, 0.3
    deltas = [(-8.0, 1.0, 2.0), (6.0, 0.0, -4.5), (6.0, 0.0, -4.2), (0.0, 0.0, 0.0)]
    out, seen = run_scripted_rounds(monkeypatch, state0, loop_corpus, loop_generator, deltas,
                                    tau_delta)
    assert out.stopped_reason == "delta_plateau"
    assert out.iteration == rounds and seen == list(range(1, rounds + 1))


@pytest.mark.parametrize("rise, reason", [(0.75, "regressed"), (0.5, "delta_plateau"),
                                          (0.25, "delta_plateau")])
def test_convergence_stops_as_regressed_when_the_delta_sum_rose(state0, loop_corpus,
                                                                loop_generator, monkeypatch,
                                                                rise, reason):
    """A round whose |d_len| + |d_nov1| + |d_rep3| rose by more than tau_delta
    (0.5 here) stops as regressed, at the round a plateau stops at; a rise of
    tau_delta or less is a plateau."""
    # sums 12 (bootstrap), 11, 11 + rise: a fall of 1, then a rise
    deltas = [(-8.0, 1.0, 2.0), (-8.0, 1.0, 2.0 + rise), (0.0, 0.0, 0.0)]
    out, seen = run_scripted_rounds(monkeypatch, state0, loop_corpus, loop_generator, deltas,
                                    0.5)
    assert out.stopped_reason == reason
    assert out.iteration == 2 and seen == [1, 2]


def test_convergence_validates_max_iters(state0, loop_corpus, loop_generator):
    with pytest.raises(DiscriminatorError, match=r"^max_iters must be >= 1, got 0$"):
        run_until_convergence(state0, loop_generator, loop_corpus, SEARCH, HPARAMS,
                              max_iters=0)


def test_loop_is_deterministic(loop_corpus, loop_generator):
    a = bootstrap(loop_corpus, loop_generator, HPARAMS, SEARCH)
    b = bootstrap(loop_corpus, loop_generator, HPARAMS, SEARCH)
    a1 = self_train_step(a, loop_generator, loop_corpus, SEARCH, HPARAMS)
    b1 = self_train_step(b, loop_generator, loop_corpus, SEARCH, HPARAMS)
    assert a1.last_generations == b1.last_generations
    assert np.array_equal(a1.discriminator.dense_w, b1.discriminator.dense_w)
    assert a1.history == b1.history
