import math
import pickle
import random
import re
import tempfile
from array import array
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dasearch.corpus import Corpus, Vocabulary
from dasearch.generator import (BACKOFF, GeneratorError, NGramCopyModel, Row, copy_terms,
                                _normalised, ngram_terms, train_generator)

from conftest import make_corpus, make_vocab, reframed, row_probs, sequence_logprob

SOS, EOS = Vocabulary.sos, Vocabulary.eos


@pytest.fixture
def abc_vocab():
    return make_vocab("a", "b", "c")  # ids a=3, b=4, c=5


@pytest.fixture
def ab_corpus(abc_vocab):
    return make_corpus(abc_vocab, [("p", ["a", "b", "c"], ["a", "b"])])


# --- training counts ----------------------------------------------------------


def test_bigram_counts_from_single_reference(ab_corpus, abc_vocab):
    model = train_generator(ab_corpus, order=2)
    a, b = abc_vocab.id_of("a"), abc_vocab.id_of("b")
    assert model.counts[(SOS,)] == {a: 1}
    assert model.counts[(a,)] == {b: 1}
    assert model.counts[(b,)] == {EOS: 1}


def test_retrain_writes_identical_model_file(ab_corpus, tmp_path):
    p1, p2 = tmp_path / "m1", tmp_path / "m2"
    train_generator(ab_corpus, order=2).save(p1)
    train_generator(ab_corpus, order=2).save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_constructor_validates_hyperparameters(abc_vocab):
    with pytest.raises(GeneratorError):
        NGramCopyModel(abc_vocab, order=0)
    with pytest.raises(GeneratorError):
        NGramCopyModel(abc_vocab, kappa=0.0)
    with pytest.raises(GeneratorError):
        NGramCopyModel(abc_vocab, lambda_copy=1.5)


# --- next-token distribution --------------------------------------------------


def test_untrained_kappa_floor_is_uniform_over_non_sos(abc_vocab):
    model = NGramCopyModel(abc_vocab, order=2, kappa=1.0, lambda_copy=0.0)
    probs = row_probs(model, [3], [SOS])
    assert probs[SOS] == 0.0
    rest = np.delete(probs, SOS)
    assert np.allclose(rest, 1.0 / (len(abc_vocab) - 1))
    assert math.isclose(probs.sum(), 1.0, abs_tol=1e-12)


def test_pure_copy_distribution(abc_vocab):
    model = NGramCopyModel(abc_vocab, lambda_copy=1.0)
    a, b, c = (abc_vocab.id_of(t) for t in "abc")
    probs = row_probs(model, [a, a, b], [SOS])
    assert math.isclose(probs[a], 2 / 3, abs_tol=1e-12)
    assert math.isclose(probs[b], 1 / 3, abs_tol=1e-12)
    assert probs[c] == 0.0 and probs[EOS] == 0.0


def test_half_mixture_matches_hand_arithmetic(ab_corpus, abc_vocab):
    # unigram counts from reference "a b": a=1, b=1, EOS=1; kappa=1 floor
    # over 6 ids minus SOS -> ngram = [0, 2, 1, 2, 2, 1] / 8
    # copy for source [a, a, b] -> a=2/3, b=1/3
    model = train_generator(ab_corpus, order=1, kappa=1.0, lambda_copy=0.5)
    a, b = abc_vocab.id_of("a"), abc_vocab.id_of("b")
    probs = row_probs(model, [a, a, b], [SOS])
    expected = 0.5 * np.array([0, 2, 1, 2, 2, 1]) / 8.0
    expected[a] += 0.5 * 2 / 3
    expected[b] += 0.5 * 1 / 3
    assert np.allclose(probs, expected, atol=1e-12)


def test_mixture_is_linear_in_lambda(ab_corpus, abc_vocab):
    a, b = abc_vocab.id_of("a"), abc_vocab.id_of("b")
    source, prefix = [a, a, b], [SOS, a]
    p0, p1, p_half = (row_probs(train_generator(ab_corpus, lambda_copy=lam), source, prefix)
                      for lam in (0.0, 1.0, 0.5))
    assert np.allclose(p_half, 0.5 * p0 + 0.5 * p1, atol=1e-12)


def test_next_probs_input_validation(ab_corpus):
    model = train_generator(ab_corpus)
    with pytest.raises(GeneratorError):
        model.next_logprobs([], [SOS])
    with pytest.raises(GeneratorError):
        model.next_logprobs([3], [3])


# --- sequence log-probability ---------------------------------------------------


def test_single_step_sequence_is_one_term(ab_corpus):
    model = train_generator(ab_corpus)
    source = [3, 4]
    assert math.isclose(sequence_logprob(model, source, [EOS]),
                        float(model.next_logprobs(source, [SOS])[EOS]),
                        abs_tol=1e-12)


def test_sequence_logprob_chain_rule(ab_corpus, abc_vocab):
    model = train_generator(ab_corpus)
    a, b = abc_vocab.id_of("a"), abc_vocab.id_of("b")
    source = [a, a, b]
    expected = (float(model.next_logprobs(source, [SOS])[a])
                + float(model.next_logprobs(source, [SOS, a])[b])
                + float(model.next_logprobs(source, [SOS, a, b])[EOS]))
    assert math.isclose(sequence_logprob(model, source, [a, b, EOS]), expected,
                        abs_tol=1e-9)


def test_sequence_logprob_matches_per_step_recomputation(synth_corpus, synth_generator):
    rng = random.Random(0)
    for _ in range(20):
        p = rng.choice(synth_corpus.pairs)
        y = tuple(p.reference[:rng.randint(1, 8)]) + (EOS,)
        total = 0.0
        prefix = (SOS,)
        for tok in y:
            total += float(synth_generator.next_logprobs(p.source, prefix)[tok])
            prefix += (tok,)
        assert math.isclose(sequence_logprob(synth_generator, p.source, y), total,
                            abs_tol=1e-9)


def test_sequence_logprob_validates_eos(ab_corpus):
    model = train_generator(ab_corpus)
    with pytest.raises(GeneratorError):
        sequence_logprob(model, [3], [3, 4])  # no terminal EOS
    with pytest.raises(GeneratorError):
        sequence_logprob(model, [3], [EOS, 3, EOS])  # internal EOS


def test_partial_scores_strictly_decrease(synth_corpus, synth_generator):
    p = synth_corpus.pairs[0]
    prefix = (SOS,)
    running = 0.0
    for tok in tuple(p.reference[:10]) + (EOS,):
        step = float(synth_generator.next_logprobs(p.source, prefix)[tok])
        assert step < 0.0
        running += step
        prefix += (tok,)
    assert running < 0.0


# --- distribution properties ----------------------------------------------------


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_normalization_over_random_contexts(data, synth_corpus):
    """Row probabilities sum to 1 and SOS gets exactly 0."""
    model = train_generator(synth_corpus, order=data.draw(st.integers(1, 4), label="order"),
                            kappa=data.draw(st.sampled_from([0.01, 1.0, 5.0]), label="kappa"),
                            lambda_copy=data.draw(st.sampled_from([0.0, 0.3, 0.75, 1.0]),
                                                  label="lambda_copy"))
    content = st.integers(Vocabulary.unk, len(synth_corpus.vocab) - 1)
    pair = data.draw(st.sampled_from(synth_corpus.pairs), label="pair")
    if data.draw(st.booleans(), label="corpus_source"):
        source = pair.source
    else:
        source = tuple(data.draw(st.lists(content, min_size=1, max_size=12), label="source"))
    # a reference prefix reaches observed n-gram contexts; random tokens mostly back off
    if data.draw(st.booleans(), label="reference_prefix"):
        content_prefix = pair.reference[:data.draw(st.integers(0, 10), label="t")]
    else:
        content_prefix = tuple(data.draw(st.lists(content, max_size=8), label="prefix"))
    probs = row_probs(model, source, (SOS,) + tuple(content_prefix))
    assert abs(math.fsum(probs.tolist()) - 1.0) <= 1e-12
    assert probs[SOS] == 0.0


def test_high_copy_weight_keeps_modal_token_in_source(synth_corpus):
    model = train_generator(synth_corpus, lambda_copy=0.9)
    rng = random.Random(2)
    nv = len(synth_corpus.vocab)
    hits = 0
    for _ in range(100):
        p = rng.choice(synth_corpus.pairs)
        prefix = (SOS,) + tuple(rng.randrange(3, nv) for _ in range(rng.randint(0, 4)))
        modal = int(np.argmax(row_probs(model, p.source, prefix)))
        hits += int(modal in p.source)
    assert hits >= 90


def test_deterministic_scoring(synth_corpus, synth_generator):
    p = synth_corpus.pairs[3]
    prefix = (SOS,) + tuple(p.reference[:4])
    first = synth_generator.next_logprobs(p.source, prefix)
    second = synth_generator.next_logprobs(p.source, prefix)
    nv = len(synth_corpus.vocab)
    assert [first[tok] for tok in range(nv)] == [second[tok] for tok in range(nv)]
    assert first.top(nv) == second.top(nv)


def test_train_generator_refuses_an_empty_corpus(abc_vocab):
    with pytest.raises(GeneratorError, match="empty corpus"):
        train_generator(Corpus((), abc_vocab))


def test_copy_cache_keeps_only_the_last_source(ab_corpus):
    model = train_generator(ab_corpus, order=2)
    row_probs(model, (3, 4, 5), (SOS, 3))
    second = row_probs(model, (5, 5), (SOS, 3))
    assert model._last[0] == (5, 5)
    fresh = train_generator(ab_corpus, order=2)
    assert np.array_equal(second, row_probs(fresh, (5, 5), (SOS, 3)))
    assert np.array_equal(row_probs(model, (3, 4, 5), (SOS, 3)),
                          row_probs(fresh, (3, 4, 5), (SOS, 3)))
    assert model._last[0] == (3, 4, 5)


def row_state(model, source, prefix):
    """A row's probability bits, its log-probabilities and its full ranking."""
    row, nv = model.next_logprobs(source, prefix), len(model.vocab)
    return (row_probs(model, source, prefix).tobytes(), [row[tok] for tok in range(nv)],
            row.top(nv))


def cached_lists(model):
    """Every list the model's caches hold, the kept rows' rankings among them."""
    copy = model._last[1]  # (counts, the term of each count, the plans of top)
    return [*(x for term in model._lm_cache.values() for x in term),
            *([model._unigram] if model._unigram is not None else []),
            *([copy[1], *(whole for whole, _ in copy[2].values())] if copy is not None else []),
            *(row._top for rows in (model._last[2], *(r for _, r in model._kept.values()))
              for row in rows.values())]


@pytest.mark.parametrize("lambda_copy", [0.0, 0.75, 1.0])
def test_every_row_is_a_new_writable_array(synth_corpus, lambda_copy):
    """next_logprobs returns the Row it keeps for the source and the prefix's
    context at every lambda_copy, and the ranking its top returns is a list
    of its own, no list a cache holds, so a write into one changes no later
    row."""
    model = train_generator(synth_corpus, order=3, lambda_copy=lambda_copy)
    source, prefixes = synth_corpus.pairs[0].source, [(SOS,), (SOS, 3), (SOS, 3, 4)]
    nv = len(synth_corpus.vocab)
    before = [row_state(model, source, prefix) for prefix in prefixes]
    for prefix in prefixes * 2:
        row = model.next_logprobs(source, prefix)
        assert row is model.next_logprobs(source, prefix)
        top = row.top(nv)
        assert model._lm_cache and not any(top is cached for cached in cached_lists(model))
        top[:] = [(SOS, 0.0)] * nv
    assert [row_state(model, source, prefix) for prefix in prefixes] == before


@pytest.mark.parametrize("lambda_copy", [0.0, 0.75, 1.0])
def test_a_pickled_model_keeps_its_caches(synth_corpus, lambda_copy):
    """A model pickled after it cached rows (as decode_corpus sends one to
    its workers) unpickles with those caches and the rows it keeps, and its
    rows are the same bits as the model's; after new counts, they are the
    mixture computed from scratch."""
    model = train_generator(synth_corpus, order=3, lambda_copy=lambda_copy)
    source, rng = synth_corpus.pairs[0].source, random.Random(0)
    nv = len(synth_corpus.vocab)
    prefixes = [(SOS,) + tuple(rng.randrange(2, nv) for _ in range(rng.randint(0, 4)))
                for _ in range(40)]
    rows = [row_state(model, source, prefix) for prefix in prefixes]
    copy = pickle.loads(pickle.dumps(model))
    assert copy._lm_cache.keys() == model._lm_cache.keys()
    assert copy._context_of_tail == model._context_of_tail
    assert [(array("d", term).tobytes(), order, neg) for term, order, neg
            in copy._lm_cache.values()] == [(array("d", term).tobytes(), order, neg) for
                                            term, order, neg in model._lm_cache.values()]
    assert copy._last[:2] == model._last[:2] and copy._unigram == model._unigram
    assert copy._last[2].keys() == model._last[2].keys() and copy._seen == model._seen
    assert [row_state(copy, source, prefix) for prefix in prefixes] == rows
    copy.add_sequence(prefixes[-1][1:])  # new counts clear what was cached before them
    for prefix in prefixes:
        assert row_probs(copy, source, prefix).tobytes() == \
            row_reference(copy, source, prefix).tobytes()


@pytest.mark.parametrize("bad", [-1, 6])
def test_a_source_id_outside_the_vocabulary_is_refused(ab_corpus, bad):
    """A source token id the vocabulary does not hold is an error naming it,
    not a count for another token (-1 would count as the last id), also at
    lambda_copy 0, where the source's copy term is all zero."""
    for lambda_copy in (0.0, 0.75):
        model = train_generator(ab_corpus, order=2, lambda_copy=lambda_copy)
        with pytest.raises(GeneratorError, match=re.escape(
                f"source token id {bad} is outside the 6-token vocabulary")):
            row_probs(model, (3, bad, 4), (SOS,))
        assert row_probs(model, (3, 4), (SOS,)).tobytes() == \
            row_reference(model, (3, 4), (SOS,)).tobytes()


def backoff_reference(model, prefix):
    """The n-gram distribution after `prefix`, computed from the prefix's own
    tail with nothing cached."""
    tail = tuple(prefix[-(model.order - 1):]) if model.order > 1 else ()
    probs = np.full(len(model.vocab), model.kappa)
    for tok, c in model.counts.get((), {}).items():
        probs[tok] += c
    probs[SOS] = 0.0
    probs /= math.fsum(probs)
    for k in range(2, model.order + 1):
        if len(tail) < k - 1:
            break
        table = model.counts.get(tail[-(k - 1):])
        if not table:
            continue
        total = sum(table.values())
        overlaid = BACKOFF * probs
        for tok, c in table.items():
            overlaid[tok] = c / total
        overlaid[SOS] = 0.0
        probs = overlaid / math.fsum(overlaid)
    return probs


def row_reference(model, source, prefix):
    """The row after `prefix` as the three-op mixture of the n-gram and copy
    distributions, computed with nothing cached."""
    lm = backoff_reference(model, prefix)
    if model.lambda_copy == 0.0:
        return lm
    copy = np.zeros(len(model.vocab))
    for tok in source:
        copy[tok] += 1.0
    copy[SOS] = 0.0
    copy[EOS] = 0.0
    total = copy.sum()
    if total > 0:
        copy /= total
    return model.lambda_copy * copy + (1.0 - model.lambda_copy) * lm


@pytest.mark.parametrize("order", [1, 2, 3])
def test_lm_cache_is_bounded_by_the_model_not_by_the_prefixes_asked(synth_corpus, tmp_path,
                                                                    order):
    """The n-gram term cache, keyed by context, holds at most 1 + the model's
    table keys however many prefixes are asked about; the context memo, keyed
    by the raw tail, is cleared when it holds that many."""
    path = tmp_path / "gen.model"
    for lambda_copy in (0.0, 0.75):
        trained = train_generator(synth_corpus, order=order, lambda_copy=lambda_copy)
        trained.save(path)
        model = NGramCopyModel.load(path, synth_corpus.vocab)
        bound = 1 + len(model.counts)
        rng = random.Random(order)
        nv = len(synth_corpus.vocab)
        tails, memo_sizes = set(), set()
        for _ in range(3000):
            prefix = (SOS,) + tuple(rng.randrange(2, nv) for _ in range(rng.randint(0, 5)))
            tails.add(prefix[-(order - 1):] if order > 1 else ())
            got = row_probs(model, (3,), prefix)
            assert got.tobytes() == row_reference(trained, (3,), prefix).tobytes()
            memo_sizes.add(len(model._context_of_tail))
        assert len(model._lm_cache) <= bound
        assert max(memo_sizes) <= bound
        if order == 3:
            assert len(tails) > bound  # a cache keyed by the raw tail would outgrow it
            assert max(memo_sizes) == bound  # and this one filled, and was cleared


@pytest.fixture(scope="module")
def wide_corpus():
    """A corpus over 300 words (303 ids), references drawn so that the
    unigram counts differ."""
    words = [f"w{i}" for i in range(300)]
    rng = random.Random(5)
    return make_corpus(make_vocab(*words), [
        (f"r{i}", rng.choices(words, k=rng.randint(1, 30)),
         rng.choices(words, weights=range(300, 0, -1), k=rng.randint(1, 12)))
        for i in range(200)])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_rows_equal_the_mixture_computed_from_scratch_bit_for_bit(data, synth_corpus,
                                                                  wide_corpus):
    """A row's probabilities are the bits of numpy's three-op mixture with
    nothing cached, and row[tok] is their math.log (-inf at a zero), over
    vocabularies of 80 and 303 ids, whatever
    sources (lists or tuples, changed in place or interleaved) and prefixes
    (shorter than the order too) were asked before, and after add_sequence
    gives a prefix's tail a new continuation; whether the row is zero at SOS
    only, at every token not in the source (lambda_copy 1), or where
    (1 - lambda_copy) * NGram underflows (kappa 5e-324)."""
    corpus = data.draw(st.sampled_from([synth_corpus, wide_corpus]), label="corpus")
    model = train_generator(corpus, order=data.draw(st.integers(1, 4), label="order"),
                            kappa=data.draw(st.sampled_from([1.0, 1e-3, 5e-324]), label="kappa"),
                            lambda_copy=data.draw(st.sampled_from([0.0, 0.3, 0.75, 1.0]),
                                                  label="lambda_copy"))
    nv = len(corpus.vocab)
    content = st.integers(Vocabulary.unk, nv - 1)
    corpus_sources = st.sampled_from([p.source for p in corpus.pairs])
    sources = [list(s) if data.draw(st.booleans(), label="as_list") else tuple(s)
               for s in data.draw(st.lists(corpus_sources | st.lists(content, min_size=1,
                                                                     max_size=12),
                                           min_size=1, max_size=3), label="sources")]
    calls = data.draw(st.lists(st.tuples(st.integers(0, len(sources) - 1),
                                         st.lists(content, max_size=5), st.booleans(),
                                         st.booleans(), content),
                               min_size=1, max_size=12), label="calls")

    def check(source, prefix):
        probs = row_reference(model, source, prefix)
        assert row_probs(model, source, prefix).tobytes() == probs.tobytes()
        row = model.next_logprobs(source, prefix)
        assert [row[tok] for tok in range(nv)] == [math.log(p) if p > 0.0 else -math.inf
                                                   for p in probs.tolist()]

    for which, prefix, change, add, token in calls:
        source, prefix = sources[which], (SOS, *prefix)
        if change and isinstance(source, list):
            source[len(prefix) % len(source)] = token  # the same list, other tokens
        check(source, prefix)
        if add:  # the prefix's tail now has an observed continuation
            model.add_sequence(prefix[1:] + (token,))
            check(source, prefix)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_top_is_the_stable_argsort_of_the_probabilities(data, synth_corpus, wide_corpus):
    """row.top(n) is np.argsort(-p, kind="stable")[:n], with the math.log of
    each probability: by probability, ties by id, whatever n was asked
    before (top is memoised per row), zeros last, at n up to the
    vocabulary's size and beyond. Sources that repeat ids and kappa 1e-3
    make ties between source and non-source tokens."""
    corpus = data.draw(st.sampled_from([synth_corpus, wide_corpus]), label="corpus")
    model = train_generator(corpus, order=data.draw(st.integers(1, 3), label="order"),
                            kappa=data.draw(st.sampled_from([1.0, 1e-3, 5e-324]), label="kappa"),
                            lambda_copy=data.draw(st.sampled_from([0.0, 0.3, 0.75, 1.0]),
                                                  label="lambda_copy"))
    nv = len(corpus.vocab)
    content = st.integers(Vocabulary.unk, nv - 1)
    source = data.draw(st.sampled_from([p.source for p in corpus.pairs])
                       | st.lists(content, min_size=1, max_size=12), label="source")
    prefix = (SOS, *data.draw(st.lists(content, max_size=4), label="prefix"))
    row = model.next_logprobs(source, prefix)
    probs = row_reference(model, source, prefix)
    ranking = np.argsort(-probs, kind="stable").tolist()
    for n in data.draw(st.lists(st.integers(0, nv + 2), min_size=1, max_size=4), label="n"):
        assert row.top(n) == [(tok, math.log(probs[tok]) if probs[tok] > 0.0 else -math.inf)
                              for tok in ranking[:n]]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_top_ranks_ties_and_near_ties_as_a_stable_argsort(data):
    """Row.top over hand-made terms: n-gram terms that tie, that differ by
    less than a copy term's last bit (so their sums tie while the n-gram
    order does not), zeros and subnormals, and copy groups of every size
    against every n. It equals np.argsort(-p, kind="stable")[:n] of
    p = copy + n-gram term (the n-gram term off the source), with the
    math.log of each p, for every n in any order."""
    tiny = [0.0, 5e-324, 1e-300, 1e-17, 2e-17, 3e-17]
    term = data.draw(st.lists(st.sampled_from(tiny + [0.01, 0.01 + 2.0 ** -58, 0.02, 0.05, 0.1]),
                              min_size=2, max_size=40), label="term")
    nv = len(term)
    counts = Counter(data.draw(st.lists(st.integers(0, nv - 1), min_size=1, max_size=30),
                               label="source"))
    lambda_copy = data.draw(st.sampled_from([0.0, 0.25, 0.75, 1.0]), label="lambda_copy")
    row = Row(ngram_terms(term), copy_terms(Counter(counts), lambda_copy))
    total = sum(count for tok, count in counts.items() if tok not in (SOS, EOS))
    copy = {tok: lambda_copy * (count / total) for tok, count in counts.items()
            if tok not in (SOS, EOS)}
    probs = np.array([copy.get(tok, 0.0) + term[tok] for tok in range(nv)])
    ranking = np.argsort(-probs, kind="stable").tolist()
    for n in data.draw(st.lists(st.integers(0, nv + 1), min_size=1, max_size=5), label="n"):
        assert row.top(n) == [(tok, math.log(probs[tok]) if probs[tok] > 0.0 else -math.inf)
                              for tok in ranking[:n]]


def test_top_finds_a_lower_copy_group_sum_that_rounds_up_to_the_floor():
    """Copy terms 0.3 (id 5), 0.2 (ids 3, 4) and 0.1 (ids 2, 6, 7), n-gram
    terms 0.0 but id 2's, which is just below 0.1: 0.1 + that rounds up to
    0.2, a tie with ids 3 and 4 that id 2 wins. Its n-gram term falls short
    of the floor 0.2 less its copy term 0.1, so top must allow for rounding
    to find it."""
    term = [0.0] * 8
    term[2] = math.nextafter(0.1, 0.0)
    assert 0.1 + term[2] == 0.2 and term[2] < 0.2 - 0.1
    row = Row(ngram_terms(term), copy_terms(Counter([5, 5, 5, 3, 3, 4, 4, 2, 6, 7]), 1.0))
    assert [tok for tok, _ in row.top(2)] == [5, 2]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_normalised_rows_do_not_depend_on_the_order_of_their_values(data):
    """_normalised of any permutation of finite non-negative floats (with a
    positive sum) is the same permutation of _normalised of the list, bit for
    bit: each value is divided by the one correctly rounded sum."""
    values = data.draw(st.lists(st.floats(0.0, 1e300), min_size=1, max_size=300)
                       .filter(any), label="values")
    order = data.draw(st.permutations(range(len(values))), label="order")
    row = _normalised(values)
    assert [p.hex() for p in _normalised([values[i] for i in order])] == \
        [row[i].hex() for i in order]


def test_context_is_the_overlaid_contexts_even_with_gaps(abc_vocab, tmp_path):
    a, b, c = 3, 4, 5
    model = NGramCopyModel(abc_vocab, order=3, lambda_copy=0.0)
    model.counts[()] = {a: 2, b: 1}
    model.counts[(b,)] = {c: 1}
    model.counts[(a, c)] = {b: 3}  # no bigram context (c,): a file may hold this
    assert model.context((SOS,)) == ()
    assert model.context((SOS, a, b)) == ((b,),)
    assert model.context((SOS, b, a, c)) == ((a, c),)
    assert model.context((SOS, b, b)) == model.context((SOS, a, b))
    for prefix in [(SOS,), (SOS, a, b), (SOS, a, c), (SOS, b, c), (SOS, c, b), (SOS, b, b)]:
        assert row_probs(model, (a,), prefix).tobytes() == \
            backoff_reference(model, prefix).tobytes()


# --- persistence ----------------------------------------------------------------


def test_model_save_load_roundtrip(ab_corpus, abc_vocab, tmp_path):
    model = train_generator(ab_corpus, order=2, kappa=0.5, lambda_copy=0.3)
    path = tmp_path / "gen.model"
    model.save(path)
    reloaded = NGramCopyModel.load(path, abc_vocab)
    probs = row_probs(model, [3, 4], [SOS, 3])
    assert np.allclose(row_probs(reloaded, [3, 4], [SOS, 3]), probs, atol=0)


def test_model_load_rejects_wrong_vocabulary(ab_corpus, tmp_path):
    model = train_generator(ab_corpus)
    path = tmp_path / "gen.model"
    model.save(path)
    with pytest.raises(GeneratorError):
        NGramCopyModel.load(path, make_vocab("x", "y"))


@pytest.mark.parametrize("line, problem", [
    ("0 -1 1", "n-gram [0, -1] has a token id outside the 6-token vocabulary"),
    ("0 6 1", "n-gram [0, 6] has a token id outside the 6-token vocabulary"),
    ("0 3 4 5 1", "4-gram [0, 3, 4, 5] in an order-3 model"),
    ("0 4 0", "n-gram [0, 4] has count 0"),
])
def test_model_load_rejects_out_of_range_content(ab_corpus, abc_vocab, tmp_path, line,
                                                 problem):
    path = tmp_path / "gen.model"
    train_generator(ab_corpus).save(path)
    path.write_text(reframed(path.read_text() + line + "\n"))
    with pytest.raises(GeneratorError, match=re.escape(f"generator model file {path}: {problem}")):
        NGramCopyModel.load(path, abc_vocab)


def test_model_load_rejects_a_repeated_ngram(ab_corpus, abc_vocab, tmp_path):
    path = tmp_path / "gen.model"
    train_generator(ab_corpus).save(path)
    lines = path.read_text().splitlines(keepends=True)
    n = next(i for i, line in enumerate(lines, start=1) if line.startswith("0 3 "))
    path.write_text(reframed("".join(lines) + "0 3 7\n"))
    with pytest.raises(GeneratorError, match=re.escape(
            f"truncated or malformed generator model file: {path}: line {len(lines) + 1}: "
            f"'0 3 7' repeats the key of line {n}")):
        NGramCopyModel.load(path, abc_vocab)


@pytest.mark.parametrize("old, new, problem", [
    ("kappa 1.0\nlambda_copy 0.75\n", "lambda_copy 0.75\nkappa 1.0\n",
     "no 'kappa' line where one belongs"),
    ("kappa 1.0\n", "kappa nan\n", "not a finite number: 'nan'"),
    ("lambda_copy 0.75\n", "lambda_copy inf\n", "not a finite number: 'inf'"),
    ("kappa 1.0\n", "kappa -1.0\n", "kappa must be > 0 and finite, got -1.0"),
    ("order 3\n", "order 3 2\n", "the 'order' line holds 2 values, not 1"),
    ("\n0 3 1\n", "\n0 3 x\n", "line 10: '0 3 x': invalid literal for int() with base 10: 'x'"),
], ids=["swapped", "kappa-nan", "lambda-inf", "kappa-negative", "two-values", "ngram-count-x"])
def test_model_load_checks_each_header_line_by_key(ab_corpus, abc_vocab, tmp_path, old, new,
                                                   problem):
    path = tmp_path / "gen.model"
    train_generator(ab_corpus).save(path)
    path.write_text(reframed(path.read_text().replace(old, new, 1)))
    with pytest.raises(GeneratorError, match=re.escape(
            f"truncated or malformed generator model file: {path}: {problem}")):
        NGramCopyModel.load(path, abc_vocab)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_save_load_save_is_byte_identical_and_scores_the_same(data):
    vocab = make_vocab("a", "b", "c", "d")  # ids 3..6
    refs = data.draw(st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=6),
                              min_size=1, max_size=5), label="references")
    model = train_generator(make_corpus(vocab, [(f"r{i}", ["a"], ref)
                                                for i, ref in enumerate(refs)]),
                            order=data.draw(st.integers(1, 3), label="order"),
                            kappa=data.draw(st.floats(1e-3, 1e3), label="kappa"),
                            lambda_copy=data.draw(st.floats(0.0, 1.0), label="lambda_copy"))
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.model"), Path(tmp, "second.model")
        model.save(first)
        loaded = NGramCopyModel.load(first, vocab)
        loaded.save(second)
        assert second.read_bytes() == first.read_bytes()
    source = data.draw(st.lists(st.integers(3, 6), min_size=1, max_size=6), label="source")
    prefixes = data.draw(st.lists(st.lists(st.integers(3, 6), max_size=5), min_size=1,
                                  max_size=5), label="prefixes")
    for prefix in prefixes:
        assert row_probs(loaded, source, (SOS, *prefix)).tobytes() == \
            row_probs(model, source, (SOS, *prefix)).tobytes()
