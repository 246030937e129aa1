import itertools
import math
import operator
import random
from collections import Counter
from dataclasses import asdict
from functools import lru_cache, reduce

import pytest
from hypothesis import given, settings, strategies as st

from dasearch import metrics
from dasearch.corpus import Corpus, DocumentPair
from dasearch.metrics import (
    MetricReport,
    MetricsError,
    bleu1,
    delta,
    evaluate_system,
    lcs_length,
    novelty_n,
    repetition_n,
    repetition_position_hist,
    rouge1,
    rougeL,
    zipf_report,
)

from conftest import lcs_dp, make_corpus, make_vocab


def micro_bleu1(pairs) -> float:
    """Corpus-level clipped precision over pooled counts, in [0, 1]: the
    micro BLEU-1 evaluate_system reports (divided by 100) with bleu_micro."""
    return metrics._micro_bleu((metrics._clipped(hyp, ref, "bleu1"), len(hyp), len(ref))
                               for hyp, ref in pairs)


# --- novelty ------------------------------------------------------------------


def test_novelty_two_of_three_unigrams_novel():
    assert math.isclose(novelty_n(["a", "b", "c"], ["a"], 1), 200 / 3, abs_tol=1e-9)


def test_novelty_verbatim_extract_is_zero():
    source = ["x", "a", "b", "c", "y"]
    for n in (1, 2, 3):
        assert novelty_n(["a", "b", "c"], source, n) == 0.0


def test_novelty_single_novel_trigram_is_hundred():
    assert novelty_n(["x", "y", "z"], ["a", "b"], 3) == 100.0


def test_novelty_undefined_for_short_summary():
    assert novelty_n(["a", "b"], ["a"], 3) is None


@pytest.mark.parametrize("n", [0, -1])
def test_ngram_order_below_one_is_rejected(n):
    with pytest.raises(MetricsError, match=f"n={n}"):
        novelty_n((3, 4, 5), (3, 4), n)
    with pytest.raises(MetricsError, match=f"n={n}"):
        repetition_n((3, 4, 5), n)
    with pytest.raises(MetricsError, match=f"n={n}"):
        repetition_position_hist([(3, 4, 5, 3, 4, 5)], n=n)


# --- repetition ---------------------------------------------------------------


def test_repetition_triple_token():
    assert math.isclose(repetition_n(["a", "a", "a"], 1), 200 / 3, abs_tol=1e-9)


def test_repetition_distinct_tokens_zero():
    assert repetition_n(["a", "b"], 1) == 0.0


def test_repetition_trigram_duplicated_mass():
    toks = ["the", "cat", "sat", "the", "cat", "sat", "the", "cat"]
    assert repetition_n(toks, 3) == 50.0


def test_repetition_zero_iff_all_types_unique():
    rng = random.Random(3)
    for _ in range(50):
        toks = [rng.randrange(6) for _ in range(rng.randint(2, 12))]
        grams = [tuple(toks[i:i + 2]) for i in range(len(toks) - 1)]
        assert (repetition_n(toks, 2) == 0.0) == (len(set(grams)) == len(grams))


# --- delta ----------------------------------------------------------------------


def test_delta_exact_subtraction():
    assert delta(5.0, 5.0) == 0.0
    assert math.isclose(delta(61.04, 101.41), -40.37, abs_tol=1e-9)


def test_delta_sign_convention():
    assert delta(10.0, 30.0) < 0  # model larger than human -> negative


def test_delta_rejects_non_finite():
    with pytest.raises(MetricsError):
        delta(float("nan"), 1.0)


# --- BLEU -----------------------------------------------------------------------


def test_bleu1_identity():
    assert bleu1(["a", "b"], ["a", "b"]) == 1.0


def test_bleu1_clipped_precision():
    assert math.isclose(bleu1(["a", "a", "b"], ["a", "b", "c"]), 2 / 3, abs_tol=1e-9)


def test_bleu1_brevity_penalty_bites():
    score = bleu1(["a"], ["a", "b", "c"])
    assert math.isclose(score, math.exp(1 - 3), abs_tol=1e-12)
    assert score < 1.0


def test_micro_bleu1_pools_counts():
    pairs = [(["a", "a", "b"], ["a", "b", "c"]), (["a"], ["a"])]
    # clipped 2 + 1 = 3 over hyp length 4; ref length 4 -> no brevity penalty
    assert math.isclose(micro_bleu1(pairs), 0.75, abs_tol=1e-12)


# --- ROUGE ----------------------------------------------------------------------


def test_rouge1_identity_and_disjoint():
    assert rouge1(["a", "b"], ["a", "b"]) == (1.0, 1.0, 1.0)
    assert rouge1(["a"], ["b", "c"]) == (0.0, 0.0, 0.0)


def test_rouge1_hand_counts():
    r, p, f = rouge1(["a", "b"], ["a", "c", "d"])
    assert math.isclose(r, 1 / 3, abs_tol=1e-12)
    assert math.isclose(p, 1 / 2, abs_tol=1e-12)
    assert math.isclose(f, 0.4, abs_tol=1e-12)


def test_rouge_precision_recall_symmetry():
    rng = random.Random(4)
    for _ in range(30):
        h = [rng.randrange(5) for _ in range(rng.randint(1, 8))]
        r = [rng.randrange(5) for _ in range(rng.randint(1, 8))]
        assert math.isclose(rouge1(h, r)[1], rouge1(r, h)[0], abs_tol=1e-12)
        assert math.isclose(rougeL(h, r)[1], rougeL(r, h)[0], abs_tol=1e-12)


def test_rougeL_hand_dp():
    r, p, f = rougeL(["a", "b", "c"], ["a", "c", "d"])
    assert math.isclose(r, 2 / 3, abs_tol=1e-12)
    assert math.isclose(p, 2 / 3, abs_tol=1e-12)
    assert math.isclose(f, 2 / 3, abs_tol=1e-12)


def test_rougeL_reversed_distinct_tokens():
    r, _, _ = rougeL(["c", "b", "a"], ["a", "b", "c"])
    assert r == 1 / 3  # LCS length 1


def test_rougeL_identity():
    assert rougeL(["a", "b"], ["a", "b"])[2] == 1.0


def test_lcs_matches_memoized_recursion():
    @lru_cache(maxsize=None)
    def rec(a, b):
        if not a or not b:
            return 0
        if a[-1] == b[-1]:
            return rec(a[:-1], b[:-1]) + 1
        return max(rec(a[:-1], b), rec(a, b[:-1]))

    rng = random.Random(5)
    for _ in range(200):
        a = tuple(rng.randrange(6) for _ in range(rng.randint(0, 20)))
        b = tuple(rng.randrange(6) for _ in range(rng.randint(0, 20)))
        assert lcs_length(a, b) == rec(a, b)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_lcs_matches_the_classic_table(data):
    # lengths up to t_max + 1 at the default t_max of 140, across the 30-bit
    # digits of the bit-parallel row; small alphabets make long matches
    symbols = st.integers(0, data.draw(st.integers(1, 12), label="alphabet size") - 1)
    a, b = (data.draw(st.integers(0, 141).flatmap(
        lambda n: st.lists(symbols, min_size=n, max_size=n)), label=name) for name in "ab")
    expected = lcs_dp(a, b)
    assert lcs_length(a, b) == expected
    assert lcs_length(b, a) == expected


# --- corpus-level reports ---------------------------------------------------------


def test_zipf_report_ranks_by_frequency():
    assert zipf_report([["a", "a", "b"]], 5) == [(1, "a", 2), (2, "b", 1)]
    ranks = zipf_report([["a", "b", "b", "c", "c", "c"]], 10)
    freqs = [f for _, _, f in ranks]
    assert freqs == sorted(freqs, reverse=True)


def test_position_histogram_single_repeat():
    edges, dens = repetition_position_hist([["x", "y", "z", "x", "y", "z"]],
                                           n=3, buckets=10)
    # the repeated trigram starts at index 3 of 4 -> relative position 0.75
    assert dens[7] == 1.0
    assert sum(dens) == 1.0


def test_position_histogram_clean_summaries_contribute_nothing():
    _, dens = repetition_position_hist([["a", "b", "c", "d"]], n=3, buckets=4)
    assert sum(dens) == 0.0


@pytest.mark.parametrize("call, message", [
    (lambda: bleu1([], ["a"]), "bleu1 requires non-empty sequences"),
    (lambda: bleu1(["a"], []), "bleu1 requires non-empty sequences"),
    (lambda: rouge1([], ["a"]), "rouge1 requires non-empty sequences"),
    (lambda: rouge1(["a"], []), "rouge1 requires non-empty sequences"),
    (lambda: rougeL([], ["a"]), "rougeL requires non-empty sequences"),
    (lambda: rougeL(["a"], []), "rougeL requires non-empty sequences"),
    (lambda: zipf_report([], 5), "no generations"),
    (lambda: repetition_position_hist([]), "no generations"),
], ids=["bleu1-hyp", "bleu1-ref", "rouge1-hyp", "rouge1-ref", "rougeL-hyp", "rougeL-ref",
        "zipf", "position-hist"])
def test_an_empty_side_is_refused(call, message):
    with pytest.raises(MetricsError, match=f"^{message}$"):
        call()


def test_relabeling_invariance():
    rng = random.Random(6)
    mapping = {i: 100 + i for i in range(6)}
    for _ in range(30):
        summary = [rng.randrange(6) for _ in range(rng.randint(3, 10))]
        source = [rng.randrange(6) for _ in range(rng.randint(3, 10))]
        relabeled_s = [mapping[t] for t in summary]
        relabeled_x = [mapping[t] for t in source]
        for n in (1, 2, 3):
            assert novelty_n(summary, source, n) == novelty_n(relabeled_s, relabeled_x, n)
            assert repetition_n(summary, n) == repetition_n(relabeled_s, n)


# --- evaluate_system --------------------------------------------------------------


@pytest.fixture
def hand_corpus():
    vocab = make_vocab("a", "b", "c", "d", "x")
    return make_corpus(vocab, [
        ("p0", ["a", "b", "c", "d"], ["a", "b", "c"]),
        ("p1", ["b", "c", "d", "a"], ["b", "c", "d"]),
        ("p2", ["c", "d", "a", "b"], ["c", "d", "x"]),
    ])


def test_self_evaluation_is_perfect(hand_corpus):
    gens = {p.id: p.reference for p in hand_corpus.pairs}
    report = evaluate_system(gens, hand_corpus, system="self")
    assert report.d_len == report.d_nov1 == report.d_rep1 == report.d_rep3 == 0.0
    assert report.bleu1 == 100.0
    assert report.rouge1_f == 100.0


def test_report_matches_per_pair_recomputation(hand_corpus):
    gens = {"p0": (3, 4), "p1": (4, 5, 6), "p2": (5,)}
    report = evaluate_system(gens, hand_corpus)
    pairs = hand_corpus.pairs
    assert report.len_mean == sum(len(gens[p.id]) for p in pairs) / 3
    expected_b1 = 100.0 * sum(bleu1(gens[p.id], p.reference) for p in pairs) / 3
    assert math.isclose(report.bleu1, expected_b1, abs_tol=1e-9)
    expected_rl = 100.0 * sum(rougeL(gens[p.id], p.reference)[2] for p in pairs) / 3
    assert math.isclose(report.rougeL_f, expected_rl, abs_tol=1e-9)
    expected_nov1 = sum(novelty_n(gens[p.id], p.source, 1) for p in pairs) / 3
    human_nov1 = sum(novelty_n(p.reference, p.source, 1) for p in pairs) / 3
    assert math.isclose(report.nov1, expected_nov1, abs_tol=1e-9)
    assert math.isclose(report.d_nov1, human_nov1 - expected_nov1, abs_tol=1e-9)


def test_report_deterministic(hand_corpus):
    gens = {p.id: p.reference[:2] for p in hand_corpus.pairs}
    assert evaluate_system(gens, hand_corpus) == evaluate_system(gens, hand_corpus)


def test_missing_generation_lists_ids(hand_corpus):
    with pytest.raises(MetricsError, match="p2"):
        evaluate_system({"p0": (3,), "p1": (3,)}, hand_corpus)


def test_bleu_micro_flag_changes_aggregation(hand_corpus):
    gens = {"p0": (3, 3, 4), "p1": (4,), "p2": (5, 6)}
    macro = evaluate_system(gens, hand_corpus)
    micro = evaluate_system(gens, hand_corpus, bleu_micro=True)
    expected = 100.0 * micro_bleu1([(gens[p.id], p.reference)
                                    for p in hand_corpus.pairs])
    assert math.isclose(micro.bleu1, expected, abs_tol=1e-9)
    assert micro.bleu1 != macro.bleu1


def test_pooled_flag_pools_instances(hand_corpus):
    gens = {"p0": (3, 3), "p1": (4, 4, 5, 6), "p2": (5,)}
    pooled = evaluate_system(gens, hand_corpus, pooled=True)
    # rep-1 duplicates: 1 of 2, 1 of 4, 0 of 1 -> 2 of 7 instances
    assert math.isclose(pooled.rep1, 200.0 / 7, abs_tol=1e-9)
    macro = evaluate_system(gens, hand_corpus)
    # macro averages per summary instead: mean(50, 25, 0) = 25
    assert math.isclose(macro.rep1, 25.0, abs_tol=1e-9)
    assert not math.isclose(pooled.rep1, macro.rep1, abs_tol=1e-9)


def test_percentage_metrics_bounded(hand_corpus):
    gens = {"p0": (3, 3, 3, 3), "p1": (6, 6), "p2": (4, 5)}
    report = evaluate_system(gens, hand_corpus)
    for value in (report.nov1, report.nov3, report.rep1, report.rep3,
                  report.bleu1, report.rouge1_f, report.rougeL_f):
        assert 0.0 <= value <= 100.0


@pytest.mark.parametrize("bleu_micro,pooled", itertools.product((False, True), repeat=2))
def test_each_count_is_taken_once_per_call(hand_corpus, monkeypatch, bleu_micro, pooled):
    built, clipped = Counter(), Counter()
    ngrams, clip = metrics._ngrams, metrics._clipped

    def counting_ngrams(tokens, n):
        built[tuple(tokens), n] += 1
        return ngrams(tokens, n)

    def counting_clipped(hypothesis, reference, name):
        clipped[tuple(hypothesis), tuple(reference)] += 1
        return clip(hypothesis, reference, name)

    monkeypatch.setattr(metrics, "_ngrams", counting_ngrams)
    monkeypatch.setattr(metrics, "_clipped", counting_clipped)
    gens = {"p0": (3, 3, 4), "p1": (4, 5, 6, 4), "p2": ()}  # p2 is not scored
    evaluate_system(gens, hand_corpus, bleu_micro=bleu_micro, pooled=pooled)
    pairs = hand_corpus.pairs
    texts = ([gens[p.id] for p in pairs] + [p.reference for p in pairs]
             + [p.source for p in pairs])
    assert built == Counter((tuple(t), n) for t in texts for n in (1, 3))
    assert clipped == Counter((gens[p.id], p.reference) for p in pairs if gens[p.id])


def test_mean_sums_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16, so a left-to-right sum gives 0.0 where a
    # compensated one (the builtin sum since Python 3.12) keeps the 1.0
    assert metrics._mean([1e16, 1.0, None, -1e16]) == 0.0
    assert metrics._mean([]) == metrics._mean([None]) == 0.0


# --- every figure against separately counted arithmetic ------------------------------


def _grams(tokens, n):
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def separate_counts_report(generations, corpus, system, bleu_micro, pooled) -> dict:
    """evaluate_system's fields with every figure counted by its own code, as
    metrics.py computed them before the counts were shared, and ROUGE-L by the
    classic LCS table: the shared-count reductions must give the same floats,
    bit for bit."""
    sources = [p.source for p in corpus.pairs]

    def mean(values):
        vals = [v for v in values if v is not None]
        return reduce(operator.add, vals, 0.0) / len(vals) if vals else 0.0

    def novelty(t, src, n):
        if len(t) < n:
            return None
        source_grams = set(_grams(src, n))
        grams = _grams(t, n)
        return 100.0 * sum(1 for g in grams if g not in source_grams) / len(grams)

    def repetition(t, n):
        if len(t) < n:
            return None
        grams = _grams(t, n)
        return 100.0 * (1.0 - len(set(grams)) / len(grams))

    def pooled_novelty(texts, n):
        novel = instances = 0
        for t, src in zip(texts, sources):
            if len(t) < n:
                continue
            source_grams = set(_grams(src, n))
            grams = _grams(t, n)
            novel += sum(1 for g in grams if g not in source_grams)
            instances += len(grams)
        return 100.0 * novel / instances if instances else 0.0

    def pooled_repetition(texts, n):
        dup = instances = 0
        for t in texts:
            if len(t) < n:
                continue
            grams = _grams(t, n)
            dup += len(grams) - len(set(grams))
            instances += len(grams)
        return 100.0 * dup / instances if instances else 0.0

    def stats(texts):
        out = {"len": mean([len(t) for t in texts])}
        for n in (1, 3):
            if pooled:
                out[f"nov{n}"] = pooled_novelty(texts, n)
                out[f"rep{n}"] = pooled_repetition(texts, n)
            else:
                out[f"nov{n}"] = mean([novelty(t, src, n) for t, src in zip(texts, sources)])
                out[f"rep{n}"] = mean([repetition(t, n) for t in texts])
        return out

    def bleu(h, r):
        ref_counts = Counter(r)
        clipped = sum(min(c, ref_counts[t]) for t, c in Counter(h).items())
        precision = clipped / len(h)
        return precision * math.exp(min(0.0, 1.0 - len(r) / len(h)))

    def micro(pairs):
        clipped = hyp_len = ref_len = 0
        for h, r in pairs:
            ref_counts = Counter(r)
            clipped += sum(min(c, ref_counts[t]) for t, c in Counter(h).items())
            hyp_len += len(h)
            ref_len += len(r)
        if hyp_len == 0:
            raise MetricsError("micro_bleu1 requires at least one pair")
        precision = clipped / hyp_len
        return precision * math.exp(min(0.0, 1.0 - ref_len / hyp_len))

    def prf(hits, h, r):
        recall, precision = hits / len(r), hits / len(h)
        f1 = 0.0 if hits == 0 else 2 * precision * recall / (precision + recall)
        return recall, precision, f1

    def unigram_overlap(h, r):
        hyp_counts, ref_counts = Counter(h), Counter(r)
        return sum(min(hyp_counts[t], ref_counts[t]) for t in hyp_counts)

    gens = [tuple(generations[p.id]) for p in corpus.pairs]
    model, human = stats(gens), stats([p.reference for p in corpus.pairs])
    scored = [(g, p.reference) for g, p in zip(gens, corpus.pairs) if g]
    b1 = micro(scored) if bleu_micro else mean([bleu(g, r) for g, r in scored])
    r1 = [prf(unigram_overlap(g, r), g, r) for g, r in scored]
    rl = [prf(lcs_dp(g, r), g, r) for g, r in scored]
    return {
        "system": system, "n_pairs": len(corpus.pairs), "len_mean": model["len"],
        "nov1": model["nov1"], "nov3": model["nov3"], "rep1": model["rep1"],
        "rep3": model["rep3"], "bleu1": 100.0 * b1,
        "rouge1_recall": 100.0 * mean([x[0] for x in r1]),
        "rouge1_f": 100.0 * mean([x[2] for x in r1]),
        "rougeL_recall": 100.0 * mean([x[0] for x in rl]),
        "rougeL_f": 100.0 * mean([x[2] for x in rl]),
        **{f"d_{k}": human[k] - model[k] for k in ("len", "nov1", "nov3", "rep1", "rep3")},
    }


def _bits(fields: dict) -> dict:
    return {k: v.hex() if isinstance(v, float) else v for k, v in fields.items()}


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_report_is_bitwise_the_separately_counted_one(data):
    tokens = st.integers(3, 7)  # five ids past the reserved ones: repeats are common
    records = data.draw(st.lists(st.tuples(st.lists(tokens, min_size=1, max_size=8),
                                           st.lists(tokens, min_size=1, max_size=8),
                                           st.lists(tokens, max_size=8)),
                                 min_size=1, max_size=6), label="source, reference, generation")
    corpus = Corpus(tuple(DocumentPair(f"p{i}", tuple(src), tuple(ref))
                          for i, (src, ref, _) in enumerate(records)), make_vocab(*"abcde"))
    gens = {f"p{i}": gen for i, (_, _, gen) in enumerate(records)}
    for bleu_micro, pooled in itertools.product((False, True), repeat=2):
        try:
            expected = separate_counts_report(gens, corpus, "sys", bleu_micro, pooled)
        except MetricsError as e:  # micro BLEU of all-empty generations
            with pytest.raises(MetricsError, match=str(e)):
                evaluate_system(gens, corpus, "sys", bleu_micro=bleu_micro, pooled=pooled)
            continue
        report = evaluate_system(gens, corpus, "sys", bleu_micro=bleu_micro, pooled=pooled)
        assert list(expected) == list(asdict(report)) == list(MetricReport.__dataclass_fields__)
        assert _bits(report.as_dict()) == _bits(expected), (bleu_micro, pooled)
