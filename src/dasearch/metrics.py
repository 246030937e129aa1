"""Corpus evaluation battery: length, novelty, repetition, BLEU-1, ROUGE,
top-k frequency (Zipf) report and the repeated-3-gram position histogram.

Novelty and repetition both count n-gram instances (not types); repetition is
the duplicated-mass fraction 1 - types/instances. Each count is taken by one
private function (`_novel`, `_distinct`, `_clipped`); per-summary, pooled and
micro figures are reductions of those counts. `evaluate_system` takes each
count once per call: a text's n-grams once per n, for both its novelty and its
repetition; a source's n-gram set once per n, for both the model's and the
human side; the clipped overlap once per scored pair, for BLEU-1 (per pair or
micro) and ROUGE-1. Means fold left to right from 0.0, so a report's bits do
not depend on the Python version's `sum`. Deltas follow
delta(m) = m_human - m_model, so a negative delta-len means the model output
is longer than the reference.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass

from dasearch.corpus import InputError

# evaluate's cap on [metrics] hist_buckets: rep3_positions.csv holds a row per bucket and system
HIST_BUCKETS_MAX = 10_000


class MetricsError(InputError):
    pass


def _check_n(n: int) -> None:
    if n < 1:
        raise MetricsError(f"n-gram order n must be at least 1, got n={n}")


def _ngrams(tokens, n: int) -> list[tuple]:
    return list(zip(*[tokens[i:] for i in range(n)]))


def _novel(grams, source_grams) -> tuple[int, int]:
    """(novel, instances): n-gram instances absent from the source's n-gram set."""
    return len(grams) - sum(map(source_grams.__contains__, grams)), len(grams)


def _distinct(grams) -> tuple[int, int]:
    """(types, instances) of a text's n-grams."""
    return len(set(grams)), len(grams)


def _novelty(novel: int, instances: int) -> float | None:
    return 100.0 * novel / instances if instances else None


def _repetition(types: int, instances: int) -> float | None:
    return 100.0 * (1.0 - types / instances) if instances else None


def novelty_n(summary, source, n: int) -> float | None:
    """Percentage of summary n-gram instances absent from the source."""
    _check_n(n)
    return _novelty(*_novel(_ngrams(summary, n), set(_ngrams(source, n))))


def repetition_n(summary, n: int) -> float | None:
    """Percentage of duplicated n-gram mass: 100 * (1 - types/instances)."""
    _check_n(n)
    return _repetition(*_distinct(_ngrams(summary, n)))


def delta(m_human: float, m_model: float) -> float:
    if not (math.isfinite(m_human) and math.isfinite(m_model)):
        raise MetricsError("delta requires finite inputs")
    return m_human - m_model


def _clipped(hypothesis, reference, name: str) -> int:
    """Hypothesis unigrams matched in the reference, each at most as often as
    the reference holds it."""
    if not hypothesis or not reference:
        raise MetricsError(f"{name} requires non-empty sequences")
    ref_counts = Counter(reference)
    return sum(min(c, ref_counts[t]) for t, c in Counter(hypothesis).items())


def _bleu(clipped: int, hyp_len: int, ref_len: int) -> float:
    """Clipped precision times brevity penalty."""
    return clipped / hyp_len * math.exp(min(0.0, 1.0 - ref_len / hyp_len))


def _prf(hits: int, hypothesis, reference) -> tuple[float, float, float]:
    """(recall, precision, f1) of `hits` matched tokens."""
    recall = hits / len(reference)
    precision = hits / len(hypothesis)
    f1 = 0.0 if hits == 0 else 2 * precision * recall / (precision + recall)
    return recall, precision, f1


def bleu1(hypothesis, reference) -> float:
    """Clipped unigram precision times brevity penalty, in [0, 1]."""
    return _bleu(_clipped(hypothesis, reference, "bleu1"), len(hypothesis), len(reference))


def rouge1(hypothesis, reference) -> tuple[float, float, float]:
    """Unigram overlap (recall, precision, f1)."""
    return _prf(_clipped(hypothesis, reference, "rouge1"), hypothesis, reference)


def lcs_length(a, b) -> int:
    """Length of the longest common subsequence of `a` and `b`.

    Bit-parallel (Allison & Dix 1986, in Hyyro's 2004 form). Bit j of `v` is
    clear where the dynamic-programming row over `b` steps up by one at
    column j, so the length is the count of clear bits. Each element of `a`
    updates the whole row with a few operations on a Python int of len(b)
    bits: O(|a| * ceil(|b| / w)) word operations (w = 30 for CPython's int
    digits) against the classic table's O(|a| * |b|) steps, for the same
    integer."""
    match: dict = {}
    for j, y in enumerate(b):
        match[y] = match.get(y, 0) | 1 << j
    full = (1 << len(b)) - 1
    v = full
    for x in a:
        u = v & match.get(x, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rougeL(hypothesis, reference) -> tuple[float, float, float]:
    """Longest-common-subsequence (recall, precision, f1)."""
    if not hypothesis or not reference:
        raise MetricsError("rougeL requires non-empty sequences")
    return _prf(lcs_length(hypothesis, reference), hypothesis, reference)


def zipf_report(generations, k: int) -> list[tuple[int, object, int]]:
    """Top-k (rank, token, frequency), frequency non-increasing."""
    if not generations:
        raise MetricsError("no generations")
    counts = Counter()
    for toks in generations:
        counts.update(toks)
    top = sorted(counts.items(), key=lambda tc: (-tc[1], str(tc[0])))[:k]
    return [(rank, tok, c) for rank, (tok, c) in enumerate(top, start=1)]


def repetition_position_hist(generations, n: int = 3, buckets: int = 10):
    """Density over the relative position of repeated n-gram occurrences.

    A repeated occurrence is the second-or-later instance of an n-gram type
    within one summary; its relative position is start_index / number_of_starts.
    """
    _check_n(n)
    if not generations:
        raise MetricsError("no generations")
    edges = [i / buckets for i in range(buckets + 1)]
    counts = [0] * buckets
    total = 0
    for toks in generations:
        grams = _ngrams(toks, n)
        if not grams:
            continue
        seen: set[tuple] = set()
        for i, g in enumerate(grams):
            if g in seen:
                rel = i / len(grams)
                idx = min(int(rel * buckets), buckets - 1)
                counts[idx] += 1
                total += 1
            seen.add(g)
    densities = [c / total if total else 0.0 for c in counts]
    return edges, densities


@dataclass(frozen=True)
class MetricReport:
    system: str
    n_pairs: int
    len_mean: float
    nov1: float
    nov3: float
    rep1: float
    rep3: float
    bleu1: float
    rouge1_recall: float
    rouge1_f: float
    rougeL_recall: float
    rougeL_f: float
    d_len: float
    d_nov1: float
    d_nov3: float
    d_rep1: float
    d_rep3: float

    def as_dict(self) -> dict:
        return asdict(self)


def _mean(values) -> float:
    """Mean of the non-None values, 0 without any; summed left to right from
    0.0, not by `sum`, which compensates since Python 3.12."""
    total, count = 0.0, 0
    for v in values:
        if v is not None:
            total += v
            count += 1
    return total / count if count else 0.0


def _pooled(counts) -> float:
    """100 * sum(part) / sum(whole) over (part, whole) counts, 0 without any whole."""
    part = whole = 0
    for p, w in counts:
        part += p
        whole += w
    return 100.0 * part / whole if whole else 0.0


def _micro_bleu(counts) -> float:
    """BLEU of (clipped, hyp_len, ref_len) counts pooled over the corpus."""
    clipped = hyp_len = ref_len = 0
    for c, h, r in counts:
        clipped += c
        hyp_len += h
        ref_len += r
    if hyp_len == 0:
        raise MetricsError("micro_bleu1 requires at least one pair")
    return _bleu(clipped, hyp_len, ref_len)


def evaluate_system(generations: dict, corpus, system: str = "model",
                    bleu_micro: bool = False, pooled: bool = False) -> MetricReport:
    """Aggregate all measures for one system against a corpus with references.

    `generations` maps pair id -> token-id list (no SOS/EOS). By default BLEU
    and ROUGE are means of per-pair scores and nov/rep are macro-averaged per
    summary; `bleu_micro` pools BLEU counts over the corpus and `pooled` pools
    nov/rep instances over the corpus instead.
    """
    missing = [p.id for p in corpus.pairs if p.id not in generations]
    if missing:
        raise MetricsError(f"missing generations for ids: {missing[:5]}"
                           + ("..." if len(missing) > 5 else ""))

    orders = (1, 3)
    gens = [tuple(generations[p.id]) for p in corpus.pairs]
    sides = {"model": gens, "human": [p.reference for p in corpus.pairs]}
    # per-text (novel, instances) and (types, instances) by side and n; one
    # source's n-gram set at a time serves both sides
    novel = {(side, n): [] for side in sides for n in orders}
    distinct = {(side, n): [] for side in sides for n in orders}
    for i, p in enumerate(corpus.pairs):
        for n in orders:
            source_grams = set(_ngrams(p.source, n))
            for side, texts in sides.items():
                grams = _ngrams(texts[i], n)
                novel[side, n].append(_novel(grams, source_grams))
                distinct[side, n].append(_distinct(grams))

    def stats(side) -> dict:
        out = {"len": _mean([len(t) for t in sides[side]])}
        for n in orders:
            if pooled:
                out[f"nov{n}"] = _pooled(novel[side, n])
                out[f"rep{n}"] = _pooled((instances - types, instances)
                                         for types, instances in distinct[side, n])
            else:
                out[f"nov{n}"] = _mean([_novelty(*c) for c in novel[side, n]])
                out[f"rep{n}"] = _mean([_repetition(*c) for c in distinct[side, n]])
        return out

    model, human = stats("model"), stats("human")

    scored = [(gen, p.reference) for gen, p in zip(gens, corpus.pairs) if gen]
    clipped = [(_clipped(g, r, "bleu1"), len(g), len(r)) for g, r in scored]
    b1 = _micro_bleu(clipped) if bleu_micro else _mean([_bleu(*c) for c in clipped])
    r1 = [_prf(c, g, r) for (c, _, _), (g, r) in zip(clipped, scored)]
    rl = [_prf(lcs_length(g, r), g, r) for g, r in scored]

    return MetricReport(
        system=system,
        n_pairs=len(corpus.pairs),
        len_mean=model["len"],
        **{key: model[key] for key in ("nov1", "nov3", "rep1", "rep3")},
        bleu1=100.0 * b1,
        rouge1_recall=100.0 * _mean([r for r, _, _ in r1]),
        rouge1_f=100.0 * _mean([f for _, _, f in r1]),
        rougeL_recall=100.0 * _mean([r for r, _, _ in rl]),
        rougeL_f=100.0 * _mean([f for _, _, f in rl]),
        **{f"d_{key}": delta(human[key], model[key])
           for key in ("len", "nov1", "nov3", "rep1", "rep3")},
    )
