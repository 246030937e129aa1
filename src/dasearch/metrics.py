"""Corpus evaluation battery: length, novelty, repetition, BLEU-1, ROUGE,
top-k frequency (Zipf) report and the repeated-3-gram position histogram.

Novelty and repetition both count n-gram instances (not types); repetition is
the duplicated-mass fraction 1 - types/instances. Each count is taken by one
private function (`_novel`, `_distinct`, `_clipped`); per-summary, pooled and
micro figures are reductions of those counts. Deltas follow
delta(m) = m_human - m_model, so a negative delta-len means the model output
is longer than the reference.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass


class MetricsError(ValueError):
    pass


def _ngrams(tokens, n: int) -> list[tuple]:
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def _novel(summary, source, n: int) -> tuple[int, int]:
    """(novel, instances): summary n-gram instances absent from the source."""
    source_grams = set(_ngrams(source, n))
    grams = _ngrams(summary, n)
    return sum(1 for g in grams if g not in source_grams), len(grams)


def _distinct(summary, n: int) -> tuple[int, int]:
    """(types, instances) of the summary's n-grams."""
    grams = _ngrams(summary, n)
    return len(set(grams)), len(grams)


def novelty_n(summary, source, n: int) -> float | None:
    """Percentage of summary n-gram instances absent from the source."""
    novel, instances = _novel(summary, source, n)
    return 100.0 * novel / instances if instances else None


def repetition_n(summary, n: int) -> float | None:
    """Percentage of duplicated n-gram mass: 100 * (1 - types/instances)."""
    types, instances = _distinct(summary, n)
    return 100.0 * (1.0 - types / instances) if instances else None


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
    """Classic dynamic program."""
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


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
    vals = [v for v in values if v is not None]
    return sum(vals) / len(vals) if vals else 0.0


def _pooled(counts) -> float:
    """100 * sum(part) / sum(whole) over (part, whole) counts, 0 without any whole."""
    part = whole = 0
    for p, w in counts:
        part += p
        whole += w
    return 100.0 * part / whole if whole else 0.0


def micro_bleu1(pairs) -> float:
    """Corpus-level clipped precision over pooled counts, in [0, 1]."""
    clipped = hyp_len = ref_len = 0
    for hyp, ref in pairs:
        clipped += _clipped(hyp, ref, "bleu1")
        hyp_len += len(hyp)
        ref_len += len(ref)
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

    sources = [p.source for p in corpus.pairs]

    def stats(texts) -> dict:
        out = {"len": _mean([len(t) for t in texts])}
        for n in (1, 3):
            if pooled:
                out[f"nov{n}"] = _pooled(_novel(t, src, n) for t, src in zip(texts, sources))
                out[f"rep{n}"] = _pooled((instances - types, instances)
                                         for types, instances in (_distinct(t, n) for t in texts))
            else:
                out[f"nov{n}"] = _mean([novelty_n(t, src, n) for t, src in zip(texts, sources)])
                out[f"rep{n}"] = _mean([repetition_n(t, n) for t in texts])
        return out

    gens = [tuple(generations[p.id]) for p in corpus.pairs]
    model = stats(gens)
    human = stats([p.reference for p in corpus.pairs])

    scored = [(gen, p.reference) for gen, p in zip(gens, corpus.pairs) if gen]
    b1 = micro_bleu1(scored) if bleu_micro else _mean([bleu1(g, r) for g, r in scored])
    r1 = [rouge1(g, r) for g, r in scored]
    rl = [rougeL(g, r) for g, r in scored]

    return MetricReport(
        system=system,
        n_pairs=len(corpus.pairs),
        len_mean=model["len"],
        nov1=model["nov1"],
        nov3=model["nov3"],
        rep1=model["rep1"],
        rep3=model["rep3"],
        bleu1=100.0 * b1,
        rouge1_recall=100.0 * _mean([r for r, _, _ in r1]),
        rouge1_f=100.0 * _mean([f for _, _, f in r1]),
        rougeL_recall=100.0 * _mean([r for r, _, _ in rl]),
        rougeL_f=100.0 * _mean([f for _, _, f in rl]),
        d_len=delta(human["len"], model["len"]),
        d_nov1=delta(human["nov1"], model["nov1"]),
        d_nov3=delta(human["nov3"], model["nov3"]),
        d_rep1=delta(human["rep1"], model["rep1"]),
        d_rep3=delta(human["rep3"], model["rep3"]),
    )

