"""Beam search with per-step discriminator re-ranking.

Each step expands every live hypothesis by its K_rerank best tokens, carries
ended hypotheses unchanged, pre-filters the K_rerank best candidates by
generator score, re-scores that pool with the discriminator (fused score =
s_gen + alpha * log D) and keeps the best B. Ties break on higher s_gen, then
lexicographic token ids. Plain beam search is the same search with no
discriminator and K_rerank = B: the pool is then never re-scored and every
result has s_das == s_gen.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from dasearch.corpus import Vocabulary

log = logging.getLogger(__name__)

EPS_DIS = 1e-9


class DecoderError(ValueError):
    pass


@dataclass(frozen=True)
class Hypothesis:
    tokens: tuple[int, ...]          # starts with SOS
    s_gen: float
    s_dis: float | None = None
    s_das: float | None = None
    ended: bool = False
    truncated: bool = False


@dataclass(frozen=True)
class SearchConfig:
    beam_size: int = 5
    k_rerank: int = 10
    alpha: float = 1.0
    t_max: int = 140
    length_penalty_beta: float = 0.0  # 0 disables the rule
    block_repeated_trigrams: bool = False
    final_by_s_gen: bool = False  # ablation: pick the winner by s_gen instead

    def __post_init__(self):
        if not 1 <= self.beam_size <= self.k_rerank:
            raise DecoderError("need 1 <= beam_size <= k_rerank")
        if self.alpha < 0:
            raise DecoderError("alpha must be >= 0")
        if self.t_max < 1:
            raise DecoderError("t_max must be >= 1")


def s_gen_extend(h: Hypothesis, token: int, logp: float) -> Hypothesis:
    """Append a token, accumulating the generator log-probability."""
    if h.ended:
        raise DecoderError("cannot extend an ended hypothesis")
    return Hypothesis(
        tokens=h.tokens + (token,),
        s_gen=h.s_gen + logp,
        ended=(token == Vocabulary.eos),
    )


def apply_das_score(h: Hypothesis, alpha: float, dis_prob: float) -> Hypothesis:
    """Fuse generator and discriminator scores: s_das = s_gen + alpha*log(p)."""
    if dis_prob < EPS_DIS:
        log.warning("discriminator probability %.3g clamped to %g", dis_prob, EPS_DIS)
        dis_prob = EPS_DIS
    s_dis = math.log(dis_prob)
    return replace(h, s_dis=s_dis, s_das=h.s_gen + alpha * s_dis)


def apply_trigram_block(h: Hypothesis, candidate_token: int) -> bool:
    """False iff appending the token repeats a 3-gram of the content tokens."""
    content = h.tokens[1:]
    if len(content) < 2:
        return True
    new_gram = (content[-2], content[-1], candidate_token)
    for i in range(len(content) - 2):
        if content[i : i + 3] == new_gram:
            return False
    return True


def length_penalty(length: int, beta: float) -> float:
    """Wu et al. style divisor ((5+length)^beta)/(6^beta)."""
    if length < 1:
        raise DecoderError("length must be >= 1")
    return (5.0 + length) ** beta / 6.0 ** beta


def _blocked_tokens(h: Hypothesis) -> set[int]:
    content = h.tokens[1:]
    if len(content) < 2:
        return set()
    ctx = (content[-2], content[-1])
    return {content[i + 2] for i in range(len(content) - 2)
            if content[i : i + 2] == ctx}


def _rank_gen(h: Hypothesis):
    return (-h.s_gen, h.tokens)


def _rank_das(h: Hypothesis):
    return (-h.s_das, -h.s_gen, h.tokens)


def _final_sort(pool, config: SearchConfig):
    beta = config.length_penalty_beta

    def key(h: Hypothesis):
        score = h.s_gen if config.final_by_s_gen else h.s_das
        if beta != 0.0:
            score = score / length_penalty(max(len(h.tokens) - 1, 1), beta)
        return (-score, -h.s_gen, h.tokens)

    return sorted(pool, key=key)


def _search(generator, discriminator, source, config: SearchConfig):
    source = tuple(source)
    if not source:
        raise DecoderError("empty source")
    if discriminator is None and config.alpha != 0.0:
        raise DecoderError("discriminator required unless alpha == 0")
    rerank = discriminator is not None and config.alpha > 0.0

    def score(h: Hypothesis) -> Hypothesis:
        if h.s_das is not None:
            return h  # frozen (ended hypotheses keep their scores)
        if rerank:
            return apply_das_score(h, config.alpha,
                                   discriminator.score(source, h.tokens[1:]))
        return replace(h, s_das=h.s_gen)

    pool = [Hypothesis(tokens=(Vocabulary.sos,), s_gen=0.0)]
    for _ in range(config.t_max):
        live = [h for h in pool if not h.ended]
        if not live:
            break
        candidates = [h for h in pool if h.ended]
        for h in live:
            lp = generator.next_logprobs(source, h.tokens)
            if config.block_repeated_trigrams:
                blocked = _blocked_tokens(h)
                if blocked:
                    lp = lp.copy()
                    lp[list(blocked)] = -np.inf
            for tok in np.argsort(-lp, kind="stable")[: config.k_rerank]:
                val = float(lp[tok])
                if not math.isfinite(val):
                    continue  # zero-probability or blocked: never enters the pool
                candidates.append(s_gen_extend(h, int(tok), val))
        candidates.sort(key=_rank_gen)
        pool = candidates[: config.k_rerank]
        if rerank:
            pool = sorted(map(score, pool), key=_rank_das)
        pool = pool[: config.beam_size]
        if all(h.ended for h in pool):
            break

    final = []
    for h in pool:
        if not h.ended:
            lp_eos = float(generator.next_logprobs(source, h.tokens)[Vocabulary.eos])
            h = replace(s_gen_extend(h, Vocabulary.eos, lp_eos), truncated=True)
        final.append(score(h))
    return _final_sort(final, config)


def das_beam_search(generator, discriminator, source, config: SearchConfig):
    """Discriminator-reranked beam search; returns ended hypotheses, best first."""
    return _search(generator, discriminator, source, config)


def plain_beam_search(generator, source, config: SearchConfig):
    """Standard beam search on generator score alone (plus optional rules): the
    fused search with no discriminator and a rerank pool of beam_size."""
    return _search(generator, None, source,
                   replace(config, k_rerank=config.beam_size, alpha=0.0))


def exhaustive_oracle(generator, discriminator, source, alpha: float, t_max: int,
                      v_subset) -> Hypothesis:
    """Enumerate every EOS-terminated sequence over v_subset up to t_max
    content tokens; return the fused-score argmax."""
    v_subset = sorted(v_subset)
    if len(v_subset) ** t_max > 10 ** 6:
        raise DecoderError("enumeration budget exceeded")
    source = tuple(source)
    eos = Vocabulary.eos
    best: Hypothesis | None = None
    for length in range(t_max + 1):
        for content in itertools.product(v_subset, repeat=length):
            y = content + (eos,)
            s_gen = generator.sequence_logprob(source, y)
            h = Hypothesis(tokens=(Vocabulary.sos,) + y, s_gen=s_gen, ended=True)
            if discriminator is not None and alpha > 0.0:
                h = apply_das_score(h, alpha, discriminator.score(source, y))
            else:
                h = replace(h, s_das=h.s_gen)
            if best is None or _rank_das(h) < _rank_das(best):
                best = h
    return best
