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

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from dasearch.corpus import Corpus, Vocabulary
from dasearch.discriminator import PrefixFeaturizer

log = logging.getLogger(__name__)

EPS_DIS = 1e-9


class DecoderError(ValueError):
    pass


@dataclass(slots=True)
class Hypothesis:
    tokens: tuple[int, ...]          # starts with SOS
    s_gen: float
    s_dis: float | None = None
    s_das: float | None = None
    ended: bool = False
    truncated: bool = False


def hypothesis_content(h: Hypothesis) -> tuple[int, ...]:
    """Output tokens without SOS and the trailing EOS."""
    toks = h.tokens[1:]
    return toks[:-1] if toks and toks[-1] == Vocabulary.eos else toks


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
        if not 0 <= self.alpha < math.inf:
            raise DecoderError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not math.isfinite(self.length_penalty_beta):
            raise DecoderError(f"length_penalty_beta must be finite, got "
                               f"{self.length_penalty_beta}")
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
    """Fuse generator and discriminator scores: s_das = s_gen + alpha*log(p),
    with p clamped to at least EPS_DIS (the search counts and logs clamps)."""
    if dis_prob < EPS_DIS:
        dis_prob = EPS_DIS
    s_dis = math.log(dis_prob)
    return Hypothesis(h.tokens, h.s_gen, s_dis, h.s_gen + alpha * s_dis, h.ended, h.truncated)


def length_penalty(length: int, beta: float) -> float:
    """Wu et al. style divisor ((5+length)^beta)/(6^beta)."""
    if length < 1:
        raise DecoderError("length must be >= 1")
    return (5.0 + length) ** beta / 6.0 ** beta


def _blocked_tokens(h: Hypothesis) -> frozenset[int]:
    content = h.tokens[1:]
    if len(content) < 2:
        return frozenset()
    ctx = (content[-2], content[-1])
    return frozenset(content[i + 2] for i in range(len(content) - 2)
                     if content[i : i + 2] == ctx)


def _expansion(generator, source, k: int):
    """`expand(tokens, blocked)`: the finite (token, logp) pairs among the k
    best next tokens after `tokens` with `blocked` set to -inf, best first and
    ties by token id. Given the source these depend only on the generator's
    context of the prefix and on the blocked set, so each is computed once per
    (context, blocked) and kept for as long as the search lasts."""
    memo = {}

    def expand(tokens, blocked: frozenset[int]) -> list[tuple[int, float]]:
        key = (generator.context(tokens), blocked)
        top = memo.get(key)
        if top is None:
            lp = generator.next_logprobs(source, tokens)
            if blocked:
                lp = lp.copy()
                lp[list(blocked)] = -np.inf
            top = []
            for tok in np.argsort(-lp, kind="stable")[:k]:
                val = float(lp[tok])
                if math.isfinite(val):  # zero-probability or blocked: never enters the pool
                    top.append((int(tok), val))
            memo[key] = top
        return top

    return expand


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
    if rerank:
        featurizer = PrefixFeaturizer(discriminator.config, discriminator)
        # the prefix state of each live hypothesis in the pool, by its tokens;
        # every candidate extends the state of its parent by one token
        states = {(Vocabulary.sos,): featurizer.state_of(source)}

    clamps = 0

    def score(h: Hypothesis) -> Hypothesis:
        nonlocal clamps
        if h.s_das is not None:
            return h  # already scored (ended hypotheses keep their scores)
        if rerank:
            state = states[h.tokens[:-1]].copy()
            featurizer.advance(state, h.tokens[-1])
            states[h.tokens] = state
            dis_prob = featurizer.score(state)
            clamps += dis_prob < EPS_DIS
            return apply_das_score(h, config.alpha, dis_prob)
        return Hypothesis(h.tokens, h.s_gen, None, h.s_gen, h.ended, h.truncated)

    expand = _expansion(generator, source, config.k_rerank)
    blocked = frozenset()
    pool = [Hypothesis(tokens=(Vocabulary.sos,), s_gen=0.0)]
    for _ in range(config.t_max):
        live = [h for h in pool if not h.ended]
        candidates = [h for h in pool if h.ended]
        for h in live:
            if config.block_repeated_trigrams:
                blocked = _blocked_tokens(h)
            for tok, val in expand(h.tokens, blocked):
                candidates.append(s_gen_extend(h, tok, val))
        candidates.sort(key=_rank_gen)
        pool = candidates[: config.k_rerank]
        if rerank:
            pool = sorted(map(score, pool), key=_rank_das)
        pool = pool[: config.beam_size]
        if rerank:
            states = {h.tokens: states[h.tokens] for h in pool if not h.ended}
        if all(h.ended for h in pool):
            break

    final = []
    for h in pool:
        if not h.ended:
            lp_eos = float(generator.next_logprobs(source, h.tokens)[Vocabulary.eos])
            h = Hypothesis(h.tokens + (Vocabulary.eos,), h.s_gen + lp_eos, ended=True,
                           truncated=True)
        final.append(score(h))
    if clamps:
        log.warning("%d discriminator probabilities clamped to %g in one search",
                    clamps, EPS_DIS)
    return _final_sort(final, config)


def das_beam_search(generator, discriminator, source, config: SearchConfig):
    """Discriminator-reranked beam search; returns ended hypotheses, best first."""
    return _search(generator, discriminator, source, config)


def plain_beam_search(generator, source, config: SearchConfig):
    """Standard beam search on generator score alone (plus optional rules): the
    fused search with no discriminator and a rerank pool of beam_size."""
    return _search(generator, None, source,
                   replace(config, k_rerank=config.beam_size, alpha=0.0))


# the search a decode_corpus worker process runs, installed once per worker
_worker_search = None


def _install_search(search_one) -> None:
    global _worker_search
    _worker_search = search_one


def _worker_decode(source):
    return _worker_search(source)


def decode_corpus(corpus: Corpus, search_one, jobs: int = 1) -> dict:
    """The best hypothesis per pair id; `search_one(source)` returns a beam.
    jobs > 1 searches in a pool of at most one worker process per pair, which
    receives `search_one` (and the models it holds) once, at start-up."""
    if jobs < 1:
        raise DecoderError(f"jobs must be >= 1, got {jobs}")
    sources = [p.source for p in corpus.pairs]
    workers = min(jobs, len(sources))
    if workers <= 1:
        beams = map(search_one, sources)
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers, initializer=_install_search,
                                 initargs=(search_one,)) as pool:
            beams = list(pool.map(_worker_decode, sources, chunksize=8))
    return {p.id: beam[0] for p, beam in zip(corpus.pairs, beams)}
