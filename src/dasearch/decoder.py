"""Beam search with per-step discriminator re-ranking.

Each step expands every live hypothesis by its K_rerank best tokens, carries
ended hypotheses unchanged, pre-filters the K_rerank best candidates by
generator score, re-scores that pool with the discriminator (fused score =
s_gen + alpha * log D) and keeps the best B. Ties break on higher s_gen, then
lexicographic token ids. After t_max steps a last step ends each member still
live by its one candidate, a forced EOS, and its hypothesis is truncated.

A step keeps its survivors by one of two rules, chosen by the pool's width. A
pool wider than B is scored best s_gen first until no candidate left can
enter the beam: log D <= 0, so no fused score is above its s_gen, and once B
scored candidates rank above the next one's s_gen the rest is never scored.
A pool of B survives whole whatever D says, so only its EOS candidates are
scored. A live one takes its prefix step alone (score_next with scored=False)
and plain search's s_dis = None and s_das = s_gen: only the rerank at the
step that made a live member reads its fused scores, _settled reads its
s_gen, and the step that ends it scores it again. So every returned
hypothesis keeps its bits, and K_rerank = 1 is greedy search by construction.

The width is K_rerank for a search that reranks and B for one that does not
(no discriminator, or alpha = 0), which is then plain beam search at any
K_rerank: no member has more than B children among the best B candidates, so
it expands each live hypothesis by its B best tokens, and every result has
s_das == s_gen. That is the K_rerank-wide search bit for bit but in one tie:
two tokens of one member with different probabilities and the same rounded
s_gen + logp, at rank B and past it, where the wider search keeps the one
past rank B if its id is the smaller.

Without a length penalty a search stops as soon as its winner is settled:
once the pool's best ended member by the final key has an s_das above every
live member's s_gen (Huang, Zhao & Ma, "When to Finish?", EMNLP 2017). That
is exact: a token's logp <= 0, so no descendant of a live member has more
s_gen than it has, and log D <= 0 with alpha >= 0, so none has more s_das
than its own s_gen. The ended member then outranks every later candidate in
the s_gen pre-filter and the s_das rerank, stays in the pool, and wins the
final sort; the first hypothesis returned is, bit for bit, the one a search
run on to t_max (or until every member has ended) returns first. The rest of
the returned list is the pool's other ended members at the stop, best first,
not the rest of that longer search's pool. With a length penalty (beta != 0)
the final key can rise with length, and the search runs as long as ever.

A candidate is light: a tuple of its scores, its parent's rank in the pool's
token order and its token, which order candidates as their token tuples would.
The search's own PrefixFeaturizer gives its logit and step from its
parent's prefix state in O(1) (score_next, under the weights as the search
began, with the hashed feature indices the model memoises across searches),
and apply_das_score its s_dis and s_das from D, the logit's _sigmoid. Pool
members are tuples too, and only the returned beam becomes Hypothesis
objects. Each live survivor takes over its parent's prefix state and
trigram-block index (copies them when a sibling survives too) and commits
its scored step to the state and its token to the index. An expansion reads
one chain of memos: the search's own, by the prefix's generator tail and
blocked set (by_tail); on a miss, next_logprobs, which maps the tail to its
context and returns the Row the generator keeps for the source and context;
and that Row's n best (Row.top, memoised for the largest n asked), which
ranks tokens by probability and breaks a tie at equal probability by token
id, and so by log-probability except where two probabilities share a
logarithm. A forced EOS reads its Row from next_logprobs too. The
generator keeps a source's Rows, with their rankings, across the searches
that revisit it, such as a sweep's cells. So the only per-step work that
grows with the prefix is the survivors' token tuples and their siblings'
copies."""

from __future__ import annotations

import logging
import math
import os
from bisect import insort
from dataclasses import dataclass
from functools import partial

from dasearch.corpus import Corpus, InputError, Vocabulary
from dasearch.discriminator import PrefixFeaturizer, _sigmoid

log = logging.getLogger(__name__)

EPS_DIS = 1e-9


class DecoderError(InputError):
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
            raise DecoderError(f"need 1 <= beam_size <= k_rerank, got beam_size "
                               f"{self.beam_size} and k_rerank {self.k_rerank}")
        if not 0 <= self.alpha < math.inf:
            raise DecoderError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not math.isfinite(self.length_penalty_beta):
            raise DecoderError(f"length_penalty_beta must be finite, got "
                               f"{self.length_penalty_beta}")
        if self.t_max < 1:
            raise DecoderError("t_max must be >= 1")
        # the final sort divides by the penalty of every output length, 1 to
        # t_max + 1 (a forced EOS); the penalty's numerator is monotone in the
        # length, so the longest fails whenever any length does
        beta = self.length_penalty_beta
        if beta != 0.0:
            try:
                divisor = length_penalty(self.t_max + 1, beta)
            except (OverflowError, ZeroDivisionError):  # or 6.0 ** beta is 0.0
                divisor = math.nan
            if not (math.isfinite(divisor) and divisor != 0.0):
                raise DecoderError(f"length_penalty_beta {beta} with t_max {self.t_max} gives "
                                   f"a {self.t_max + 1}-token output the length penalty "
                                   f"{divisor}, not a finite nonzero number")


def apply_das_score(s_gen: float, alpha: float, dis_prob: float) -> tuple[float, float]:
    """Fuse generator and discriminator scores: (s_dis, s_das), s_dis = log(p)
    and s_das = s_gen + alpha * s_dis, with p clamped to at least EPS_DIS (the
    search counts and logs clamps)."""
    if dis_prob < EPS_DIS:
        dis_prob = EPS_DIS
    s_dis = math.log(dis_prob)
    return s_dis, s_gen + alpha * s_dis


def length_penalty(length: int, beta: float) -> float:
    """Wu et al. style divisor ((5+length)^beta)/(6^beta)."""
    if length < 1:
        raise DecoderError("length must be >= 1")
    return (5.0 + length) ** beta / 6.0 ** beta


_UNBLOCKED: frozenset[int] = frozenset()


def _blocked(index: dict, tokens) -> frozenset[int]:
    """The tokens that would repeat a trigram of `tokens` (SOS first): the
    followers of its last bigram in `index`, its trigram-block index."""
    return index.get(tokens[-2:], _UNBLOCKED) if len(tokens) > 2 else _UNBLOCKED


def _extend_block_index(index: dict, tokens, token: int) -> None:
    """Record in `index`, which maps each bigram of `tokens` (SOS first) to
    the frozenset of tokens that follow it there, the trigram that appending
    `token` completes."""
    if len(tokens) > 2:
        bigram = tokens[-2:]
        index[bigram] = index.get(bigram, _UNBLOCKED) | {token}


def _expansion(generator, source, k: int):
    """`(expand, row)` for one search. `row(tokens)` is the generator's Row
    after `tokens`, which next_logprobs keeps for the source and the prefix's
    context; `expand(tokens, blocked)` is the finite (token, logp) pairs
    among the k best of that Row's ranking once the `blocked` tokens leave
    it. k is the search's width: K_rerank for a search that reranks, B for
    one that does not (see the module docstring). Given the source, the Row
    depends only on the prefix's tail, its last order - 1 tokens, so the
    pairs are kept by tail and blocked set for as long as the search lasts."""
    order = generator.order
    row = partial(generator.next_logprobs, source)
    by_tail = {}

    def expand(tokens, blocked: frozenset[int]) -> list[tuple[int, float]]:
        key = (tokens[1 - order:] if order > 1 else (), blocked)
        top = by_tail.get(key)
        if top is None:
            top = row(tokens).top(k + len(blocked))
            if blocked or top and top[-1][1] == -math.inf:
                # blocked and zero-probability tokens leave the ranking; the others keep
                # their order, and the rest of a ranking after a zero is zero too
                top = [(tok, val) for tok, val in top
                       if val != -math.inf and tok not in blocked][:k]
            by_tail[key] = top
        return top

    return expand, row


def _final_sort(pool, config: SearchConfig):
    beta = config.length_penalty_beta

    def key(m):  # a member, (tokens, s_gen, s_dis, s_das, ...)
        score = m[1] if config.final_by_s_gen else m[3]
        if beta != 0.0:
            score = score / length_penalty(max(len(m[0]) - 1, 1), beta)
        return (-score, -m[1], m[0])

    return sorted(pool, key=key)


def _settled(pool, config: SearchConfig):
    """Whether the winner of a pool that has live and ended members is
    settled: the best ended member by the final key has an s_das above every
    live member's s_gen, which bounds all a live member can still become (see
    the module docstring). Nothing settles under a length penalty."""
    if config.length_penalty_beta != 0.0:
        return False
    best = _final_sort([m for m in pool if m[4]], config)[0]
    return best[3] > max(m[1] for m in pool if not m[4])


def _search(generator, discriminator, source, config: SearchConfig):
    source = tuple(source)
    if not source:
        raise DecoderError("empty source")
    rerank = discriminator is not None and config.alpha > 0.0
    block = config.block_repeated_trigrams
    beam_size = config.beam_size
    width = config.k_rerank if rerank else beam_size
    expand, row = _expansion(generator, source, width)
    eos = Vocabulary.eos

    # The pool of (tokens, s_gen, s_dis, s_das, ended) members in token
    # order, so a member's rank is its index, and beside each live member its
    # prefix state (reranking) and its block index (blocking), which its
    # surviving children extend by their token.
    pool = [((Vocabulary.sos,), 0.0, None, None, False)]
    states, indexes = [None], [{} if block else None]
    if rerank:
        featurizer = PrefixFeaturizer(discriminator.config, discriminator)
        states[0] = featurizer.state_of(source)
        score_next, sigmoid, das_score = featurizer.score_next, _sigmoid, apply_das_score
        alpha = config.alpha
    clamps = 0

    for t in range(config.t_max + 1):
        # A candidate is (-s_gen, parent rank, token); an ended member
        # carries itself as token -1, and after t_max steps a live one has
        # one candidate, its forced EOS. Live members all have the same
        # length and no EOS, and an ended one has EOS where no live member
        # does, so any two members differ inside both, and (parent rank,
        # token) orders candidates exactly as their token tuples would.
        candidates = []
        for rank, (tokens, s_gen, _, _, ended) in enumerate(pool):
            if ended:
                candidates.append((-s_gen, rank, -1))
            elif t == config.t_max:
                candidates.append((-(s_gen + row(tokens)[eos]), rank, eos))
            else:
                blocked = _blocked(indexes[rank], tokens) if block else _UNBLOCKED
                for tok, logp in expand(tokens, blocked):
                    candidates.append((-(s_gen + logp), rank, tok))
        candidates.sort()
        # survivors as (parent rank, token, s_gen, s_dis, s_das, prefix step)
        if width == beam_size:
            # a pool as large as the beam survives whole: a reranking search
            # scores only an EOS candidate, whose s_das no later step
            # recomputes; a live one takes its step and plain search's
            # scores, and an ended member carries itself
            survivors = []
            for neg_gen, rank, tok in candidates[:beam_size]:
                s_dis, s_das, step = None, -neg_gen, None
                if rerank and tok >= 0:
                    if tok == eos:
                        dis_prob = sigmoid(score_next(states[rank], tok)[0])
                        clamps += dis_prob < EPS_DIS
                        s_dis, s_das = das_score(-neg_gen, alpha, dis_prob)
                    else:
                        step = score_next(states[rank], tok, scored=False)[1]
                survivors.append((rank, tok, -neg_gen, s_dis, s_das, step))
        else:
            # log D <= 0 makes s_das <= s_gen, in floats too, for a candidate
            # and for an ended member alike: (neg_gen, neg_gen, rank, tok) is
            # the best key it can reach, and that grows along the pool. Once
            # beam_size ranked keys are below it, nothing left can survive,
            # and the rest of the pool is not scored.
            ranked = []
            for neg_gen, rank, tok in candidates[:width]:
                if len(ranked) >= beam_size and ranked[beam_size - 1] < (neg_gen, neg_gen,
                                                                         rank, tok):
                    break
                if tok < 0:
                    s_dis, s_das, step = *pool[rank][2:4], None
                else:
                    z, step = score_next(states[rank], tok)
                    dis_prob = sigmoid(z)
                    clamps += dis_prob < EPS_DIS
                    s_dis, s_das = das_score(-neg_gen, alpha, dis_prob)
                insort(ranked, (-s_das, neg_gen, rank, tok, s_dis, step))
            survivors = [(rank, tok, -neg_gen, s_dis, -neg_das, step)
                         for neg_das, neg_gen, rank, tok, s_dis, step in ranked[:beam_size]]
        survivors.sort()

        next_pool, next_states, next_indexes, live, ended = [], [], [], False, False
        for j, (rank, tok, s_gen, s_dis, s_das, step) in enumerate(survivors):
            parent = pool[rank]
            state = index = None
            if tok < 0:
                m, ended = parent, True
            elif tok == eos:
                m, ended = (parent[0] + (tok,), s_gen, s_dis, s_das, True), True
            else:
                m, live = (parent[0] + (tok,), s_gen, s_dis, s_das, False), True
                if rerank or block:
                    # a parent's last child in token order takes over what the
                    # parent carried; its siblings before it copy that first
                    last = j + 1 == len(survivors) or survivors[j + 1][0] != rank
                    if rerank:
                        state = states[rank] if last else states[rank].copy()
                        featurizer.commit(state, tok, step)
                    if block:
                        index = indexes[rank] if last else indexes[rank].copy()
                        _extend_block_index(index, parent[0], tok)
            next_pool.append(m)
            next_states.append(state)
            next_indexes.append(index)
        pool, states, indexes = next_pool, next_states, next_indexes
        if not live:
            break
        if ended and _settled(pool, config):
            pool = [m for m in pool if m[4]]
            break

    if clamps:
        log.warning("%d discriminator probabilities clamped to %g in one search",
                    clamps, EPS_DIS)
    # a member t_max + 2 tokens long, SOS and EOS included, ended by its forced EOS
    return [Hypothesis(*m, truncated=len(m[0]) == config.t_max + 2)
            for m in _final_sort(pool, config)]


def das_beam_search(generator, discriminator, source, config: SearchConfig):
    """Discriminator-reranked beam search; returns ended hypotheses, best
    first. The first is the winner. Without a length penalty the search stops
    once the winner is settled, and the rest are the pool's other ended
    members at that step; with one, the rest are the final pool. It reads
    k_rerank and alpha; without a discriminator alpha must be 0, and then it
    is plain search."""
    if discriminator is None and config.alpha != 0.0:
        raise DecoderError("discriminator required unless alpha == 0")
    return _search(generator, discriminator, source, config)


def plain_beam_search(generator, source, config: SearchConfig):
    """Standard beam search on generator score alone (plus optional rules):
    the fused search without a discriminator, so it too stops once its winner
    is settled. It reads neither k_rerank nor alpha."""
    return _search(generator, None, source, config)


# decode_corpus starts a worker per PAIRS_PER_WORKER pairs, up to jobs and the usable CPUs
PAIRS_PER_WORKER = 500

# the search a decode_corpus worker process runs, installed once per worker
_worker_search = None


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _install_search(search_one) -> None:
    global _worker_search
    _worker_search = search_one


def _worker_decode(source):
    return _worker_search(source)


def decode_corpus(corpus: Corpus, search_one, jobs: int = 1) -> dict:
    """The best hypothesis per pair id; `search_one(source)` returns ended
    hypotheses best first, as the searches do, and only the first is kept.

    It searches in a pool of min(jobs, usable CPUs, pairs // PAIRS_PER_WORKER)
    worker processes, each of which receives `search_one` (and the models it
    holds) once, at start-up, and in this process when that is below 2: a
    pool's start-up costs more than a second worker saves on fewer pairs.
    Measured with the quick-start models, decoding the first N train pairs of
    a 3,000-pair corpus as `dasearch decode` processes (2 CPUs, medians of 7
    alternating runs, process wall / manifest wall_time_s, in ms):

        pairs  mode   jobs 1     jobs 2
          300  plain  217 / 135  258 / 175
          300  das    213 / 135  253 / 172
          500  plain  309 / 231  365 / 271
          500  das    281 / 207  333 / 251
        1,000  plain  513 / 422  415 / 317
        1,000  das    484 / 409  382 / 298

    so 2 workers start from 1,000 pairs, where they win in both modes."""
    if jobs < 1:
        raise DecoderError(f"jobs must be >= 1, got {jobs}")
    sources = [p.source for p in corpus.pairs]
    workers = min(jobs, _usable_cpus(), len(sources) // PAIRS_PER_WORKER)
    if workers < 2:
        beams = map(search_one, sources)
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers, initializer=_install_search,
                                 initargs=(search_one,)) as pool:
            beams = list(pool.map(_worker_decode, sources, chunksize=8))
    return {p.id: beam[0] for p, beam in zip(corpus.pairs, beams)}
