"""Shared fixtures and helpers: tiny hand-built corpora, a small synthetic
setup, a sequence's generator log-probability by the chain rule, the
exhaustive search that a saturated beam must equal, the reference beam
search that builds every candidate in full, which the search must equal bit
for bit (and, run on to t_max, whose winner the search's must equal), the
classic longest-common-subsequence table that the bit-parallel
`metrics.lcs_length` must equal, the analytic gradient of the
discriminator's objective, the corpus files load_corpus refuses, and an
edited model file's text with its count-and-digest line made to match."""

import hashlib
import itertools

import numpy as np
import pytest

from dasearch.corpus import Corpus, DocumentPair, Vocabulary, generate_synthetic_corpus
from dasearch.decoder import (DecoderError, EPS_DIS, Hypothesis, SearchConfig, _expansion,
                              apply_das_score, length_penalty)
from dasearch.discriminator import DiscriminatorModel, FeatureBatch, PrefixFeaturizer, _sigmoid
from dasearch.generator import GeneratorError, train_generator


# the text of a corpus file load_corpus refuses, and its error
CORPUS_FILE_REFUSALS = {
    "no-source": ('{"id": "a", "summary": "y"}\n', "{path} line 1: missing string field 'source'"),
    "number-summary": ('{"id": "a", "source": "x", "summary": 3}\n',
                       "{path} line 1: missing string field 'summary'"),
    "blank-source": ('{"id": "a", "source": "x", "summary": "y"}\n'
                     '{"id": "b", "source": "  ", "summary": "y"}\n',
                     "{path} line 2: empty source"),
    "empty-file": ("", "empty file: {path}"),
    "blank-lines": ("\n  \n", "empty file: {path}"),
}


def reframed(text: str) -> str:
    """Model-file text with line 2 made the count and sha256 of the lines
    after it, as write_model_file writes it: an edit that the frame lets
    through to the loader's own checks."""
    version, _, rest = text.partition("\n")
    lines = rest.partition("\n")[2]
    n, digest = lines.count("\n"), hashlib.sha256(lines.encode()).hexdigest()
    return f"{version}\n{n} {digest}\n{lines}"


def make_vocab(*tokens):
    return Vocabulary(list(tokens))


def make_corpus(vocab, records, split="train"):
    """records: iterable of (id, source_token_strings, reference_token_strings)."""
    pairs = tuple(
        DocumentPair(rid, vocab.encode(src), vocab.encode(ref))
        for rid, src, ref in records
    )
    return Corpus(pairs, vocab, split)


def sequence_logprob(generator, source, y) -> float:
    """log P(y | source) of an EOS-terminated sequence y: the generator's
    next-token log-probabilities summed along y, from the prefix SOS."""
    y = tuple(y)
    if not y or y[-1] != Vocabulary.eos:
        raise GeneratorError("sequence must end with EOS")
    if Vocabulary.eos in y[:-1]:
        raise GeneratorError("internal EOS in sequence")
    prefix = (Vocabulary.sos,)
    total = 0.0
    for tok in y:
        total += float(generator.next_logprobs(source, prefix)[tok])
        prefix = prefix + (tok,)
    return total


def row_probs(generator, source, prefix) -> np.ndarray:
    """The probability of every token after `prefix` given `source`, as the
    generator's Row gives them, in one array."""
    row = generator.next_logprobs(source, prefix)
    return np.array([row.prob(tok) for tok in range(len(generator.vocab))])


def eq2_gradient(model: DiscriminatorModel, batch: FeatureBatch, n_human: int):
    """Analytic gradient of the objective w.r.t. (dense_w, sparse_w, bias) of
    a labelled batch whose first n_human rows are human: X^T c over the
    columns (dense, sparse, 1), with c = (y - p) / |set| for each row's set
    and p the row's score_features; each of row i's 2 t_i - 1 hits adds
    c_i / t_i to its column."""
    human, p = np.arange(len(batch)) < n_human, np.array(model.score_features(batch))
    c = (human - p) / np.where(human, n_human, len(batch) - n_human)
    # row i's hits, one row after another: the first 2 t_i - 1 of its chain's
    n = 2 * batch.t - 1
    at = np.arange(n.sum()) + np.repeat(batch.offset - (np.cumsum(n) - n), n)
    sparse = np.zeros(model.config.d_hash)
    sparse[batch.columns] = np.bincount(batch.hits[at], weights=np.repeat(c / batch.t, n),
                                        minlength=len(batch.columns))
    return batch.dense.T @ c, sparse, c.sum()


def lcs_dp(a, b) -> int:
    """Longest common subsequence length by the classic O(|a| * |b|) table,
    one row at a time."""
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def _rank_gen(h: Hypothesis):
    return (-h.s_gen, h.tokens)


def _rank_das(h: Hypothesis):
    return (-h.s_das, -h.s_gen, h.tokens)


def _rank_final(config: SearchConfig):
    """The final key: s_das (s_gen with final_by_s_gen), over the length
    penalty if there is one, then higher s_gen, then the token tuple."""
    beta = config.length_penalty_beta

    def key(h: Hypothesis):
        score = h.s_gen if config.final_by_s_gen else h.s_das
        if beta != 0.0:
            score = score / length_penalty(max(len(h.tokens) - 1, 1), beta)
        return (-score, -h.s_gen, h.tokens)

    return key


def s_gen_extend(h: Hypothesis, token: int, logp: float) -> Hypothesis:
    """Append a token, accumulating the generator log-probability."""
    if h.ended:
        raise DecoderError("cannot extend an ended hypothesis")
    return Hypothesis(
        tokens=h.tokens + (token,),
        s_gen=h.s_gen + logp,
        ended=(token == Vocabulary.eos),
    )


def _blocked_tokens(h: Hypothesis) -> frozenset[int]:
    """The trigram-block oracle: rescan the prefix for the followers of its
    last bigram."""
    content = h.tokens[1:]
    if len(content) < 2:
        return frozenset()
    ctx = (content[-2], content[-1])
    return frozenset(content[i + 2] for i in range(len(content) - 2)
                     if content[i : i + 2] == ctx)


def reference_search(generator, discriminator, source, config: SearchConfig,
                     settle: bool = True):
    """The fused beam search with every candidate a full Hypothesis, ranked by
    its token tuple, and a prefix state per scored candidate: what
    `decoder._search` must return bit for bit. Plain search is this with no
    discriminator and k_rerank = beam_size.

    With `settle` (and no length penalty) it stops once some ended member of
    the pool, the first by the final key, has a fused score above every live
    member's s_gen, and returns the pool's ended members. settle=False runs
    to t_max, or until every member has ended, and returns the whole pool;
    its first member is the settled search's first."""
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
            parent, token = states[h.tokens[:-1]], h.tokens[-1]
            z, step = featurizer.score_next(parent, token)
            dis_prob = _sigmoid(z)
            states[h.tokens] = state = parent.copy()
            featurizer.commit(state, token, step)
            clamps += dis_prob < EPS_DIS
            s_dis, s_das = apply_das_score(h.s_gen, config.alpha, dis_prob)
            return Hypothesis(h.tokens, h.s_gen, s_dis, s_das, h.ended, h.truncated)
        return Hypothesis(h.tokens, h.s_gen, None, h.s_gen, h.ended, h.truncated)

    expand, _ = _expansion(generator, source, config.k_rerank)
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
        if settle and config.length_penalty_beta == 0.0:
            ended = [score(h) for h in pool if h.ended]
            if ended:
                first = min(ended, key=_rank_final(config))
                if all(first.s_das > h.s_gen for h in pool if not h.ended):
                    pool = ended
                    break

    final = []
    for h in pool:
        if not h.ended:
            lp_eos = float(generator.next_logprobs(source, h.tokens)[Vocabulary.eos])
            h = Hypothesis(h.tokens + (Vocabulary.eos,), h.s_gen + lp_eos, ended=True,
                           truncated=True)
        final.append(score(h))
    return sorted(final, key=_rank_final(config))


def exhaustive_oracle(generator, discriminator, source, alpha: float, t_max: int,
                      v_subset) -> Hypothesis:
    """Enumerate every EOS-terminated sequence over v_subset up to t_max
    content tokens; return the fused-score argmax."""
    v_subset = sorted(v_subset)
    if len(v_subset) ** t_max > 10 ** 6:
        raise DecoderError("enumeration budget exceeded")
    source = tuple(source)
    best = None
    for length in range(t_max + 1):
        for content in itertools.product(v_subset, repeat=length):
            y = content + (Vocabulary.eos,)
            s_gen = sequence_logprob(generator, source, y)
            h = Hypothesis(tokens=(Vocabulary.sos,) + y, s_gen=s_gen, s_das=s_gen, ended=True)
            if discriminator is not None and alpha > 0.0:
                s_dis, s_das = apply_das_score(s_gen, alpha, discriminator.score(source, y))
                h = Hypothesis(h.tokens, s_gen, s_dis, s_das, ended=True)
            if best is None or _rank_das(h) < _rank_das(best):
                best = h
    return best


@pytest.fixture(scope="session")
def synth_corpus():
    return generate_synthetic_corpus(7, 60)


@pytest.fixture(scope="session")
def synth_generator(synth_corpus):
    return train_generator(synth_corpus, order=3, kappa=1.0, lambda_copy=0.75)
