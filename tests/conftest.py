"""Shared fixtures and helpers: tiny hand-built corpora, a small synthetic
setup and the exhaustive search that a saturated beam must equal."""

import itertools

import pytest

from dasearch.corpus import Corpus, DocumentPair, Vocabulary, generate_synthetic_corpus
from dasearch.decoder import DecoderError, Hypothesis, _rank_das, apply_das_score
from dasearch.generator import train_generator


def make_vocab(*tokens):
    return Vocabulary(list(tokens))


def make_corpus(vocab, records, split="train"):
    """records: iterable of (id, source_token_strings, reference_token_strings)."""
    pairs = tuple(
        DocumentPair(rid, vocab.encode(src), vocab.encode(ref))
        for rid, src, ref in records
    )
    return Corpus(pairs, vocab, split)


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
            s_gen = generator.sequence_logprob(source, y)
            h = Hypothesis(tokens=(Vocabulary.sos,) + y, s_gen=s_gen, s_das=s_gen, ended=True)
            if discriminator is not None and alpha > 0.0:
                h = apply_das_score(h, alpha, discriminator.score(source, y))
            if best is None or _rank_das(h) < _rank_das(best):
                best = h
    return best


@pytest.fixture(scope="session")
def synth_corpus():
    return generate_synthetic_corpus(7, 60)


@pytest.fixture(scope="session")
def synth_generator(synth_corpus):
    return train_generator(synth_corpus, order=3, kappa=1.0, lambda_copy=0.75)
