"""Discriminator-guided beam search: decoding, self-training and evaluation."""

from dasearch.corpus import (
    Corpus,
    DocumentPair,
    Vocabulary,
    build_vocabulary,
    generate_synthetic_corpus,
    load_corpus,
    tokenize,
)
from dasearch.decoder import (
    Hypothesis,
    SearchConfig,
    das_beam_search,
    plain_beam_search,
)
from dasearch.discriminator import (
    DiscriminatorModel,
    FeatureConfig,
    accuracy_by_length,
    build_prefix_sets,
    train_discriminator,
)
from dasearch.generator import NGramCopyModel, train_generator
from dasearch.metrics import (
    MetricReport,
    bleu1,
    delta,
    evaluate_system,
    novelty_n,
    repetition_n,
    rouge1,
    rougeL,
)
from dasearch.selftrain import SelfTrainState, bootstrap, run_until_convergence, self_train_step

__version__ = "0.1.0"
