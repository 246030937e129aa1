"""Discriminator-guided beam search: decoding, self-training and evaluation.

`import dasearch` loads no other module: each name below is looked up in its
defining module when it is asked for (PEP 562). numpy comes only with the
discriminator functions that featurise batches, train and evaluate, so a
program that trains a generator or decodes never imports it.
"""

import importlib

# public name -> the dasearch module that defines it
_MODULE_OF = {
    **dict.fromkeys(("Corpus", "DocumentPair", "Vocabulary", "build_vocabulary",
                     "generate_synthetic_corpus", "load_corpus", "tokenize"), "corpus"),
    **dict.fromkeys(("Hypothesis", "SearchConfig", "das_beam_search", "plain_beam_search"),
                    "decoder"),
    **dict.fromkeys(("DiscriminatorModel", "FeatureConfig", "accuracy_by_length",
                     "build_prefix_sets", "train_discriminator"), "discriminator"),
    **dict.fromkeys(("NGramCopyModel", "train_generator"), "generator"),
    **dict.fromkeys(("MetricReport", "bleu1", "delta", "evaluate_system", "novelty_n",
                     "repetition_n", "rouge1", "rougeL"), "metrics"),
    **dict.fromkeys(("SelfTrainState", "bootstrap", "run_until_convergence",
                     "self_train_step"), "selftrain"),
}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
