"""The traced benchmark (perfbench/layers.py) wraps named functions and
methods of dasearch from outside. This checks that it still finds every one
of them and that unwrapping restores the originals, so deleting or renaming
a name the benchmark measures fails here too."""

import logging
import sys
from pathlib import Path

# every module the benchmark patches is loaded, so the snapshots below cover them all
from dasearch import cli, corpus, decoder, discriminator, generator, metrics, selftrain  # noqa: F401
from dasearch.corpus import save_corpus
from dasearch.decoder import SearchConfig
from dasearch.discriminator import DiscriminatorModel, FeatureConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

WRAPPED = {
    "load_corpus", "generate_synthetic_corpus", "next_logprobs", "train_generator",
    "score", "score_features", "extract_features", "train_discriminator",
    "build_prefix_sets", "eq2_objective", "accuracy_by_length", "plain_beam_search",
    "das_beam_search", "apply_das_score", "bootstrap", "self_train_step", "evaluate_system",
}


def bindings() -> dict:
    """Every global of every loaded dasearch module and every attribute of
    the two model classes, by (owner, name)."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "dasearch" or name.startswith("dasearch."):
            out.update({(name, key): value for key, value in vars(mod).items()})
    for cls in (generator.NGramCopyModel, discriminator.DiscriminatorModel):
        out.update({(cls.__qualname__, key): value for key, value in vars(cls).items()})
    return out


def test_bench_layers_wrap_every_boundary_and_unpatch_restores_it(monkeypatch, tmp_path,
                                                                    synth_corpus,
                                                                    synth_generator):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracer

    # a CLI decode of three pairs, which the traced pipeline runs in-process
    test = synth_corpus.subset({p.id for p in synth_corpus.pairs[:3]})
    save_corpus(test, tmp_path / "test.jsonl")
    synth_corpus.vocab.save(tmp_path / "vocab.txt")
    synth_generator.save(tmp_path / "generator.model")
    cfg = cli.RunConfig(output_dir=str(tmp_path / "out"), test_path=str(tmp_path / "test.jsonl"),
                        vocab_path=str(tmp_path / "vocab.txt"),
                        generator_model=str(tmp_path / "generator.model"),
                        beam_size=2, t_max=10)
    (tmp_path / "cfg.ini").write_text(cfg.to_ini())

    before = bindings()
    bench_tracer = tracer.Tracer()
    try:
        layers.instrument(bench_tracer)
        during = bindings()
        assert cli.main(["decode", "--config", str(tmp_path / "cfg.ini"), "--mode", "plain"]) == 0
    finally:
        bench_tracer.unpatch()
    after = bindings()
    assert {key[1] for key in during if during[key] is not before[key]} == WRAPPED
    # the command calls the search through its module, so the trace sees every pair
    assert bench_tracer.summary()["decoder.das_beam_search"]["calls"] == 3
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_clamp_count_equals_the_searches_warnings(monkeypatch, caplog, synth_corpus,
                                                         synth_generator):
    """The benchmark counts clamps by wrapping decoder.apply_das_score and
    reading its third argument, the probability: the search must call it
    through the module, once per discriminator-scored candidate."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracer

    disc = DiscriminatorModel.zeros(FeatureConfig(d_hash=64, t_max=20))
    disc.bias = -50.0  # D < EPS_DIS everywhere
    config = SearchConfig(beam_size=2, k_rerank=4, t_max=20)
    bench_tracer = tracer.Tracer()
    try:
        layers.instrument(bench_tracer)
        with caplog.at_level(logging.WARNING, logger="dasearch.decoder"):
            for p in synth_corpus.pairs[:3]:
                decoder.das_beam_search(synth_generator, disc, p.source, config)
    finally:
        bench_tracer.unpatch()
    assert len(caplog.records) == 3
    assert bench_tracer.counts["decoder.eps_clamps"] == sum(rec.args[0]
                                                            for rec in caplog.records)
