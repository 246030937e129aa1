import json
from dataclasses import asdict, fields
from pathlib import Path

import pytest

from dasearch import cli
from dasearch.cli import ConfigError, RunConfig, component_seed, main
from dasearch.decoder import SearchConfig
from dasearch.selftrain import DiscriminatorHparams


def write_config(directory: Path, **overrides) -> Path:
    cfg = RunConfig(
        output_dir=str(directory / "out"),
        train_path=str(directory / "out" / "train.jsonl"),
        validation_path=str(directory / "out" / "validation.jsonl"),
        test_path=str(directory / "out" / "test.jsonl"),
        vocab_path=str(directory / "out" / "vocab.txt"),
        generator_model=str(directory / "out" / "generator.model"),
        discriminator_model=str(directory / "out" / "discriminator.model"),
        synth_seed=7,
        synth_n_pairs=30,
        beam_size=2,
        k_rerank=5,
        t_max=40,
        epochs=2,
        max_iters=1,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    path = directory / "cfg.ini"
    path.write_text(cfg.to_ini())
    return path


def derive_config(cfg_path: Path, directory: Path, **overrides) -> Path:
    """A copy of a config that writes to `directory`, with some fields changed."""
    cfg = RunConfig.from_file(cfg_path)
    cfg.output_dir = str(directory)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    path = directory / "cfg.ini"
    path.write_text(cfg.to_ini())
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A trained setup shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = write_config(root)
    assert main(["make-corpus", "--config", str(cfg)]) == 0
    assert main(["train-generator", "--config", str(cfg)]) == 0
    assert main(["train-discriminator", "--config", str(cfg)]) == 0
    return root, cfg


# --- config handling ---------------------------------------------------------------


def non_default_config() -> RunConfig:
    """Every field off its default: paths carry a '%', bools are flipped."""
    change = {"str": lambda f: f"{f.name}/50%/x", "int": lambda f: f.default + 3,
              "float": lambda f: f.default + 0.25, "bool": lambda f: not f.default}
    return RunConfig(**{f.name: change[f.type](f) for f in fields(RunConfig)})


def test_config_roundtrip(tmp_path):
    cfg = non_default_config()
    assert all(getattr(cfg, f.name) != f.default for f in fields(RunConfig))
    path = tmp_path / "cfg.ini"
    path.write_text(cfg.to_ini())
    assert asdict(RunConfig.from_file(path)) == asdict(cfg)


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[search]\nbogus = 1\n")
    with pytest.raises(ConfigError, match="bogus"):
        RunConfig.from_file(path)


def test_config_reads_percent_in_paths(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[paths]\noutput_dir = out/50%\n")
    assert RunConfig.from_file(path).output_dir == "out/50%"


@pytest.mark.parametrize("section", ["serach", "DEFAULT"])
def test_config_rejects_unknown_section(tmp_path, section):
    path = tmp_path / "cfg.ini"
    path.write_text(f"[{section}]\nalpha = 5\n")
    with pytest.raises(ConfigError, match=rf"unknown section \[{section}\]"):
        RunConfig.from_file(path)


@pytest.mark.parametrize("section, key, text", [
    ("selftrain", "warm_start", "ture"),
    ("search", "beam_size", "five"),
    ("search", "alpha", "1,0"),
])
def test_config_malformed_value_names_section_and_key(tmp_path, capsys, section, key, text):
    path = tmp_path / "cfg.ini"
    path.write_text(f"[{section}]\n{key} = {text}\n")
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: .*{text}"):
        RunConfig.from_file(path)
    assert main(["decode", "--config", str(path)]) == 1
    assert f"[{section}] {key}" in capsys.readouterr().err


def test_config_views_carry_every_same_named_field():
    cfg = non_default_config()
    cfg.k_rerank = cfg.beam_size + 2  # keep the search config valid
    views = {SearchConfig: cfg.search_config("das"), DiscriminatorHparams: cfg.disc_hparams()}
    for cls, view in views.items():
        shared = [f.name for f in fields(cls) if hasattr(cfg, f.name)]
        assert shared == [f.name for f in fields(cls) if f.name != "seed"]
        assert {n: getattr(view, n) for n in shared} == {n: getattr(cfg, n) for n in shared}
    assert cfg.disc_hparams().seed == component_seed(cfg.master_seed, "discriminator")


def test_plain_search_config_is_a_beam_size_pool_without_discriminator():
    cfg = RunConfig(beam_size=5, k_rerank=3, alpha=2.0, final_by_s_gen=True)
    plain = cfg.search_config("plain")
    assert (plain.beam_size, plain.k_rerank, plain.alpha) == (5, 5, 0.0)
    assert plain.final_by_s_gen


def test_missing_config_file_exits_one(tmp_path):
    assert main(["decode", "--config", str(tmp_path / "nope.ini")]) == 1


def test_unknown_flag_exits_one(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["decode", "--config", str(cfg), "--bogus-flag", "1"]) == 1


def test_component_seeds_differ_by_name():
    seeds = {component_seed(0, name) for name in
             ("corpus-train", "corpus-test", "discriminator", "sweep")}
    assert len(seeds) == 4


# --- commands ------------------------------------------------------------------------


def test_make_corpus_writes_three_splits_and_manifest(pipeline):
    root, _ = pipeline
    out = root / "out"
    for split in ("train", "validation", "test"):
        assert (out / f"{split}.jsonl").is_file()
    manifest = json.loads((out / "manifest-make-corpus.json").read_text())
    assert manifest["command"] == "make-corpus"
    assert len(manifest["outputs"]) == 3


def test_decode_das_alpha_zero_equals_plain_byte_for_byte(pipeline):
    root, cfg = pipeline
    out = root / "out"
    assert main(["decode", "--config", str(cfg), "--mode", "plain",
                 "--split", "test"]) == 0
    assert main(["decode", "--config", str(cfg), "--mode", "das",
                 "--split", "test", "--alpha", "0"]) == 0
    plain = (out / "generations-plain-test.jsonl").read_bytes()
    fused = (out / "generations-das-test.jsonl").read_bytes()
    assert plain == fused


def test_decode_rerun_is_byte_identical(pipeline):
    root, cfg = pipeline
    gen_path = root / "out" / "generations-das-test.jsonl"
    assert main(["decode", "--config", str(cfg), "--mode", "das",
                 "--split", "test"]) == 0
    first = gen_path.read_bytes()
    assert main(["decode", "--config", str(cfg), "--mode", "das",
                 "--split", "test"]) == 0
    assert gen_path.read_bytes() == first


def test_manifest_records_output_hashes(pipeline):
    root, cfg = pipeline
    out = root / "out"
    assert main(["decode", "--config", str(cfg), "--mode", "das",
                 "--split", "test"]) == 0
    manifest = json.loads((out / "manifest-decode-das-test.json").read_text())
    gen_path = str(out / "generations-das-test.jsonl")
    import hashlib

    digest = hashlib.sha256(Path(gen_path).read_bytes()).hexdigest()
    assert manifest["outputs"][gen_path] == digest


def test_evaluate_writes_reports(pipeline):
    root, cfg = pipeline
    out = root / "out"
    assert main(["decode", "--config", str(cfg), "--mode", "plain",
                 "--split", "test"]) == 0
    assert main(["evaluate", "--config", str(cfg), "--split", "test",
                 "--systems", str(out / "generations-plain-test.jsonl")]) == 0
    assert (out / "report.csv").is_file()
    report = json.loads((out / "report.json").read_text())
    assert report[0]["system"] == "generations-plain-test"
    assert (out / "zipf.csv").is_file()
    assert (out / "rep3_positions.csv").is_file()


def test_sweep_grid_one_by_one_emits_row_per_subset_repetition(pipeline):
    root, cfg = pipeline
    out = root / "out"
    assert main(["sweep", "--config", str(cfg), "--k-rerank", "1", "--alphas", "0",
                 "--subset-size", "5", "--repetitions", "2",
                 "--split", "validation"]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2  # header plus one row per repetition


@pytest.mark.parametrize("flag", ["--repetitions", "--subset-size"])
def test_sweep_rejects_counts_below_one(pipeline, tmp_path, capsys, flag):
    _, cfg = pipeline
    path = derive_config(cfg, tmp_path)
    assert main(["sweep", "--config", str(path), "--k-rerank", "1", "--alphas", "0",
                 flag, "0"]) == 1
    assert f"{flag}: must be an integer >= 1" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_cells_keep_the_configured_search_rules(pipeline, tmp_path, monkeypatch):
    _, cfg = pipeline
    seen = []

    def recording_search(generator, disc, source, search, inner=cli.das_beam_search):
        seen.append(search)
        return inner(generator, disc, source, search)

    monkeypatch.setattr(cli, "das_beam_search", recording_search)
    path = derive_config(cfg, tmp_path, final_by_s_gen=True, block_repeated_trigrams=True)
    assert main(["sweep", "--config", str(path), "--k-rerank", "1,5", "--alphas", "0,1",
                 "--subset-size", "2", "--repetitions", "1"]) == 0
    assert {(s.beam_size, s.k_rerank, s.alpha) for s in seen} == {
        (1, 1, 0.0), (1, 1, 1.0), (2, 5, 0.0), (2, 5, 1.0)}
    assert all(s.final_by_s_gen and s.block_repeated_trigrams for s in seen)


@pytest.mark.parametrize("kind, keep", [("discriminator", 60), ("generator", 2)])
def test_truncated_model_file_exits_one(pipeline, tmp_path, capsys, kind, keep):
    root, cfg = pipeline
    data = (root / "out" / f"{kind}.model").read_bytes()
    cut = tmp_path / f"{kind}.model"
    # discriminator: the first `keep` bytes; generator: the first `keep` lines
    cut.write_bytes(data[:keep] if kind == "discriminator"
                    else b"".join(data.splitlines(keepends=True)[:keep]))
    path = derive_config(cfg, tmp_path, **{f"{kind}_model": str(cut)})
    assert main(["decode", "--config", str(path), "--mode", "das"]) == 1
    assert f"truncated or malformed {kind} model file: {cut}" in capsys.readouterr().err


def test_self_train_rejects_zero_iterations(pipeline, tmp_path, capsys):
    _, cfg = pipeline
    path = derive_config(cfg, tmp_path)
    assert main(["self-train", "--config", str(path), "--max-iters", "0"]) == 1
    assert "max_iters must be >= 1" in capsys.readouterr().err


def test_self_train_writes_iteration_directories(pipeline):
    root, cfg = pipeline
    out = root / "out"
    assert main(["self-train", "--config", str(cfg)]) == 0
    for k in (0, 1):
        iter_dir = out / f"iter_{k}"
        assert (iter_dir / "generations.jsonl").is_file()
        assert (iter_dir / "discriminator.model").is_file()
        history = (iter_dir / "history.csv").read_text().strip().splitlines()
        assert history[0].startswith("iteration,val_accuracy")
        assert len(history) == 1 + k + 1


def test_output_dir_env_override(pipeline, tmp_path, monkeypatch):
    root, cfg = pipeline
    alt = tmp_path / "alt"
    monkeypatch.setenv("DASEARCH_OUTPUT_DIR", str(alt))
    assert main(["decode", "--config", str(cfg), "--mode", "plain",
                 "--split", "test"]) == 0
    assert (alt / "generations-plain-test.jsonl").is_file()


def test_parallel_decode_matches_serial(pipeline):
    root, cfg = pipeline
    out = root / "out"
    assert main(["decode", "--config", str(cfg), "--mode", "plain",
                 "--split", "test"]) == 0
    serial = (out / "generations-plain-test.jsonl").read_bytes()
    assert main(["decode", "--config", str(cfg), "--mode", "plain",
                 "--split", "test", "--jobs", "2"]) == 0
    assert (out / "generations-plain-test.jsonl").read_bytes() == serial
