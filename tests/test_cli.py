import csv
import gc
import hashlib
import importlib
import io
import json
import logging
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import asdict, fields, replace
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dasearch import cli, decoder, discriminator, selftrain
from dasearch.cli import ConfigError, RunConfig, component_seed, main
from dasearch.corpus import Vocabulary, build_vocabulary, load_corpus
from dasearch.decoder import SearchConfig
from dasearch.discriminator import DiscriminatorModel
from dasearch.generator import NGramCopyModel, train_generator
from dasearch.selftrain import DiscriminatorHparams

from conftest import CORPUS_FILE_REFUSALS, reframed


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


FLOAT_KEYS = [(f.metadata["section"], f.name) for f in fields(RunConfig) if f.type == "float"]


@pytest.mark.parametrize("text", ["nan", "inf"])
@pytest.mark.parametrize("section, key", FLOAT_KEYS, ids=[k for _, k in FLOAT_KEYS])
def test_config_rejects_non_finite_floats(tmp_path, capsys, section, key, text):
    assert len(FLOAT_KEYS) == 8
    path = tmp_path / "cfg.ini"
    path.write_text(f"[paths]\noutput_dir = {tmp_path / 'out'}\n[{section}]\n{key} = {text}\n")
    assert main(["make-corpus", "--config", str(path), "--n-pairs", "5"]) == 1
    assert f"error: [{section}] {key}: not a finite number: {text!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flag, text", [
    ("decode", "--alpha", "nan"),
    ("decode", "--alpha", "inf"),
    ("train-generator", "--lambda-copy", "nan"),
    ("sweep", "--alphas", "0,nan"),
    ("sweep", "--alphas", "1,-inf"),
])
def test_flags_reject_non_finite_floats(tmp_path, capsys, command, flag, text):
    cfg = write_config(tmp_path)
    assert main([command, "--config", str(cfg), flag, text]) == 1
    err = capsys.readouterr().err
    assert f"error: argument {flag}: " in err and "finite_float" in err
    assert not (tmp_path / "out").exists()


def test_readme_config_table_lists_every_field_in_its_section():
    """README's `| section | keys |` table holds one row per RunConfig
    section, and each row the fields of that section in declaration order."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    rows = readme.split("| section | keys |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    table = {}
    for row in rows.splitlines():
        section, keys = re.fullmatch(r"\| `\[(\w+)\]` \| (`\w+`(?:, `\w+`)*) \|", row).groups()
        assert section not in table, section
        table[section] = re.findall(r"`(\w+)`", keys)
    want = {}
    for f in fields(RunConfig):
        want.setdefault(f.metadata["section"], []).append(f.name)
    assert table == want


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


def test_manifests_list_every_file_a_command_read(pipeline, tmp_path):
    _, cfg_path = pipeline
    cfg = RunConfig.from_file(cfg_path)
    path = derive_config(cfg_path, tmp_path)
    system = str(tmp_path / "generations-plain-validation.jsonl")
    sweep = ["--k-rerank", "1", "--subset-size", "2", "--repetitions", "1",
             "--split", "validation"]
    models = [cfg.vocab_path, cfg.generator_model]
    runs = [  # (arguments, manifest, the files the command read)
        (["decode", "--mode", "das", "--split", "test"], "decode-das-test",
         models + [cfg.test_path, cfg.discriminator_model]),
        (["decode", "--mode", "das", "--split", "test", "--alpha", "0"], "decode-das-test",
         models + [cfg.test_path]),
        (["decode", "--mode", "plain", "--split", "validation"], "decode-plain-validation",
         models + [cfg.validation_path]),
        (["evaluate", "--split", "validation", "--systems", system], "evaluate",
         [cfg.vocab_path, cfg.validation_path, system]),
        (["sweep", "--alphas", "0,1", *sweep], "sweep",
         models + [cfg.validation_path, cfg.discriminator_model]),
        (["sweep", "--alphas", "0", *sweep], "sweep", models + [cfg.validation_path]),
    ]
    for argv, name, read in runs:
        assert main([argv[0], "--config", str(path), *argv[1:]]) == 0
        manifest = json.loads((tmp_path / f"manifest-{name}.json").read_text())
        assert manifest["inputs"] == {p: hashlib.sha256(Path(p).read_bytes()).hexdigest()
                                      for p in read}, argv


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

    def recording_search(generator, disc, source, config, inner=decoder.das_beam_search):
        seen.append(config)
        return inner(generator, disc, source, config)

    monkeypatch.setattr(decoder, "das_beam_search", recording_search)
    path = derive_config(cfg, tmp_path, final_by_s_gen=True, block_repeated_trigrams=True)
    assert main(["sweep", "--config", str(path), "--k-rerank", "1,5", "--alphas", "0,1",
                 "--subset-size", "2", "--repetitions", "1"]) == 0
    assert {(s.beam_size, s.k_rerank, s.alpha) for s in seen} == {
        (1, 1, 0.0), (1, 1, 1.0), (2, 5, 0.0), (2, 5, 1.0)}
    assert all(s.final_by_s_gen and s.block_repeated_trigrams for s in seen)


def test_sweep_rejects_a_bad_late_cell_before_decoding(pipeline, tmp_path, capsys,
                                                       monkeypatch):
    _, cfg = pipeline
    decoded = []
    monkeypatch.setattr(decoder, "decode_corpus", lambda *args, **kwargs: decoded.append(args))
    path = derive_config(cfg, tmp_path)
    assert main(["sweep", "--config", str(path), "--k-rerank", "3", "--alphas", "0,1,5,-1",
                 "--subset-size", "6", "--repetitions", "3"]) == 1
    assert "alpha must be finite and >= 0, got -1.0" in capsys.readouterr().err
    assert main(["sweep", "--config", str(path), "--k-rerank", "3,0", "--alphas", "0,1",
                 "--subset-size", "6", "--repetitions", "3"]) == 1
    assert "need 1 <= beam_size <= k_rerank, got beam_size 0 and k_rerank 0" in \
        capsys.readouterr().err
    assert decoded == []
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("flag, text, message", [
    ("--k-rerank", "6,6", "--k-rerank repeats 6"),
    ("--alphas", "0,1,0.0", "--alphas repeats 0.0"),
], ids=["k", "alpha"])
def test_sweep_rejects_repeated_grid_values_before_loading(pipeline, tmp_path, capsys,
                                                           monkeypatch, flag, text, message):
    def no_load(*args, **kwargs):
        raise AssertionError("loaded models before the grid was checked")

    monkeypatch.setattr(cli, "_load_models", no_load)
    _, cfg = pipeline
    path = derive_config(cfg, tmp_path, output_dir=str(tmp_path / "out"))
    assert main(["sweep", "--config", str(path), flag, text]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_with_only_alpha_zero_needs_no_discriminator(pipeline, tmp_path, capsys):
    _, cfg = pipeline
    missing = tmp_path / "no-such.model"
    path = derive_config(cfg, tmp_path, discriminator_model=str(missing))
    argv = ["--k-rerank", "1,2", "--subset-size", "3", "--repetitions", "1"]
    assert main(["sweep", "--config", str(path), "--alphas", "0", *argv]) == 0
    assert len((tmp_path / "sweep.csv").read_text().strip().splitlines()) == 1 + 2
    (tmp_path / "sweep.csv").unlink()
    # a cell with alpha > 0 still needs it
    assert main(["sweep", "--config", str(path), "--alphas", "0,1", *argv]) == 1
    assert str(missing) in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("subset_size", [2, 100], ids=["subsets", "whole-split"])
def test_sweep_decodes_each_drawn_pair_once_per_cell(pipeline, tmp_path, capsys, monkeypatch,
                                                     subset_size):
    root, cfg = pipeline
    searched = []

    def counting_search(generator, disc, source, config, inner=decoder.das_beam_search):
        searched.append((config.k_rerank, config.alpha, source))
        return inner(generator, disc, source, config)

    monkeypatch.setattr(decoder, "das_beam_search", counting_search)
    path = derive_config(cfg, tmp_path)
    assert main(["sweep", "--config", str(path), "--k-rerank", "1,2", "--alphas", "0,1",
                 "--subset-size", str(subset_size), "--repetitions", "3"]) == 0
    # the pairs the three repetitions draw, as the sweep draws them
    split = sorted(p.id for p in load_corpus(root / "out" / "validation.jsonl").pairs)
    rng = random.Random(component_seed(RunConfig.from_file(path).master_seed, "sweep"))
    drawn = set()
    for _ in range(3):
        ids = list(split)
        rng.shuffle(ids)
        drawn |= set(ids[:subset_size])
    if subset_size < len(split):
        assert len(drawn) > subset_size  # the repetitions drew different pairs
    assert len(searched) == 4 * len(drawn)
    assert max(Counter(searched).values()) == 1
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 1 + 3 * 4
    note = "every repetition evaluates the same pairs"
    assert (note in capsys.readouterr().err) == (subset_size >= len(split))


def test_sweep_decodes_with_the_configured_jobs(pipeline, tmp_path, monkeypatch):
    _, cfg = pipeline
    argv = ["--k-rerank", "2", "--alphas", "0,1", "--subset-size", "3", "--repetitions", "1"]
    serial_dir = tmp_path / "serial"
    serial_dir.mkdir()
    assert main(["sweep", "--config", str(derive_config(cfg, serial_dir)), *argv]) == 0
    seen = []

    def recording_decode_corpus(corpus, search_one, jobs=1, inner=decoder.decode_corpus):
        seen.append(jobs)
        return inner(corpus, search_one, jobs=jobs)

    monkeypatch.setattr(decoder, "decode_corpus", recording_decode_corpus)
    path = derive_config(cfg, tmp_path, jobs=2)
    assert main(["sweep", "--config", str(path), *argv]) == 0
    assert seen == [2, 2]
    assert (tmp_path / "sweep.csv").read_bytes() == (serial_dir / "sweep.csv").read_bytes()


@pytest.mark.parametrize("change", ["shorter", "longer"])
def test_decode_rejects_a_discriminator_of_another_vocabulary(pipeline, tmp_path, capsys,
                                                             change):
    root, cfg = pipeline
    disc = DiscriminatorModel.load(root / "out" / "discriminator.model")
    logfreq = disc.config.logfreq
    disc.config = replace(disc.config, logfreq=logfreq[:5] if change == "shorter"
                          else logfreq + (-1.0,))
    model = tmp_path / "discriminator.model"
    disc.save(model)
    path = derive_config(cfg, tmp_path, discriminator_model=str(model))
    assert main(["decode", "--config", str(path), "--mode", "das"]) == 1
    n_vocab = len(Vocabulary.load(root / "out" / "vocab.txt"))
    assert (f"error: discriminator model {model} was built for a "
            f"{len(disc.config.logfreq)}-token vocabulary, but the vocabulary has "
            f"{n_vocab} tokens") in capsys.readouterr().err
    assert not (tmp_path / "generations-das-test.jsonl").exists()


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
    # and a cut at every line boundary after the version line, header and body alike
    lines = data.splitlines(keepends=True)
    for n in range(1, len(lines)):
        cut.write_bytes(b"".join(lines[:n]))
        assert main(["decode", "--config", str(path), "--mode", "das"]) == 1, n
        counted = repr(str(len(lines) - 2) if n > 1 else "")  # line 2 is gone at n = 1
        assert capsys.readouterr().err == (
            f"error: truncated or malformed {kind} model file: {cut}: line 2 counts "
            f"{counted} lines after it, but {max(n - 2, 0)} whole ones follow\n"), n


def _edited_model_files(data: bytes) -> dict[str, bytes]:
    """A model file's bytes with one edit after its version line, by name."""
    lines = data.splitlines(keepends=True)
    # the index of line 4, a header line, and of a body line in the middle
    header, body = 3, len(lines) // 2 + 1
    key, value = lines[2].split()  # d_hash or order: an int
    *fields, last = lines[-1].split()
    return {
        "cut-inside-a-header-line": b"".join(lines[:header]) + lines[header][:3],
        "cut-inside-a-body-line": b"".join(lines[:-1]) + lines[-1][:-3],
        "deleted-header-line": b"".join(lines[:header] + lines[header + 1:]),
        "deleted-body-line": b"".join(lines[:body] + lines[body + 1:]),
        "edited-header-value": b"".join([*lines[:2], key + b" " + str(int(value) + 1).encode()
                                         + b"\n", *lines[3:]]),
        "edited-body-value": b"".join([*lines[:-1], b" ".join([*fields, last + b"1"]) + b"\n"]),
    }


@pytest.mark.parametrize("edit", ["cut-inside-a-header-line", "cut-inside-a-body-line",
                                  "deleted-header-line", "deleted-body-line",
                                  "edited-header-value", "edited-body-value"])
@pytest.mark.parametrize("kind", ["discriminator", "generator"])
def test_a_model_file_edited_after_its_version_exits_one(pipeline, tmp_path, capsys, kind,
                                                         edit):
    root, cfg = pipeline
    data = (root / "out" / f"{kind}.model").read_bytes()
    edited = tmp_path / f"{kind}.model"
    edited.write_bytes(_edited_model_files(data)[edit])
    assert edited.read_bytes() != data
    path = derive_config(cfg, tmp_path, **{f"{kind}_model": str(edited)})
    assert main(["decode", "--config", str(path), "--mode", "das"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: truncated or malformed {kind} model file: {edited}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not (tmp_path / "generations-das-test.jsonl").exists()


def _same_model(kind: str, a, b) -> bool:
    if kind == "discriminator":
        return a == b
    return (a.order, a.kappa, a.lambda_copy, a.counts) == (b.order, b.kappa, b.lambda_copy,
                                                           b.counts)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_a_mutated_model_file_decodes_only_as_the_written_model(pipeline, data):
    """Random byte and line edits of either model file, the version line
    included: decode exits 1 with one error line naming the file, or 0, and
    then the file loads as the model that was written."""
    root, cfg = pipeline
    kind = data.draw(st.sampled_from(["discriminator", "generator"]), label="kind")
    written = (root / "out" / f"{kind}.model").read_bytes()
    lines = written.splitlines(keepends=True)
    how = data.draw(st.sampled_from(["set-byte", "delete-byte", "insert-byte", "cut",
                                     "delete-line", "repeat-line", "swap-lines"]), label="how")
    at = data.draw(st.integers(0, len(written) - 1), label="byte")
    line = data.draw(st.integers(0, len(lines) - 2), label="line")
    byte = bytes([data.draw(st.sampled_from([written[at], *b"\n 0179.-e=\xff"]), label="value")])
    mutated = {
        "set-byte": written[:at] + byte + written[at + 1:],
        "delete-byte": written[:at] + written[at + 1:],
        "insert-byte": written[:at] + byte + written[at:],
        "cut": written[:at],
        "delete-line": b"".join(lines[:line] + lines[line + 1:]),
        "repeat-line": b"".join(lines[:line + 1] + lines[line:]),
        "swap-lines": b"".join(lines[:line] + [lines[line + 1], lines[line]] + lines[line + 2:]),
    }[how]
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / f"{kind}.model"
        model.write_bytes(mutated)
        path = derive_config(cfg, Path(tmp), **{f"{kind}_model": str(model)})
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["decode", "--config", str(path), "--mode", "das"])
        err = err.getvalue()
        assert code in (0, 1), err
        if code == 1:
            assert err.startswith("error: ") and str(model) in err and err.count("\n") == 1, err
        else:
            vocab = Vocabulary.load(root / "out" / "vocab.txt")
            load = (DiscriminatorModel.load if kind == "discriminator"
                    else partial(NGramCopyModel.load, vocab=vocab))
            assert _same_model(kind, load(model), load(root / "out" / f"{kind}.model"))


@pytest.mark.parametrize("kind, old, new, stage", [
    ("discriminator", "discriminator v3", "discriminator v4", "train-discriminator"),
    ("generator", "ngram-copy v1", "ngram-copy v2", "train-generator"),
])
def test_a_model_file_of_the_previous_version_names_the_stage_that_writes_one(
        pipeline, tmp_path, capsys, kind, old, new, stage):
    root, cfg = pipeline
    text = (root / "out" / f"{kind}.model").read_text()
    assert text.startswith(new + "\n")
    previous = tmp_path / f"{kind}.model"  # as the previous version wrote it
    if kind == "discriminator":  # the same frame, with a seventh dense weight
        previous.write_text(reframed(re.sub(r"^dense .*", r"\g<0> 0.0", old + text[len(new):],
                                            count=1, flags=re.M)))
    else:  # no line 2
        previous.write_text(old + "\n" + text.split("\n", 2)[2])
    path = derive_config(cfg, tmp_path, **{f"{kind}_model": str(previous)})
    for command, extra in (("decode", ["--mode", "das"]), ("sweep", []), ("self-train", [])):
        assert main([command, "--config", str(path), *extra]) == 1
        assert capsys.readouterr().err == (
            f"error: not a {kind} model file: {previous}: its first line is {old!r}, "
            f"not {new!r}; re-run {stage} to write one\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.ini", previous.name]


@pytest.mark.parametrize("kind", ["discriminator", "generator"])
def test_out_of_range_model_file_exits_one(pipeline, tmp_path, capsys, kind):
    root, cfg = pipeline
    text = (root / "out" / f"{kind}.model").read_text()
    if kind == "generator":  # a bigram after SOS whose token id is past the vocabulary
        n_vocab = len(Vocabulary.load(root / "out" / "vocab.txt"))
        text += f"0 {n_vocab} 1\n"
    else:
        text = text.replace("t_max 40\n", "t_max 0\n")
    bad = tmp_path / f"{kind}.model"
    bad.write_text(reframed(text))
    path = derive_config(cfg, tmp_path, **{f"{kind}_model": str(bad)})
    assert main(["decode", "--config", str(path), "--mode", "das"]) == 1
    assert f"error: {kind} model file {bad}: " in capsys.readouterr().err


def test_self_train_rejects_zero_iterations(pipeline, tmp_path, capsys, monkeypatch):
    def no_decode(*args, **kwargs):
        raise AssertionError("decoded before max_iters was checked")

    monkeypatch.setattr(selftrain, "decode_corpus", no_decode)
    _, cfg = pipeline
    for extra, setting in ((["--max-iters", "0"], {}), ([], {"max_iters": 0})):
        path = derive_config(cfg, tmp_path, **setting)
        assert main(["self-train", "--config", str(path), *extra]) == 1
        assert "error: max_iters must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "iter_0").exists()


@pytest.mark.parametrize("command, extra, setting, message", [
    ("train-discriminator", ["--epochs", "0"], {}, "epochs must be >= 1, got 0"),
    ("train-discriminator", [], {"epochs": -2}, "epochs must be >= 1, got -2"),
    ("self-train", ["--epochs", "0"], {}, "epochs must be >= 1, got 0"),
    ("train-discriminator", [], {"ratio": 0.0}, "ratio must be > 0"),
    ("train-discriminator", [], {"learning_rate": 0.0}, "learning_rate must be > 0"),
    ("self-train", [], {"learning_rate": -2.0}, "learning_rate must be > 0"),
    ("train-discriminator", [], {"d_hash": 2 ** 24 + 1},
     "d_hash must be at most 2**24 = 16777216, got 16777217"),
], ids=["flag", "config", "self-train", "ratio", "learning-rate-zero",
        "learning-rate-negative", "d-hash-above-the-cap"])
def test_train_discriminator_rejects_epochs_below_one(pipeline, tmp_path, capsys, monkeypatch,
                                                      command, extra, setting, message):
    def no_decode(*args, **kwargs):
        raise AssertionError("decoded before the settings were checked")

    monkeypatch.setattr(selftrain, "decode_corpus", no_decode)
    _, cfg = pipeline
    model = tmp_path / "discriminator.model"
    path = derive_config(cfg, tmp_path, discriminator_model=str(model), **setting)
    assert main([command, "--config", str(path), *extra]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not [p for p in (model, tmp_path / "accuracy_by_length.csv", tmp_path / "iter_0")
                if p.exists()]


@pytest.mark.parametrize("command", ["train-discriminator", "self-train"])
def test_training_that_diverges_exits_one_and_leaves_the_output_directory_as_it_was(
        pipeline, tmp_path, capsys, command):
    root, cfg = pipeline
    model = tmp_path / "discriminator.model"
    shutil.copy(root / "out" / "discriminator.model", model)
    path = derive_config(cfg, tmp_path, discriminator_model=str(model), learning_rate=1e308)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main([command, "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: training diverged at learning_rate 1e+308 and ratio 1.0: ")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("command", ["train-discriminator", "self-train"])
def test_a_train_split_too_small_to_bootstrap_exits_one_before_decoding(
        pipeline, tmp_path, capsys, monkeypatch, command):
    def no_decode(*args, **kwargs):
        raise AssertionError("decoded a split too small to train on")

    monkeypatch.setattr(selftrain, "decode_corpus", no_decode)
    root, cfg = pipeline
    train, model = tmp_path / "train.jsonl", tmp_path / "discriminator.model"
    train.write_text((root / "out" / "train.jsonl").read_text().splitlines()[0] + "\n")
    path = derive_config(cfg, tmp_path, train_path=str(train), discriminator_model=str(model))
    assert main([command, "--config", str(path)]) == 1
    assert capsys.readouterr().err == ("error: train split too small: 1 pair(s), 1 held out, "
                                       "none left to train the bootstrap discriminator on\n")
    assert not [p for p in (model, tmp_path / "accuracy_by_length.csv", tmp_path / "iter_0")
                if p.exists()]


def test_train_discriminator_featurises_the_held_out_prefixes_once(pipeline, tmp_path,
                                                                    monkeypatch):
    calls, rounds = [], []
    real_features, real_bootstrap = discriminator.prefix_features, selftrain.bootstrap

    def counted(sequences, config):
        calls.append(config)
        return real_features(sequences, config)

    def recorded(corpus, *args):
        rounds.append((corpus, real_bootstrap(corpus, *args)))
        return rounds[-1][1]

    monkeypatch.setattr(discriminator, "prefix_features", counted)
    monkeypatch.setattr(selftrain, "bootstrap", recorded)
    _, cfg = pipeline
    path = derive_config(cfg, tmp_path, discriminator_model=str(tmp_path / "d.model"))
    assert main(["train-discriminator", "--config", str(path)]) == 0
    assert len(calls) == 2  # one to train, one for the held-out counts
    # the curve is the model's held-out accuracy at the buckets up to t_max = 40
    ((corpus, state),) = rounds
    H, G = discriminator.build_prefix_sets(corpus.subset(state.val_ids),
                                           state.last_generations, t_max=40)
    curve = discriminator.accuracy_by_length(state.discriminator, H, G, [1, 5, 10, 20, 30, 40])
    with open(tmp_path / "accuracy_by_length.csv", newline="") as f:
        assert list(csv.reader(f)) == [["t", "accuracy", "n_examples"]] + [
            [str(t), str(right / n) if n else "", str(n)] for t, right, n in curve]


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


def test_history_records_each_round_models_final_objective(pipeline, tmp_path, capsys):
    """Row j of every iter_k/history.csv holds, as written, the final_objective
    header of iter_j/discriminator.model, right after val_accuracy."""
    _, cfg = pipeline
    _, files = _self_train(cfg, tmp_path / "run", capsys)
    stored = {}
    for k in (0, 1):
        header = files[f"iter_{k}/discriminator.model"].decode().splitlines()
        (line,) = [h for h in header if h.startswith("final_objective ")]
        stored[k] = line.split(" ", 1)[1]
    for k in (0, 1):
        rows = list(csv.reader(files[f"iter_{k}/history.csv"].decode().splitlines()))
        assert rows[0][:3] == ["iteration", "val_accuracy", "final_objective"]
        assert [(row[0], row[2]) for row in rows[1:]] == [(str(j), stored[j])
                                                          for j in range(k + 1)]


def test_history_and_summary_count_the_distinct_generated_outputs(pipeline, tmp_path, capsys,
                                                                  monkeypatch):
    rounds, real_bootstrap = [], selftrain.bootstrap

    def recorded(corpus, *args):
        rounds.append((corpus, real_bootstrap(corpus, *args)))
        return rounds[-1][1]

    monkeypatch.setattr(selftrain, "bootstrap", recorded)
    _, cfg = pipeline
    path = derive_config(cfg, tmp_path, discriminator_model=str(tmp_path / "d.model"))
    assert main(["train-discriminator", "--config", str(path)]) == 0
    ((corpus, state),) = rounds
    t_max = state.discriminator.config.t_max
    train = [p.id for p in corpus.pairs if p.id not in state.val_ids]
    distinct = len({tuple(state.last_generations[i])[:t_max] for i in train})
    assert state.history[0]["distinct_G"] == distinct
    assert (f"{distinct} distinct of {len(train)} generated outputs)\n"
            in capsys.readouterr().out)
    monkeypatch.undo()
    _, files = _self_train(cfg, tmp_path / "run", capsys)
    for k in (0, 1):
        rows = list(csv.reader(files[f"iter_{k}/history.csv"].decode().splitlines()))
        assert rows[0][-1] == "distinct_G" and rows[1][-1] == str(distinct)


def _self_train(cfg, directory: Path, capsys, *extra, **overrides):
    """Run self-train with its output in the new `directory`; returns its
    stdout and the bytes of every iteration file by relative path."""
    directory.mkdir()
    path = derive_config(cfg, directory, **overrides)
    assert main(["self-train", "--config", str(path), *extra]) == 0
    files = {p.relative_to(directory).as_posix(): p.read_bytes()
             for p in sorted(directory.glob("iter_*/*"))}
    return capsys.readouterr().out, files


def _count_trainings(monkeypatch) -> list:
    calls, real = [], selftrain.train_discriminator

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(selftrain, "train_discriminator", counted)
    return calls


@pytest.mark.parametrize("warm_start", [False, True], ids=["cold", "warm"])
def test_self_train_reuses_the_bootstrap_train_discriminator_wrote(pipeline, tmp_path, capsys,
                                                                   monkeypatch, warm_start):
    root, cfg = pipeline
    trainings = _count_trainings(monkeypatch)
    model = root / "out" / "discriminator.model"
    out, reused = _self_train(cfg, tmp_path / "reuse", capsys, warm_start=warm_start)
    assert f"bootstrap: reused {model}\n" in out
    assert len(trainings) == 1  # max_iters rounds, and no bootstrap
    manifest = json.loads((tmp_path / "reuse" / "manifest-self-train.json").read_text())
    assert str(model) in manifest["inputs"]
    absent = tmp_path / "absent.model"
    out, trained = _self_train(cfg, tmp_path / "train", capsys, warm_start=warm_start,
                               discriminator_model=str(absent))
    assert f"bootstrap: trained (no file at {absent})\n" in out
    assert len(trainings) == 1 + 2
    assert list(reused) == [f"iter_{k}/{name}" for k in (0, 1) for name in
                            ("discriminator.model", "generations.jsonl", "history.csv")]
    assert reused == trained
    assert reused["iter_0/discriminator.model"] == model.read_bytes()


@pytest.mark.parametrize("change, reason", [
    ("epochs", "epochs differs"),
    ("train", "train_sha256 differs"),
    ("generator", "generator_sha256 differs"),
    ("unset", "[paths] discriminator_model is not set"),
    ("no-provenance", "{tmp}/later.model records no provenance"),
    ("revision", "bootstrap_revision differs"),
])
def test_self_train_retrains_the_bootstrap_when_an_input_differs(pipeline, tmp_path, capsys,
                                                                 monkeypatch, change, reason):
    root, cfg = pipeline
    extra, overrides = [], {}
    if change == "epochs":
        extra = ["--epochs", "3"]
    elif change == "train":  # the same pairs but the last
        lines = (root / "out" / "train.jsonl").read_text().splitlines(keepends=True)
        (tmp_path / "train.jsonl").write_text("".join(lines[:-1]))
        overrides = {"train_path": str(tmp_path / "train.jsonl")}
    elif change == "generator":
        overrides = {"vocab_path": str(tmp_path / "vocab.txt"),
                     "generator_model": str(tmp_path / "generator.model")}
        path = derive_config(cfg, tmp_path, **overrides)
        assert main(["train-generator", "--config", str(path), "--lambda-copy", "0.5"]) == 0
    elif change == "no-provenance":  # a file as a self-training round writes it
        text = (root / "out" / "discriminator.model").read_text()
        (tmp_path / "later.model").write_text(
            reframed(re.sub(r"\nprovenance .*\n", "\nprovenance \n", text)))
        overrides = {"discriminator_model": str(tmp_path / "later.model")}
    elif change == "revision":  # a file the bootstrap revision just retired wrote
        text = (root / "out" / "discriminator.model").read_text()
        retired = f"bootstrap_revision={selftrain.BOOTSTRAP_REVISION - 1} "
        (tmp_path / "old.model").write_text(
            reframed(re.sub(r"\bbootstrap_revision=\d+ ", retired, text)))
        overrides = {"discriminator_model": str(tmp_path / "old.model")}
    else:
        overrides = {"discriminator_model": ""}
    trainings = _count_trainings(monkeypatch)
    out, _ = _self_train(cfg, tmp_path / "run", capsys, *extra, **overrides)
    assert f"bootstrap: trained ({reason.format(tmp=tmp_path)})\n" in out
    assert len(trainings) == 2


def _count_round_work(monkeypatch) -> Counter:
    """Counts of the calls self-train makes to decode, evaluate and count
    held-out accuracy through selftrain, and to selftrain.bootstrap, by name."""
    counts = Counter()

    def counted(name, real):
        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return call

    for name in ("bootstrap", "decode_corpus", "evaluate_system", "accuracy_by_length"):
        monkeypatch.setattr(selftrain, name, counted(name, getattr(selftrain, name)))
    return counts


def _model_copy(pipeline, directory: Path) -> Path:
    """A copy of the pipeline's bootstrap model in `directory`, with a copy of
    its round record beside it."""
    root, _ = pipeline
    model = directory / "d.model"
    model.write_bytes((root / "out" / "discriminator.model").read_bytes())
    Path(f"{model}.bootstrap.json").write_bytes(
        (root / "out" / "discriminator.model.bootstrap.json").read_bytes())
    return model


def test_train_discriminator_writes_the_record_of_its_round(pipeline):
    root, _ = pipeline
    out = root / "out"
    model, record_path = out / "discriminator.model", out / "discriminator.model.bootstrap.json"
    record = json.loads(record_path.read_text())
    assert list(record) == ["model_sha256", "generations", "history"]
    assert record["model_sha256"] == hashlib.sha256(model.read_bytes()).hexdigest()
    corpus = load_corpus(out / "train.jsonl", Vocabulary.load(out / "vocab.txt"))
    assert list(record["generations"]) == [p.id for p in corpus.pairs]
    assert tuple(record["history"]) == selftrain.HISTORY_KEYS
    assert record["history"]["iteration"] == 0
    manifest = json.loads((out / "manifest-train-discriminator.json").read_text())
    assert sorted(manifest["outputs"]) == sorted(map(str, (model, record_path,
                                                           out / "accuracy_by_length.csv")))


@pytest.mark.parametrize("warm_start", [False, True], ids=["cold", "warm"])
def test_self_train_resumes_from_the_round_record(pipeline, tmp_path, capsys, monkeypatch,
                                                  warm_start):
    """Given the record, iteration 0 decodes, evaluates and counts nothing,
    and every iter_* file is what recomputing the round writes."""
    _, cfg = pipeline
    model = _model_copy(pipeline, tmp_path)
    record = Path(f"{model}.bootstrap.json")
    counts = _count_round_work(monkeypatch)
    out, resumed = _self_train(cfg, tmp_path / "resumed", capsys, warm_start=warm_start,
                               discriminator_model=str(model))
    assert out.startswith(f"bootstrap: reused {model}\nbootstrap: round 0 read from {record}\n")
    assert counts == {"decode_corpus": 1, "evaluate_system": 1, "accuracy_by_length": 1}
    manifest = json.loads((tmp_path / "resumed" / "manifest-self-train.json").read_text())
    assert {str(model), str(record)} <= manifest["inputs"].keys()
    record.unlink()
    counts.clear()
    out, recomputed = _self_train(cfg, tmp_path / "recomputed", capsys, warm_start=warm_start,
                                  discriminator_model=str(model))
    assert counts == {"bootstrap": 1, "decode_corpus": 2, "evaluate_system": 2,
                      "accuracy_by_length": 2}
    manifest = json.loads((tmp_path / "recomputed" / "manifest-self-train.json").read_text())
    assert str(record) not in manifest["inputs"]
    assert resumed == recomputed


def test_self_train_resumes_from_a_record_that_holds_held_out_counts(pipeline, tmp_path,
                                                                     capsys):
    """A record written before round records dropped their held-out counts
    still resumes round 0, and the run writes what it writes without them."""
    _, cfg = pipeline
    model = _model_copy(pipeline, tmp_path)
    record = Path(f"{model}.bootstrap.json")
    _, plain = _self_train(cfg, tmp_path / "plain", capsys, discriminator_model=str(model))
    data = json.loads(record.read_text())
    record.write_text(json.dumps({**data, "held_out": [[t, 0, 0] for t in range(1, 41)]}))
    out, old = _self_train(cfg, tmp_path / "old", capsys, discriminator_model=str(model))
    assert out.startswith(f"bootstrap: reused {model}\nbootstrap: round 0 read from {record}\n")
    assert old == plain


NOT_A_GENERATION = ("{record}: the generation of pair {first!r} is not a non-empty list of ids "
                    "of the {n_vocab}-token vocabulary other than SOS and EOS")
NOT_A_HISTORY = "{record}: its history entry is not that of a bootstrap round"


@pytest.mark.parametrize("case, edit, reason", [
    # edit: None deletes the record, "directory" puts a directory in its place,
    # bytes replace it, and a function changes the parsed record, given the id
    # of the train split's first pair
    ("none", None, "no file at {record}"),
    ("directory", "directory", "cannot read {record}: [Errno 21] Is a directory"),
    ("json", b'{"model_sha256": ', "{record} does not parse: Expecting value: line 1 column 18"),
    ("not-utf8", b"\xff{}", "{record} does not parse: 'utf-8' codec can't decode byte 0xff"),
    ("other-model", lambda data, first: data.update(model_sha256="0" * 64),
     "{record}: it records another model file"),
    ("no-generations", lambda data, first: data.update(generations=list(data["generations"])),
     "{record}: it holds no generations"),
    ("missing-id", lambda data, first: data["generations"].pop(first),
     "{record}: it has no generation of pair {first!r}"),
    ("extra-id", lambda data, first: data["generations"].update(extra=[3]),
     "{record}: its pair 'extra' is not in the train split"),
    ("token", lambda data, first: data["generations"][first].append(10 ** 6), NOT_A_GENERATION),
    ("eos", lambda data, first: data["generations"][first].append(1), NOT_A_GENERATION),
    ("empty", lambda data, first: data["generations"][first].clear(), NOT_A_GENERATION),
    ("history-key", lambda data, first: data["history"].pop("distinct_G"), NOT_A_HISTORY),
    ("history-iteration", lambda data, first: data["history"].update(iteration=1),
     NOT_A_HISTORY),
    ("history-inf", lambda data, first: data["history"].update(d_len=float("inf")),
     "{record}: its history entry's d_len is inf, not a finite number"),
    ("history-nan", lambda data, first: data["history"].update(rouge1=float("nan")),
     "{record}: its history entry's rouge1 is nan, not a finite number"),
])
def test_self_train_recomputes_the_round_without_a_valid_record(pipeline, tmp_path, capsys,
                                                                monkeypatch, case, edit, reason):
    root, cfg = pipeline
    model = _model_copy(pipeline, tmp_path)
    record = Path(f"{model}.bootstrap.json")
    _, resumed = _self_train(cfg, tmp_path / "resumed", capsys, discriminator_model=str(model))
    first = load_corpus(root / "out" / "train.jsonl").pairs[0].id
    if edit in (None, "directory"):
        record.unlink()
        if edit:
            record.mkdir()
    elif isinstance(edit, bytes):
        record.write_bytes(edit)
    else:
        data = json.loads(record.read_text())
        edit(data, first)
        record.write_text(json.dumps(data))
    counts = _count_round_work(monkeypatch)
    out, recomputed = _self_train(cfg, tmp_path / "run", capsys, discriminator_model=str(model))
    n_vocab = len(Vocabulary.load(root / "out" / "vocab.txt"))
    why = reason.format(record=record, first=first, n_vocab=n_vocab)
    assert out.startswith(f"bootstrap: trained ({why}")
    assert counts["bootstrap"] == 1
    manifest = json.loads((tmp_path / "run" / "manifest-self-train.json").read_text())
    assert not {str(model), str(record)} & manifest["inputs"].keys()
    assert recomputed == resumed


def test_a_fault_inside_resumed_bootstrap_exits_two(pipeline, tmp_path, capsys, monkeypatch):
    """Only a refused record (DiscriminatorError) makes self-train train round
    0: a bare ValueError raised while checking a record is a program fault,
    which exits 2 as a runtime error and trains nothing."""
    _, cfg = pipeline
    model = _model_copy(pipeline, tmp_path)

    def unpack(*args, **kwargs):
        a, b = (1, 2, 3)

    monkeypatch.setattr(selftrain, "resumed_bootstrap", unpack)
    counts = _count_round_work(monkeypatch)
    (tmp_path / "run").mkdir()
    path = derive_config(cfg, tmp_path / "run", discriminator_model=str(model))
    assert main(["self-train", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert "bootstrap: trained" not in captured.out
    assert captured.err == "runtime error: too many values to unpack (expected 2)\n"
    assert not counts


@pytest.mark.parametrize("foreign", [False, True], ids=["ours", "foreign"])
def test_a_shorter_self_train_run_removes_the_later_iterations_of_an_earlier_one(
        pipeline, tmp_path, capsys, foreign):
    _, cfg = pipeline
    run = tmp_path / "run"
    _self_train(cfg, run, capsys)  # iter_0 and iter_1
    for j in (2, 3):  # as a longer run leaves them
        shutil.copytree(run / "iter_1", run / f"iter_{j}")
    if foreign:
        (run / "iter_3" / "notes.txt").write_text("mine\n")
    path = derive_config(cfg, run)
    assert main(["self-train", "--config", str(path)]) == 0
    captured = capsys.readouterr()
    files = "(generations.jsonl, discriminator.model, history.csv)"
    assert f"removed {run / 'iter_2'}, left by an earlier run {files}\n" in captured.out
    assert sorted(p.name for p in run.glob("iter_*")) == (
        ["iter_0", "iter_1", "iter_3"] if foreign else ["iter_0", "iter_1"])
    if foreign:
        assert [p.name for p in (run / "iter_3").iterdir()] == ["notes.txt"]
        assert (f"removed generations.jsonl, discriminator.model, history.csv from "
                f"{run / 'iter_3'}, left by an earlier run\n") in captured.out
        assert captured.err == (f"note: kept {run / 'iter_3'}: it holds notes.txt, which "
                                f"self-train does not write\n")
    else:
        assert f"removed {run / 'iter_3'}, left by an earlier run {files}\n" in captured.out
        assert captured.err == ""
    assert sorted(p.name for p in (run / "iter_1").iterdir()) == sorted(cli.SNAPSHOT_FILES)


def test_self_train_exits_one_on_a_malformed_discriminator_file(pipeline, tmp_path, capsys):
    root, cfg = pipeline
    cut = tmp_path / "discriminator.model"
    cut.write_bytes((root / "out" / "discriminator.model").read_bytes()[:60])
    path = derive_config(cfg, tmp_path, discriminator_model=str(cut))
    assert main(["self-train", "--config", str(path)]) == 1
    assert f"error: truncated or malformed discriminator model file: {cut}" in \
        capsys.readouterr().err
    assert not (tmp_path / "iter_0").exists()


def test_self_train_exits_one_on_a_body_cut_bootstrap_model(pipeline, tmp_path, capsys):
    root, cfg = pipeline
    lines = (root / "out" / "discriminator.model").read_bytes().splitlines(keepends=True)
    cut = tmp_path / "discriminator.model"
    cut.write_bytes(b"".join(lines[:-1]))  # every line but the last sparse weight
    path = derive_config(cfg, tmp_path, discriminator_model=str(cut))
    assert main(["self-train", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: truncated or malformed discriminator model file: {cut}: line 2 counts "
        f"'{len(lines) - 2}' lines after it, but {len(lines) - 3} whole ones follow\n")
    assert not list(tmp_path.glob("iter_*"))


@pytest.mark.parametrize("key", ["vocab_path", "generator_model", "discriminator_model",
                                 "config"])
def test_a_file_that_is_not_utf8_is_named_in_the_error(pipeline, tmp_path, capsys, key):
    # the file as UTF-16: its first bytes are ff fe
    root, cfg = pipeline
    source = Path(cfg) if key == "config" else Path(getattr(RunConfig.from_file(cfg), key))
    bad = tmp_path / f"utf16-{source.name}"
    bad.write_text(source.read_text(), encoding="utf-16")
    assert bad.read_bytes()[:2] == b"\xff\xfe"
    path = bad if key == "config" else derive_config(cfg, tmp_path, **{key: str(bad)})
    assert main(["decode", "--config", str(path), "--mode", "das"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
    assert "codec can't decode byte 0xff in position 0" in err


def test_a_v1_discriminator_file_exits_one_for_decode_and_self_train(pipeline, tmp_path,
                                                                     capsys):
    root, cfg = pipeline
    text = (root / "out" / "discriminator.model").read_text()
    text = re.sub(r"\Adiscriminator v4\n.*\n", "discriminator v1\n", text)
    v1 = tmp_path / "v1.model"
    v1.write_text(re.sub(r"\nprovenance .*\n", "\n", re.sub(r"\nvocab_hash \S+\n", "\n", text)))
    for command, extra in (("decode", ["--mode", "das"]), ("self-train", [])):
        path = derive_config(cfg, tmp_path, discriminator_model=str(v1))
        assert main([command, "--config", str(path), *extra]) == 1
        assert capsys.readouterr().err == (
            f"error: not a discriminator model file: {v1}: its first line is 'discriminator v1', "
            f"not 'discriminator v4'; re-run train-discriminator to write one\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.ini", "v1.model"]


@pytest.mark.parametrize("found", ["discriminator", "empty"])
def test_a_file_that_is_not_a_generator_model_names_its_first_line(pipeline, tmp_path, capsys,
                                                                    found):
    root, cfg = pipeline
    if found == "discriminator":
        model, first = root / "out" / "discriminator.model", "discriminator v4"
    else:
        model, first = tmp_path / "empty.model", ""
        model.write_text("")
    path = derive_config(cfg, tmp_path, generator_model=str(model))
    assert main(["decode", "--config", str(path), "--mode", "das"]) == 1
    assert capsys.readouterr().err == (
        f"error: not a generator model file: {model}: its first line is {first!r}, "
        f"not 'ngram-copy v2'; re-run train-generator to write one\n")


@pytest.mark.parametrize("where", ["flag", "config"])
def test_train_generator_refuses_a_lambda_copy_of_one(pipeline, tmp_path, capsys, where):
    """The copy distribution gives EOS no probability, so with lambda_copy = 1
    every output would be forced to end at t_max with s_gen = -inf."""
    _, cfg = pipeline
    out = tmp_path / "out"
    path = derive_config(cfg, tmp_path, vocab_path=str(out / "vocab.txt"),
                         generator_model=str(out / "generator.model"),
                         **({"lambda_copy": 1.0} if where == "config" else {}))
    extra = ["--lambda-copy", "1"] if where == "flag" else []
    assert main(["train-generator", "--config", str(path), *extra]) == 1
    assert capsys.readouterr().err == (
        "error: [generator] lambda_copy must be below 1 for decoding to end, got 1.0\n")
    assert not out.exists()


@pytest.mark.parametrize("min_count", [1, 2])
def test_train_generator_reads_the_train_split_once(pipeline, tmp_path, monkeypatch, min_count):
    """train-generator reads and tokenises the train split once, and writes
    the bytes that building the vocabulary from one read and encoding a
    second read with it write: at min_count 2 the tokens seen once become
    UNK in memory, as they would on a second read."""
    root, cfg = pipeline
    train = tmp_path / "train.jsonl"  # the split, and a pair with a word seen once
    train.write_text((root / "out" / "train.jsonl").read_text()
                     + json.dumps({"id": "rare", "source": "a quokka slept",
                                   "summary": "it slept"}) + "\n")
    path = derive_config(cfg, tmp_path, train_path=str(train),
                         vocab_path=str(tmp_path / "vocab.txt"),
                         generator_model=str(tmp_path / "generator.model"), min_count=min_count)
    reads = []
    monkeypatch.setattr(cli, "load_corpus",
                        lambda *args, **kwargs: reads.append(args) or load_corpus(*args, **kwargs))
    assert main(["train-generator", "--config", str(path)]) == 0
    assert len(reads) == 1
    run = RunConfig.from_file(path)
    full = load_corpus(run.train_path)
    vocab = build_vocabulary(full, min_count=min_count)
    assert (len(vocab) < len(full.vocab)) == (min_count == 2)
    model = train_generator(load_corpus(run.train_path, vocab), order=run.order, kappa=run.kappa,
                            lambda_copy=run.lambda_copy)
    vocab.save(tmp_path / "two-reads-vocab.txt")
    model.save(tmp_path / "two-reads-generator.model")
    for name in ("vocab.txt", "generator.model"):
        assert (tmp_path / name).read_bytes() == (tmp_path / f"two-reads-{name}").read_bytes()


def test_decode_rejects_a_discriminator_of_an_equal_sized_vocabulary(pipeline, tmp_path,
                                                                      capsys):
    root, cfg = pipeline
    # the train split of synth seed 11 has as many tokens as seed 7's, other ones
    other = write_config(tmp_path, synth_seed=11)
    assert main(["make-corpus", "--config", str(other)]) == 0
    assert main(["train-generator", "--config", str(other)]) == 0
    vocab, foreign = root / "out" / "vocab.txt", tmp_path / "out" / "vocab.txt"
    assert len(Vocabulary.load(foreign)) == len(Vocabulary.load(vocab))
    assert foreign.read_bytes() != vocab.read_bytes()
    model = root / "out" / "discriminator.model"
    path = derive_config(other, tmp_path / "out", discriminator_model=str(model))
    assert main(["decode", "--config", str(path), "--mode", "das"]) == 1
    assert (f"error: discriminator model {model} was built for another vocabulary than "
            f"{foreign}") in capsys.readouterr().err
    assert not (tmp_path / "out" / "generations-das-test.jsonl").exists()


NUMPY_BASELINE_DISPATCH = ("X86_V3 X86_V4 AVX512_SKX AVX512_CLX AVX512_CNL AVX512_ICL "
                           "AVX512_SPR")


def test_model_files_do_not_depend_on_numpys_cpu_dispatch(pipeline, tmp_path):
    """train-discriminator writes the same bytes, model and round record, and
    self-train the same iter_* files over two rounds, with numpy's SIMD
    kernels above X86_V2 turned off, whose np.exp and np.log return other
    bits, and OpenBLAS on its Prescott kernels: a model file must be what
    training gives on any machine."""
    from numpy._core._multiarray_umath import __cpu_features__
    if not __cpu_features__.get("X86_V3"):
        pytest.skip("the CPU lacks X86_V3, so numpy has no dispatch above X86_V2 to turn off")
    _, cfg = pipeline
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    env.pop("OPENBLAS_CORETYPE", None)
    runs = []
    for name, disabled in (("default", None), ("reduced", NUMPY_BASELINE_DISPATCH)):
        out = tmp_path / name
        out.mkdir()
        model = out / "discriminator.model"
        path = derive_config(cfg, out, discriminator_model=str(model))
        run_env = (dict(env, NPY_DISABLE_CPU_FEATURES=disabled, OPENBLAS_CORETYPE="Prescott")
                   if disabled else env)
        for command in (["train-discriminator"], ["self-train", "--max-iters", "2"]):
            subprocess.run([sys.executable, "-m", "dasearch.cli", *command, "--config", str(path)],
                           env=run_env, check=True, timeout=300, capture_output=True)
        runs.append({p.relative_to(out).as_posix(): p.read_bytes() for p in
                     [model, Path(f"{model}.bootstrap.json"), *sorted(out.glob("iter_*/*"))]})
    assert [k for k in runs[0] if k.startswith("iter_")] == [
        f"iter_{k}/{name}" for k in (0, 1, 2) for name in sorted(cli.SNAPSHOT_FILES)]
    assert runs[0] == runs[1]


def test_output_dir_env_override(pipeline, tmp_path, monkeypatch):
    root, cfg = pipeline
    alt = tmp_path / "alt"
    monkeypatch.setenv("DASEARCH_OUTPUT_DIR", str(alt))
    assert main(["decode", "--config", str(cfg), "--mode", "plain",
                 "--split", "test"]) == 0
    assert (alt / "generations-plain-test.jsonl").is_file()


def test_the_output_dir_flag_beats_its_environment_override(pipeline, tmp_path, monkeypatch):
    _, cfg = pipeline
    monkeypatch.setenv("DASEARCH_OUTPUT_DIR", str(tmp_path / "env"))
    assert main(["decode", "--config", str(cfg), "--mode", "plain",
                 "--output-dir", str(tmp_path / "flag")]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["flag"]
    assert (tmp_path / "flag" / "generations-plain-test.jsonl").is_file()


def test_the_jobs_flag_beats_its_environment_override(pipeline, tmp_path, monkeypatch):
    _, cfg = pipeline
    path = derive_config(cfg, tmp_path)
    monkeypatch.setenv("DASEARCH_JOBS", "3")
    assert main(["decode", "--config", str(path), "--mode", "plain", "--jobs", "1"]) == 0
    with open(tmp_path / "manifest-decode-plain-test.json") as f:
        assert json.load(f)["config"]["jobs"] == 1


def test_parallel_decode_matches_serial(pipeline):
    root, cfg = pipeline
    out = root / "out"
    assert main(["decode", "--config", str(cfg), "--mode", "plain",
                 "--split", "test"]) == 0
    serial = (out / "generations-plain-test.jsonl").read_bytes()
    assert main(["decode", "--config", str(cfg), "--mode", "plain",
                 "--split", "test", "--jobs", "2"]) == 0
    assert (out / "generations-plain-test.jsonl").read_bytes() == serial


@pytest.mark.parametrize("mode", ["plain", "das"])
@pytest.mark.parametrize("beta", [400.0, -400.0])
def test_decode_refuses_a_beta_whose_length_penalty_breaks_the_final_sort(
        pipeline, tmp_path, capsys, beta, mode):
    """At 400 the penalty overflows and at -400 it is 0.0 for a 41-token
    output, so the final sort would fail after decoding: refused first."""
    _, cfg = pipeline
    out = tmp_path / "out"
    path = derive_config(cfg, tmp_path, output_dir=str(out), length_penalty_beta=beta)
    assert main(["decode", "--config", str(path), "--mode", mode]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: length_penalty_beta {beta} with t_max 40 gives a ")
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_decode_rejects_jobs_below_one(pipeline, tmp_path, capsys, jobs):
    _, cfg = pipeline
    path = derive_config(cfg, tmp_path)
    assert main(["decode", "--config", str(path), "--mode", "plain", "--jobs", jobs]) == 1
    assert f"jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not (tmp_path / "generations-plain-test.jsonl").exists()


@pytest.mark.parametrize("command, key", [
    ("decode", "vocab_path"),
    ("decode", "generator_model"),
    ("decode", "discriminator_model"),
    ("decode", "test_path"),
    ("evaluate", "vocab_path"),
    ("train-generator", "train_path"),
    ("train-generator", "vocab_path"),
    ("train-generator", "generator_model"),
    ("train-discriminator", "train_path"),
    ("train-discriminator", "discriminator_model"),
    ("self-train", "train_path"),
])
def test_missing_path_names_its_key(pipeline, tmp_path, capsys, command, key):
    _, cfg = pipeline
    path = derive_config(cfg, tmp_path, **{key: ""})
    extra = ["--systems", str(tmp_path / "none.jsonl")] if command == "evaluate" else []
    assert main([command, "--config", str(path), *extra]) == 1
    assert f"error: [paths] {key} is not set" in capsys.readouterr().err


@pytest.mark.parametrize("command, key", [
    ("train-generator", "train_path"),
    ("evaluate", "vocab_path"),
    ("evaluate", "--systems"),
])
def test_a_directory_given_as_a_file_exits_one(pipeline, tmp_path, capsys, command, key):
    root, cfg = pipeline
    directory = tmp_path / "somedir"
    directory.mkdir()
    systems = directory if key == "--systems" else root / "out" / "test.jsonl"
    path = derive_config(cfg, tmp_path, **({} if key == "--systems" else {key: str(directory)}))
    extra = ["--split", "test", "--systems", str(systems)] if command == "evaluate" else []
    assert main([command, "--config", str(path), *extra]) == 1
    assert f"Is a directory: '{directory}'" in capsys.readouterr().err


@pytest.mark.parametrize("name", CORPUS_FILE_REFUSALS)
def test_a_refused_corpus_file_exits_one_before_any_output(tmp_path, capsys, name):
    text, message = CORPUS_FILE_REFUSALS[name]
    cfg = write_config(tmp_path)
    train = tmp_path / "out" / "train.jsonl"
    train.parent.mkdir()
    train.write_text(text)
    assert main(["train-generator", "--config", str(cfg)]) == 1
    assert f"error: {message.format(path=train)}\n" in capsys.readouterr().err
    assert [p.name for p in train.parent.iterdir()] == ["train.jsonl"]


def test_a_runtime_failure_exits_two_and_writes_no_manifest(tmp_path, capsys, monkeypatch):
    """An error other than InputError or OSError is a runtime failure: exit 2,
    its message after "runtime error:", and no manifest of the command."""
    from dasearch import generator

    def overflow(*args, **kwargs):
        raise RuntimeError("counts overflowed")

    monkeypatch.setattr(generator, "train_generator", overflow)
    cfg = write_config(tmp_path)
    train = tmp_path / "out" / "train.jsonl"
    train.parent.mkdir()
    train.write_text('{"id": "a", "source": "x y", "summary": "x"}\n')
    assert main(["train-generator", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == "runtime error: counts overflowed\n"
    assert [p.name for p in train.parent.iterdir()] == ["train.jsonl"]


def test_sweep_refuses_a_subset_size_that_is_not_an_integer(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--subset-size", "x"]) == 1
    assert ("error: argument --subset-size: must be an integer >= 1, got 'x'\n"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_malformed_env_override_names_the_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DASEARCH_JOBS", "two")
    assert main(["decode", "--config", str(write_config(tmp_path))]) == 1
    assert "error: DASEARCH_JOBS: invalid literal for int()" in capsys.readouterr().err


@pytest.mark.parametrize("flag, text", [("--k-rerank", "a"), ("--alphas", "1,x")])
def test_sweep_rejects_malformed_lists(tmp_path, capsys, flag, text):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg), flag, text]) == 1
    assert f"argument {flag}: must be a comma-separated list" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# the last line of a generations file, from its pair id and the first id
# outside the vocabulary, and the start of the error it raises
@pytest.mark.parametrize("last, message", [
    (lambda i, n: json.dumps({"id": i, "tokens": [3, n]}), "token id {n} in pair {i!r} is not"),
    (lambda i, n: json.dumps({"id": i, "tokens": [3, "4"]}), '"tokens" is not a list of ints'),
    (lambda i, n: json.dumps({"tokens": [3]}), 'not an object with a string "id"'),
    (lambda i, n: json.dumps({"id": i, "tokens": [3.5]}), '"tokens" is not a list of ints'),
    (lambda i, n: json.dumps({"id": i, "tokens": [3, True]}), '"tokens" is not a list of ints'),
    (lambda i, n: json.dumps({"id": i})[:-1], "malformed JSON"),
    (lambda i, n: json.dumps({"id": i, "tokens": [1, 0, 3]}), "reserved id 1 inside pair {i!r}"),
    (lambda i, n: json.dumps({"id": i, "tokens": [3, 0]}), "reserved id 0 inside pair {i!r}"),
], ids=["foreign-token", "string-token", "no-id", "float-token", "bool-token", "malformed-json",
        "eos-token", "sos-token"])
def test_evaluate_rejects_token_ids_outside_the_vocabulary(pipeline, tmp_path, capsys, last,
                                                           message):
    root, cfg = pipeline
    path = derive_config(cfg, tmp_path)
    ids = [json.loads(line)["id"] for line in
           (root / "out" / "test.jsonl").read_text().splitlines()]
    foreign = len(Vocabulary.load(root / "out" / "vocab.txt"))
    gens = tmp_path / "gens.jsonl"
    gens.write_text("".join(json.dumps({"id": i, "tokens": [3]}) + "\n" for i in ids[:-1])
                    + last(ids[-1], foreign) + "\n")
    assert main(["evaluate", "--config", str(path), "--split", "test",
                 "--systems", str(gens)]) == 1
    assert (f"error: {gens} line {len(ids)}: {message.format(i=ids[-1], n=foreign)}"
            in capsys.readouterr().err)
    assert not [p for p in ("report.csv", "report.json", "zipf.csv", "rep3_positions.csv")
                if (tmp_path / p).exists()]


@pytest.mark.parametrize("edit", ["none", "no-text", "text"])
def test_evaluate_checks_each_text_against_its_tokens(pipeline, tmp_path, capsys, edit):
    """A decode file evaluates as written, and so does one without "text";
    a record whose "text" is not its tokens' text exits 1, naming its line,
    before any report is written."""
    _, cfg = pipeline
    path = derive_config(cfg, tmp_path)
    assert main(["decode", "--config", str(path), "--mode", "plain", "--split", "test"]) == 0
    gens = tmp_path / "generations-plain-test.jsonl"
    records = [json.loads(line) for line in gens.read_text().splitlines()]
    if edit == "no-text":
        for rec in records:
            del rec["text"]
    elif edit == "text":
        records[-1]["text"] += " x"
    gens.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    code = main(["evaluate", "--config", str(path), "--split", "test", "--systems", str(gens)])
    reports = [p for p in ("report.csv", "report.json", "zipf.csv", "rep3_positions.csv")
               if (tmp_path / p).exists()]
    if edit == "text":
        assert code == 1
        assert (f"error: {gens} line {len(records)}: the \"text\" of pair "
                f"{records[-1]['id']!r} is not its tokens'\n") in capsys.readouterr().err
        assert reports == []
    else:
        assert code == 0
        assert len(reports) == 4


def test_a_bare_value_error_is_a_program_fault_and_exits_two(tmp_path, capsys, monkeypatch):
    """Only refused input (InputError) and OSError exit 1: a ValueError of
    any other kind, such as a failed unpacking, exits 2 as a runtime error."""
    def unpack(cfg, args, out_dir):
        a, b = (1, 2, 3)

    monkeypatch.setattr(cli, "cmd_make_corpus", unpack)
    assert main(["make-corpus", "--config", str(write_config(tmp_path))]) == 2
    assert capsys.readouterr().err == "runtime error: too many values to unpack (expected 2)\n"


def test_evaluate_scores_unk_tokens(pipeline, tmp_path):
    root, cfg = pipeline
    path = derive_config(cfg, tmp_path)
    ids = [json.loads(line)["id"] for line in
           (root / "out" / "test.jsonl").read_text().splitlines()]
    gens = tmp_path / "gens.jsonl"
    gens.write_text("".join(json.dumps({"id": i, "tokens": [Vocabulary.unk, 3]}) + "\n"
                            for i in ids))
    assert main(["evaluate", "--config", str(path), "--split", "test",
                 "--systems", str(gens)]) == 0
    assert "\ngens,1,<unk>," in (tmp_path / "zipf.csv").read_text()


# a bad last line of a JSON-lines file, and what its error says after
# "<path> line <n>: "; None repeats the first line
BAD_RECORDS = {
    "malformed-json": ('{"id": "x"', "malformed JSON"),
    "not-utf8": ('{"id": "\udcff"}', "not UTF-8"),  # written as the byte 0xff
    "string": ('"a"', 'not an object with a string "id"'),
    "number": ("5", 'not an object with a string "id"'),
    "list": ("[1]", 'not an object with a string "id"'),
    "no-id": ('{"tokens": [3]}', 'not an object with a string "id"'),
    "int-id": ('{"id": 5, "tokens": [3]}', 'not an object with a string "id"'),
    "repeated-id": (None, "id {first!r} repeats line 1"),
}


@pytest.mark.parametrize("command", ["decode", "evaluate"])
@pytest.mark.parametrize("bad, message", BAD_RECORDS.values(), ids=BAD_RECORDS)
def test_corpus_and_generations_files_share_one_reader(pipeline, tmp_path, capsys, command,
                                                       bad, message):
    root, cfg = pipeline
    corpus_lines = (root / "out" / "test.jsonl").read_text().splitlines()
    ids = [json.loads(line)["id"] for line in corpus_lines]
    good = (corpus_lines if command == "decode"
            else [json.dumps({"id": i, "tokens": [3]}) for i in ids])
    records = tmp_path / "records.jsonl"
    # a blank line counts in the line numbers but holds no record
    text = "\n".join([*good[:2], "", good[0] if bad is None else bad]) + "\n"
    records.write_bytes(text.encode("utf-8", "surrogateescape"))
    if command == "decode":
        path = derive_config(cfg, tmp_path, test_path=str(records))
        argv = ["decode", "--config", str(path), "--mode", "plain", "--split", "test"]
    else:
        path = derive_config(cfg, tmp_path)
        argv = ["evaluate", "--config", str(path), "--split", "test", "--systems", str(records)]
    assert main(argv) == 1
    assert (f"error: {records} line 4: {message.format(first=ids[0])}"
            in capsys.readouterr().err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.ini", "records.jsonl"]


# the commands that read each RunConfig field, but output_dir, which every command reads
_READERS = {
    "train_path": ["train-generator"], "validation_path": ["sweep"], "test_path": ["decode"],
    "vocab_path": ["decode"], "generator_model": ["decode"], "discriminator_model": ["decode"],
    "synth_seed": ["make-corpus"], "synth_n_pairs": ["make-corpus"],
    **dict.fromkeys(["order", "kappa", "lambda_copy", "min_count"], ["train-generator"]),
    **dict.fromkeys(["d_hash", "epochs", "learning_rate", "use_source", "ratio"],
                    ["train-discriminator"]),
    **dict.fromkeys(["beam_size", "k_rerank", "length_penalty_beta"],
                    ["decode", "decode-plain", "sweep"]),
    "alpha": ["decode", "sweep"], "t_max": ["decode", "decode-plain", "train-discriminator"],
    "block_repeated_trigrams": ["decode", "decode-plain"], "final_by_s_gen": ["decode"],
    **dict.fromkeys(["max_iters", "tau_acc", "tau_delta", "warm_start", "replay"], ["self-train"]),
    **dict.fromkeys(["zipf_k", "hist_buckets", "bleu_micro", "pooled"], ["evaluate"]),
    "master_seed": ["train-discriminator", "sweep"], "jobs": ["decode"],
}
_ARGV = {"decode": ["decode", "--mode", "das"], "decode-plain": ["decode", "--mode", "plain"],
         "sweep": ["sweep", "--subset-size", "4", "--repetitions", "1"],
         "evaluate": ["evaluate", "--systems", "{out}/generations-plain-test.jsonl"]}
# the int fields whose huge values ask for a long run or a large allocation
_ONLY_SMALL = {"synth_n_pairs", "order", "epochs", "beam_size", "t_max", "max_iters",
               "hist_buckets"}
_EDGE_SETUP = {"synth_n_pairs": 20, "t_max": 12, "k_rerank": 4, "epochs": 1}


def _edges(f) -> list:
    """The edge values of RunConfig field `f`: both for a bool; unset and a
    file that is not there for a path; else 0, +-1, the default +- 1, +-1e308
    (10 ** 308 for an int) and, for a float, 1e-308."""
    if f.type == "bool":
        return [False, True]
    if f.type == "str":
        return ["", "{out}/missing"]
    kind = int if f.type == "int" else float
    huge = kind(10 ** 308)
    values = [0, 1, -1, f.default - 1, f.default + 1, -huge]
    values += [] if f.name in _ONLY_SMALL else [huge]
    values += [1e-308] if kind is float else []
    return list(dict.fromkeys(map(kind, values)))


_EDGE_CASES = [(f.name, value, command) for f in fields(RunConfig) if f.name != "output_dir"
               for value in _edges(f) for command in _READERS[f.name]]


@pytest.fixture(scope="module")
def edge_setup(tmp_path_factory):
    """The output directory of a tiny trained setup with plain generations."""
    root = tmp_path_factory.mktemp("edges")
    cfg = write_config(root, **_EDGE_SETUP)
    for argv in (["make-corpus"], ["train-generator"], ["train-discriminator"],
                 ["decode", "--mode", "plain"]):
        assert main([*argv, "--config", str(cfg)]) == 0
    return root / "out"


@settings(derandomize=True, deadline=None, max_examples=len(_EDGE_CASES))
@given(case=st.sampled_from(_EDGE_CASES))
def test_every_edge_setting_runs_or_exits_one_leaving_the_output_directory_as_it_was(
        edge_setup, case):
    """A RunConfig field at an edge value of its type, through a command that
    reads it, on a copy of a tiny setup: exit 0, or exit 1 with every file
    under the output directory as it was; never a runtime error. Huge values
    that ask for a long run or a large allocation are not drawn, nor is
    output_dir, which holds the copy."""
    assert set(_READERS) == {f.name for f in fields(RunConfig)} - {"output_dir"}
    name, value, command = case
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        shutil.copytree(edge_setup, out)
        path = write_config(Path(tmp), **{
            **_EDGE_SETUP, name: value.format(out=out) if type(value) is str else value})
        before, err = _written(out), io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([arg.format(out=out) for arg in _ARGV.get(command, [command])]
                        + ["--config", str(path)])
        assert code in (0, 1) and "runtime error:" not in err.getvalue(), err.getvalue()
        if code == 1:
            assert _written(out) == before


def test_a_command_that_fails_its_checks_leaves_no_output_directory(pipeline, tmp_path,
                                                                   capsys):
    root, cfg = pipeline
    lines = (root / "out" / "test.jsonl").read_text().splitlines()
    corpus = tmp_path / "test.jsonl"
    corpus.write_text("\n".join([*lines[:2], "5"]) + "\n")
    path = derive_config(cfg, tmp_path, output_dir=str(tmp_path / "out"),
                         test_path=str(corpus))
    assert main(["decode", "--config", str(path), "--mode", "plain", "--split", "test"]) == 1
    assert f"error: {corpus} line 3: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("hist_buckets", 0), ("zipf_k", -1)])
def test_evaluate_rejects_metrics_settings_below_one(pipeline, tmp_path, capsys, key, value):
    root, cfg = pipeline
    path = derive_config(cfg, tmp_path, **{key: value})
    assert main(["decode", "--config", str(cfg), "--mode", "plain", "--split", "test"]) == 0
    assert main(["evaluate", "--config", str(path), "--split", "test", "--systems",
                 str(root / "out" / "generations-plain-test.jsonl")]) == 1
    assert f"error: [metrics] {key} must be >= 1, got {value}" in capsys.readouterr().err
    assert not [p for p in ("report.csv", "report.json", "zipf.csv", "rep3_positions.csv")
                if (tmp_path / p).exists()]


@pytest.mark.parametrize("systems, message", [
    (["sys/human.jsonl"], "system {0} would be named 'human', like the references"),
    (["a/gen.jsonl", "b/gen.jsonl"], "system {1} would be named 'gen', like {0}"),
], ids=["human", "same-stem"])
def test_evaluate_rejects_colliding_system_names(pipeline, tmp_path, capsys, systems, message):
    root, cfg = pipeline
    path = derive_config(cfg, tmp_path)
    assert main(["decode", "--config", str(cfg), "--mode", "plain", "--split", "test"]) == 0
    gens = (root / "out" / "generations-plain-test.jsonl").read_bytes()
    paths = []
    for name in systems:
        paths.append(tmp_path / name)
        paths[-1].parent.mkdir(exist_ok=True)
        paths[-1].write_bytes(gens)
    assert main(["evaluate", "--config", str(path), "--split", "test",
                 "--systems", *map(str, paths)]) == 1
    assert f"error: {message.format(*paths)}" in capsys.readouterr().err
    assert not [p for p in ("report.csv", "report.json", "zipf.csv", "rep3_positions.csv")
                if (tmp_path / p).exists()]


def test_evaluate_quotes_tokens_that_are_csv_delimiters(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    out.joinpath("test.jsonl").write_text("".join(
        json.dumps({"id": f"p{i}", "source": 'a, b "c" d', "summary": 'a, "c"'}) + "\n"
        for i in range(2)))
    vocab = load_corpus(out / "test.jsonl").vocab
    vocab.save(out / "vocab.txt")
    gens = out / "gens.jsonl"
    gens.write_text("".join(json.dumps({"id": f"p{i}", "tokens": list(vocab.encode(
        ["b", ",", '"', "d"]))}) + "\n" for i in range(2)))
    assert main(["evaluate", "--config", str(cfg), "--split", "test",
                 "--systems", str(gens)]) == 0
    with open(out / "zipf.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    assert all(len(row) == 4 for row in rows)
    assert {",", '"'} <= {token for system, rank, token, freq in rows[1:]}


# --- what a process loads ------------------------------------------------------------

MODEL_MODULES = {"numpy", *(f"dasearch.{name}" for name in
                            ("generator", "decoder", "discriminator", "selftrain"))}

# run in a fresh interpreter: sys.argv[1] is code to run, and its last output
# line is the names in sys.modules afterwards
LOADED_AFTER = "import json, sys\nexec(sys.argv[1])\nprint(json.dumps(sorted(sys.modules)))"


def _loaded_after(code: str) -> set:
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", LOADED_AFTER, code], env=env, check=True,
                          timeout=300, capture_output=True, text=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


# the small sweep the tests below run: both kinds of cell, two pairs
SWEEP_FLAGS = ["--k-rerank", "1,3", "--alphas", "0,1", "--subset-size", "2",
               "--repetitions", "1", "--split", "validation"]
# decoding loads the generator, the decoder and the discriminator's inference half
DECODE_NOT_LOADED = {"numpy", "dasearch.selftrain"}
METRICS = {"dasearch.metrics"}


@pytest.mark.parametrize("command, not_loaded", [
    ("--help", MODEL_MODULES | METRICS),
    ("make-corpus", MODEL_MODULES | METRICS),
    ("evaluate", MODEL_MODULES),
    ("train-generator", MODEL_MODULES - {"dasearch.generator"} | METRICS),
    ("decode --mode plain --split test", DECODE_NOT_LOADED | METRICS),
    ("decode --mode das --split test", DECODE_NOT_LOADED | METRICS),
    (" ".join(["sweep", *SWEEP_FLAGS]), DECODE_NOT_LOADED),
    # the fixture's 30-pair split: too few pairs for a second worker
    ("decode --mode das --split train --jobs 2",
     DECODE_NOT_LOADED | METRICS | {"concurrent.futures"}),
])
def test_a_command_loads_only_the_modules_it_runs(pipeline, tmp_path, command, not_loaded):
    root, cfg = pipeline
    command, *flags = command.split()
    overrides = {}
    if command == "train-generator":  # its own models, not over the shared ones
        overrides = {"vocab_path": str(tmp_path / "vocab.txt"),
                     "generator_model": str(tmp_path / "generator.model")}
    path = derive_config(cfg, tmp_path, **overrides)
    argv = [command] if command == "--help" else [command, "--config", str(path), *flags]
    if command == "evaluate":
        corpus = load_corpus(root / "out" / "test.jsonl",
                             Vocabulary.load(root / "out" / "vocab.txt"))
        gens = tmp_path / "gens.jsonl"
        gens.write_text("".join(json.dumps({"id": p.id, "tokens": list(p.reference)}) + "\n"
                                for p in corpus.pairs))
        argv += ["--split", "test", "--systems", str(gens)]
    loaded = _loaded_after(f"from dasearch import cli\nassert cli.main({argv!r}) == 0")
    assert "dasearch.cli" in loaded
    assert sorted(loaded & not_loaded) == []


# run in a fresh interpreter in which numpy cannot be imported: sys.argv[1:]
# are the arguments of cli.main
WITHOUT_NUMPY = ("import sys\nsys.modules['numpy'] = None\nfrom dasearch import cli\n"
                 "raise SystemExit(cli.main(sys.argv[1:]))")


@pytest.mark.parametrize("argv, output", [
    (["decode", "--mode", "plain", "--split", "test"], "generations-plain-test.jsonl"),
    (["decode", "--mode", "das", "--split", "test"], "generations-das-test.jsonl"),
    (["sweep", *SWEEP_FLAGS], "sweep.csv"),
])
def test_decode_and_sweep_run_without_numpy(pipeline, tmp_path, argv, output):
    """decode (both modes) and sweep run where numpy cannot be imported, and
    write the bytes they write where it can."""
    _, cfg = pipeline
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    written = []
    for name, code in (("with", None), ("without", WITHOUT_NUMPY)):
        (tmp_path / name).mkdir()
        run = [argv[0], "--config", str(derive_config(cfg, tmp_path / name)), *argv[1:]]
        if code is None:
            assert main(run) == 0
        else:
            proc = subprocess.run([sys.executable, "-c", code, *run], env=env, timeout=300,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        written.append((tmp_path / name / output).read_bytes())
    assert written[0] == written[1]


def test_importing_the_package_loads_nothing_else():
    loaded = _loaded_after("import dasearch")
    assert {name for name in loaded if name.startswith("dasearch")} == {"dasearch"}
    assert "numpy" not in loaded


# every name `from dasearch import ...` gives, by the module that defines it
PACKAGE_NAMES = {
    "corpus": ["Corpus", "DocumentPair", "Vocabulary", "build_vocabulary",
               "generate_synthetic_corpus", "load_corpus", "tokenize"],
    "decoder": ["Hypothesis", "SearchConfig", "das_beam_search", "plain_beam_search"],
    "discriminator": ["DiscriminatorModel", "FeatureConfig", "accuracy_by_length",
                      "build_prefix_sets", "train_discriminator"],
    "generator": ["NGramCopyModel", "train_generator"],
    "metrics": ["MetricReport", "bleu1", "delta", "evaluate_system", "novelty_n",
                "repetition_n", "rouge1", "rougeL"],
    "selftrain": ["SelfTrainState", "bootstrap", "run_until_convergence", "self_train_step"],
}


def test_package_names_are_those_of_their_defining_modules():
    import dasearch
    assert sorted(dasearch.__all__) == sorted(sum(PACKAGE_NAMES.values(), []))
    for module_name, names in PACKAGE_NAMES.items():
        module = importlib.import_module(f"dasearch.{module_name}")
        for name in names:
            assert getattr(dasearch, name) is getattr(module, name)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        dasearch.no_such_name  # noqa: B018


# --- the process entry ------------------------------------------------------------

# the quick-start commands, each after "--config cfg.ini"; paths are relative
# to the directory a command runs in
QUICKSTART = [
    ["make-corpus"],
    ["train-generator"],
    ["train-discriminator"],
    ["decode", "--mode", "plain", "--split", "test"],
    ["decode", "--mode", "das", "--split", "test"],
    ["evaluate", "--split", "test", "--systems", "out/generations-plain-test.jsonl",
     "out/generations-das-test.jsonl"],
    ["self-train"],
    ["sweep", *SWEEP_FLAGS],
]


def _written(directory: Path) -> dict:
    """Every file under `directory` by relative path: its bytes, or for a
    manifest its JSON without the wall time."""
    files = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name.startswith("manifest-"):
                data = {k: v for k, v in json.loads(data).items() if k != "wall_time_s"}
            files[str(path.relative_to(directory))] = data
    return files


@contextmanager
def logging_as_in_a_process():
    """Logging as a fresh process has it: no handler, so warnings go to
    stderr."""
    handlers = logging.root.handlers
    logging.root.handlers = []
    try:
        yield
    finally:
        logging.root.handlers = handlers


def test_a_process_writes_and_prints_what_main_does(tmp_path, capsys, monkeypatch):
    """`python -m dasearch.cli` leaves with os._exit, which would cut short a
    file still open: each quick-start command, --help and a command that exits
    1 write the same files, print the same and exit with the same code as
    main in this process, and main leaves no file object open."""
    in_process, processes = tmp_path / "in-process", tmp_path / "processes"
    for directory in (in_process, processes):
        directory.mkdir()
        monkeypatch.chdir(directory)
        write_config(Path("."))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    env.pop("PYTHONUNBUFFERED", None)  # buffered output, which a missed flush loses
    steps = [([name, "--config", "cfg.ini", *flags], 0) for name, *flags in QUICKSTART]
    steps += [(["--help"], 0), (["decode", "--config", "cfg.ini", "--mode", "das"], 1)]
    for argv, expected in steps:
        if expected == 1:  # cut the discriminator model short in both directories
            for directory in (in_process, processes):
                model = directory / "out" / "discriminator.model"
                model.write_bytes(model.read_bytes()[:60])
        monkeypatch.chdir(in_process)
        with warnings.catch_warnings(record=True) as caught, logging_as_in_a_process():
            warnings.simplefilter("always", ResourceWarning)
            code = main(argv)
            gc.collect()
        out, err = capsys.readouterr()
        assert code == expected, err
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []
        proc = subprocess.run([sys.executable, "-m", "dasearch.cli", *argv], cwd=processes,
                              env=env, capture_output=True, text=True, timeout=300)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err), argv
        assert _written(processes) == _written(in_process), argv


def test_the_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts == {"dasearch": "dasearch.cli:entry"}
