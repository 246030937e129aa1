"""Command-line front end: training, decoding, self-training, evaluation and
the K_rerank x alpha ablation sweep.

Configuration is an INI file whose sections and keys are RunConfig's fields
(each field declares its section). The DASEARCH_* environment overrides, then
command-line flags, override file values. Every command writes a manifest
(config snapshot, input/output hashes, seed, wall time) next to its outputs.
One master seed fans out to per-component seeds via crc32(component name) so
components are independently reproducible.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import hashlib
import io
import json
import os
import random
import re
import sys
import time
import zlib
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

from dasearch.corpus import (
    Corpus,
    CorpusError,
    InputError,
    Vocabulary,
    atomic_write,
    build_vocabulary,
    finite_float,
    generate_synthetic_corpus,
    load_corpus,
    read_records,
    save_corpus,
    write_records,
)

# The model and metric modules are imported by the commands that use them, so
# --help and make-corpus start without them; only training the discriminator
# imports numpy. Functions are called through their modules, whose attributes
# tests and the benchmark rebind.
if TYPE_CHECKING:
    from dasearch.decoder import SearchConfig
    from dasearch.selftrain import DiscriminatorHparams


class ConfigError(InputError):
    pass


def _parse_bool(text: str) -> bool:
    value = configparser.ConfigParser.BOOLEAN_STATES.get(text.lower())
    if value is None:
        raise ValueError(f"not a boolean: {text!r}")
    return value


# text -> value, by the type name a RunConfig field declares; no setting is nan or inf
_PARSERS = {"str": str, "int": int, "float": finite_float, "bool": _parse_bool}


def _setting(section: str, default):
    """A RunConfig field that lives in INI section `section`."""
    return field(default=default, metadata={"section": section})


@dataclass
class RunConfig:
    train_path: str = _setting("paths", "")
    validation_path: str = _setting("paths", "")
    test_path: str = _setting("paths", "")
    output_dir: str = _setting("paths", "runs")
    vocab_path: str = _setting("paths", "")
    generator_model: str = _setting("paths", "")
    discriminator_model: str = _setting("paths", "")
    synth_seed: int = _setting("synthetic", 0)
    synth_n_pairs: int = _setting("synthetic", 500)
    order: int = _setting("generator", 3)
    kappa: float = _setting("generator", 1.0)
    lambda_copy: float = _setting("generator", 0.75)
    min_count: int = _setting("generator", 1)
    d_hash: int = _setting("discriminator", 2 ** 16)
    epochs: int = _setting("discriminator", 10)
    learning_rate: float = _setting("discriminator", 2.0)
    use_source: bool = _setting("discriminator", True)
    ratio: float = _setting("discriminator", 1.0)  # weight of generated vs. human prefixes
    beam_size: int = _setting("search", 5)
    k_rerank: int = _setting("search", 10)
    alpha: float = _setting("search", 1.0)
    t_max: int = _setting("search", 140)
    length_penalty_beta: float = _setting("search", 0.0)
    block_repeated_trigrams: bool = _setting("search", False)
    final_by_s_gen: bool = _setting("search", False)
    max_iters: int = _setting("selftrain", 3)
    tau_acc: float = _setting("selftrain", 0.55)
    tau_delta: float = _setting("selftrain", -1.0)  # <0: use 0.01 * t_max
    warm_start: bool = _setting("selftrain", False)
    replay: bool = _setting("selftrain", False)
    zipf_k: int = _setting("metrics", 100)
    hist_buckets: int = _setting("metrics", 10)
    bleu_micro: bool = _setting("metrics", False)
    pooled: bool = _setting("metrics", False)
    master_seed: int = _setting("run", 0)
    jobs: int = _setting("run", 1)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        parser = configparser.ConfigParser(interpolation=None)
        try:
            if not parser.read(path, encoding="utf-8"):
                raise ConfigError(f"cannot read config file: {path}")
        except (configparser.Error, UnicodeDecodeError) as e:
            raise ConfigError(f"malformed config file {path}: {e}") from None
        schema = {f.name: f for f in fields(cls)}
        sections = {f.metadata["section"] for f in schema.values()}
        cfg = cls()
        if parser.defaults():
            raise ConfigError(f"unknown section [{parser.default_section}]")
        for section in parser.sections():
            if section not in sections:
                raise ConfigError(f"unknown section [{section}]")
            for key, raw in parser[section].items():
                f = schema.get(key)
                if f is None or f.metadata["section"] != section:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                try:
                    setattr(cfg, key, _PARSERS[f.type](raw))
                except ValueError as e:
                    raise ConfigError(f"[{section}] {key}: {e}") from None
        return cfg

    def to_ini(self) -> str:
        sections: dict[str, dict[str, str]] = {}
        for f in fields(self):
            section = sections.setdefault(f.metadata["section"], {})
            section[f.name] = str(getattr(self, f.name))
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_dict(sections)
        buf = io.StringIO()
        parser.write(buf)
        return buf.getvalue()

    def _view(self, cls, **given):
        """An instance of dataclass `cls` built from the same-named fields of
        this config, except the fields named in `given`, which it sets."""
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls)
                      if f.name not in given}, **given)

    def search_config(self, mode: str = "das") -> SearchConfig:
        """The search `dasearch decode --mode <mode>` runs: plain search is the
        fused search at alpha = 0. A search without a discriminator does not
        read k_rerank, so plain mode sets it to beam_size: SearchConfig
        refuses a beam_size above k_rerank, which this config may hold."""
        from dasearch.decoder import SearchConfig
        if mode == "das":
            return self._view(SearchConfig)
        return self._view(SearchConfig, k_rerank=self.beam_size, alpha=0.0)

    def disc_hparams(self) -> DiscriminatorHparams:
        from dasearch.selftrain import DiscriminatorHparams
        return self._view(DiscriminatorHparams,
                          seed=component_seed(self.master_seed, "discriminator"))


def component_seed(master: int, name: str) -> int:
    return (master * 0x9E3779B1 + zlib.crc32(name.encode())) % 2 ** 32


def _hash_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, command: str, cfg: RunConfig, inputs, outputs,
                   started: float) -> None:
    manifest = {
        "command": command,
        "config": asdict(cfg),
        "master_seed": cfg.master_seed,
        "inputs": {str(p): _hash_file(p) for p in inputs if Path(p).is_file()},
        "outputs": {str(p): _hash_file(p) for p in outputs if Path(p).is_file()},
        "wall_time_s": round(time.perf_counter() - started, 3),
    }
    path = Path(out_dir) / f"manifest-{command}.json"
    with atomic_write(path) as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _required_path(cfg: RunConfig, key: str) -> str:
    """The [paths] setting `key`, which the command cannot run without."""
    path = getattr(cfg, key)
    if not path:
        raise ConfigError(f"[paths] {key} is not set")
    return path


def _load_models(cfg: RunConfig, need_disc: bool = False):
    from dasearch.discriminator import DiscriminatorModel
    from dasearch.generator import NGramCopyModel
    vocab = Vocabulary.load(_required_path(cfg, "vocab_path"))
    generator = NGramCopyModel.load(_required_path(cfg, "generator_model"), vocab)
    disc = (DiscriminatorModel.load(_required_path(cfg, "discriminator_model"), vocab)
            if need_disc else None)
    return vocab, generator, disc


def _provenance(cfg: RunConfig) -> dict[str, str]:
    """The bootstrap provenance of this config's train corpus, generator and
    settings."""
    from dasearch import selftrain
    return selftrain.bootstrap_provenance(_hash_file(cfg.train_path),
                                          _hash_file(cfg.generator_model),
                                          cfg.disc_hparams(), cfg.search_config("plain"))


def _round_record_path(model_path) -> Path:
    """Where train-discriminator writes the record of the bootstrap round
    that trained the model at `model_path`: beside it."""
    return Path(f"{model_path}.bootstrap.json")


def _resumed_bootstrap(model_path: str, provenance: dict[str, str], corpus: Corpus,
                       hparams: DiscriminatorHparams):
    """(the bootstrap state that train-discriminator left at `model_path`,
    None) when that model records `provenance` and the round record beside it
    records the round that trained it on `corpus`; else (None, why not). A
    malformed model file raises the loader's error."""
    from dasearch import selftrain
    from dasearch.discriminator import DiscriminatorError, DiscriminatorModel
    if not model_path:
        return None, "[paths] discriminator_model is not set"
    if not Path(model_path).is_file():
        return None, f"no file at {model_path}"
    model = DiscriminatorModel.load(model_path)
    if not model.provenance:
        return None, f"{model_path} records no provenance"
    for key in {**provenance, **model.provenance}:
        if model.provenance.get(key) != provenance.get(key):
            return None, f"{key} differs"
    path = _round_record_path(model_path)
    try:
        with open(path, encoding="utf-8") as f:
            record = json.load(f)
    except FileNotFoundError:
        return None, f"no file at {path}"
    except OSError as e:
        return None, f"cannot read {path}: {e}"
    except ValueError as e:  # not UTF-8, or not JSON
        return None, f"{path} does not parse: {e}"
    try:
        return selftrain.resumed_bootstrap(record, _hash_file(model_path), corpus, model,
                                           hparams), None
    except DiscriminatorError as e:  # the record is refused
        return None, f"{path}: {e}"


# the files self-train writes in each iter_<k> directory
SNAPSHOT_FILES = ("generations.jsonl", "discriminator.model", "history.csv")


def _remove_stale_iterations(out_dir: Path, last: int) -> None:
    """Remove what an earlier self-train run wrote in iter_j for every j
    beyond `last`, and each such directory that is then empty; a file that
    self-train does not write keeps its directory."""
    stale = sorted((int(m[1]), d) for d in out_dir.glob("iter_*")
                   if (m := re.fullmatch(r"iter_([1-9][0-9]*)", d.name)) and d.is_dir())
    for iter_dir in [d for j, d in stale if j > last]:
        removed = [name for name in SNAPSHOT_FILES if (iter_dir / name).is_file()]
        for name in removed:
            (iter_dir / name).unlink()
        kept = sorted(p.name for p in iter_dir.iterdir())
        if not kept:
            iter_dir.rmdir()
            print(f"removed {iter_dir}, left by an earlier run"
                  + (f" ({', '.join(removed)})" if removed else ""))
            continue
        if removed:
            print(f"removed {', '.join(removed)} from {iter_dir}, left by an earlier run")
        print(f"note: kept {iter_dir}: it holds {', '.join(kept)}, which self-train "
              f"does not write", file=sys.stderr)


def _write_generations(path, corpus: Corpus, hyps: dict) -> None:
    from dasearch import decoder

    def record(p):
        h = hyps[p.id]
        content = decoder.hypothesis_content(h)
        return {
            "id": p.id,
            "tokens": list(content),
            "text": " ".join(corpus.vocab.decode(content)),
            "s_gen": h.s_gen,
            "s_dis": h.s_dis,
            "s_das": h.s_das,
            "steps": len(h.tokens) - 1,
            "truncated": h.truncated,
        }
    write_records(path, map(record, corpus.pairs))


def load_generations(path, vocab: Vocabulary) -> dict:
    """Pair id -> tokens of a generations file, whose records (see
    corpus.read_records) each hold a list of int "tokens", ids of `vocab`
    other than SOS and EOS, and, if they hold a "text", the text of those."""
    out = {}
    for where, rec in read_records(path):
        tokens = rec.get("tokens")
        if not isinstance(tokens, list) or any(type(tok) is not int for tok in tokens):
            raise CorpusError(f"{where}: \"tokens\" is not a list of ints")
        for tok in tokens:
            if tok in (Vocabulary.sos, Vocabulary.eos):
                raise CorpusError(f"{where}: reserved id {tok} inside pair {rec['id']!r}")
            if not 0 <= tok < len(vocab):
                raise CorpusError(f"{where}: token id {tok} in pair {rec['id']!r} "
                                  f"is not in the {len(vocab)}-token vocabulary")
        if "text" in rec and rec["text"] != " ".join(vocab.decode(tokens)):
            raise CorpusError(f"{where}: the \"text\" of pair {rec['id']!r} is not its tokens'")
        out[rec["id"]] = tuple(tokens)
    return out


def _write_rows(path, rows, header=None) -> None:
    """CSV with "\n" line ends: `header`, then one line per row. Without a
    header the rows are dicts and the first row's keys are the header."""
    if header is None:
        header = list(rows[0])
        rows = ([row[c] for c in header] for row in rows)
    with atomic_write(path, newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# --- commands ----------------------------------------------------------------
# Each command writes under out_dir and returns (manifest name, inputs, outputs);
# main times the command and writes its manifest. Nothing creates out_dir but
# the first write into it, so a command that fails its checks leaves none.


def cmd_make_corpus(cfg: RunConfig, args, out_dir: Path):
    outputs = []
    for split, n in (("train", cfg.synth_n_pairs),
                     ("validation", max(1, cfg.synth_n_pairs // 10)),
                     ("test", max(1, cfg.synth_n_pairs // 10))):
        seed = component_seed(cfg.synth_seed, f"corpus-{split}")
        corpus = generate_synthetic_corpus(seed, n, split=split)
        path = out_dir / f"{split}.jsonl"
        save_corpus(corpus, path)
        outputs.append(path)
    print(f"wrote {len(outputs)} corpus files to {out_dir}")
    return "make-corpus", [], outputs


def cmd_train_generator(cfg: RunConfig, args, out_dir: Path):
    from dasearch import generator
    if cfg.lambda_copy >= 1.0:  # the copy distribution gives EOS no probability
        raise ConfigError(f"[generator] lambda_copy must be below 1 for decoding to end, "
                          f"got {cfg.lambda_copy}")
    train_path = _required_path(cfg, "train_path")
    vocab_path = Path(_required_path(cfg, "vocab_path"))
    model_path = Path(_required_path(cfg, "generator_model"))
    corpus = load_corpus(train_path)  # read once, with the file's full vocabulary
    vocab = build_vocabulary(corpus, min_count=cfg.min_count)
    if vocab != corpus.vocab:  # min_count left tokens out
        corpus = corpus.reencoded(vocab)
    model = generator.train_generator(corpus, order=cfg.order, kappa=cfg.kappa,
                                      lambda_copy=cfg.lambda_copy)
    vocab.save(vocab_path)
    model.save(model_path)
    print(f"generator model: {model_path} (|V|={len(vocab)})")
    return "train-generator", [cfg.train_path], [vocab_path, model_path]


def cmd_train_discriminator(cfg: RunConfig, args, out_dir: Path):
    from dasearch import selftrain
    model_path = Path(_required_path(cfg, "discriminator_model"))
    vocab, generator, _ = _load_models(cfg)
    corpus = load_corpus(_required_path(cfg, "train_path"), vocab)
    state = selftrain.bootstrap(corpus, generator, cfg.disc_hparams(),
                                cfg.search_config("plain"))
    state.discriminator.provenance = _provenance(cfg)
    state.discriminator.save(model_path)
    # the round itself, so that self-train need not run it again (_resumed_bootstrap)
    record_path = _round_record_path(model_path)
    with atomic_write(record_path) as f:
        json.dump(selftrain.round_record(state, _hash_file(model_path)), f, allow_nan=False)
        f.write("\n")
    # accuracy curve on the held-out pairs, from the bootstrap's counts by length
    buckets = {1, 5, 10, 20, 30, 40, 60, 80, 100, 120, cfg.t_max}
    rows = [(t, right / n if n else None, n) for t, right, n in state.held_out if t in buckets]
    csv_path = out_dir / "accuracy_by_length.csv"
    _write_rows(csv_path, rows, ("t", "accuracy", "n_examples"))
    entry, n_train = state.history[0], len(corpus.pairs) - len(state.val_ids)
    print(f"discriminator model: {model_path} (val accuracy {entry['val_accuracy']:.3f}, "
          f"{entry['distinct_G']} distinct of {n_train} generated outputs)")
    return ("train-discriminator", [cfg.train_path, cfg.vocab_path, cfg.generator_model],
            [model_path, record_path, csv_path])


def cmd_decode(cfg: RunConfig, args, out_dir: Path):
    from dasearch import decoder
    search = cfg.search_config(args.mode)
    vocab, generator, disc = _load_models(cfg, need_disc=search.alpha > 0)
    corpus = load_corpus(_required_path(cfg, f"{args.split}_path"), vocab)
    search_one = functools.partial(decoder.das_beam_search, generator, disc, config=search)
    hyps = decoder.decode_corpus(corpus, search_one, jobs=cfg.jobs)
    out_path = out_dir / f"generations-{args.mode}-{args.split}.jsonl"
    _write_generations(out_path, corpus, hyps)
    print(f"generations: {out_path}")
    inputs = [cfg.vocab_path, cfg.generator_model, getattr(cfg, f"{args.split}_path")]
    return (f"decode-{args.mode}-{args.split}",
            inputs + ([cfg.discriminator_model] if disc is not None else []), [out_path])


def cmd_self_train(cfg: RunConfig, args, out_dir: Path):
    from dasearch import selftrain
    if cfg.max_iters < 1:
        raise ConfigError(f"max_iters must be >= 1, got {cfg.max_iters}")
    vocab, generator, _ = _load_models(cfg)
    corpus = load_corpus(_required_path(cfg, "train_path"), vocab)
    search = cfg.search_config("das")
    hparams = cfg.disc_hparams()

    def snapshot(state):
        iter_dir = out_dir / f"iter_{state.iteration}"
        gens = state.last_generations
        generations, model, history = (iter_dir / name for name in SNAPSHOT_FILES)
        write_records(generations, (
            {"id": p.id, "tokens": list(gens[p.id]), "text": " ".join(vocab.decode(gens[p.id]))}
            for p in corpus.pairs))
        state.discriminator.save(model)
        _write_rows(history, state.history)

    provenance = _provenance(cfg)
    inputs = [cfg.train_path, cfg.vocab_path, cfg.generator_model]
    state, why_not = _resumed_bootstrap(cfg.discriminator_model, provenance, corpus, hparams)
    if state is None:
        print(f"bootstrap: trained ({why_not})")
        state = selftrain.bootstrap(corpus, generator, hparams, search)
        # as train-discriminator's does, so iter_0 is one file either way
        state.discriminator.provenance = provenance
    else:
        record = _round_record_path(cfg.discriminator_model)
        print(f"bootstrap: reused {cfg.discriminator_model}\n"
              f"bootstrap: round 0 read from {record}")
        inputs += [cfg.discriminator_model, record]
    snapshot(state)
    state = selftrain.run_until_convergence(
        state, generator, corpus, search, hparams, max_iters=cfg.max_iters,
        tau_acc=cfg.tau_acc, tau_delta=cfg.tau_delta if cfg.tau_delta >= 0 else None,
        on_iteration=snapshot)
    print(f"self-training stopped after iteration {state.iteration} "
          f"({state.stopped_reason})")
    _remove_stale_iterations(out_dir, state.iteration)
    return ("self-train", inputs, [out_dir / f"iter_{state.iteration}" / "generations.jsonl"])


def cmd_evaluate(cfg: RunConfig, args, out_dir: Path):
    from dasearch import metrics
    for key in ("zipf_k", "hist_buckets"):
        if getattr(cfg, key) < 1:
            raise ConfigError(f"[metrics] {key} must be >= 1, got {getattr(cfg, key)}")
    # a system is named by its file stem, and names key the rows of every report
    seen = {"human": "the references"}
    for path in args.systems:
        name = Path(path).stem
        if name in seen:
            raise ConfigError(f"system {path} would be named {name!r}, like {seen[name]}")
        seen[name] = path
    vocab = Vocabulary.load(_required_path(cfg, "vocab_path"))
    corpus = load_corpus(_required_path(cfg, f"{args.split}_path"), vocab)
    reports = []
    systems = {"human": [p.reference for p in corpus.pairs]}
    for path in args.systems:
        name = Path(path).stem
        gens = load_generations(path, vocab)
        reports.append(metrics.evaluate_system(gens, corpus, system=name,
                                               bleu_micro=cfg.bleu_micro, pooled=cfg.pooled))
        systems[name] = [gens[p.id] for p in corpus.pairs]
    csv_path, json_path = out_dir / "report.csv", out_dir / "report.json"
    zipf_path, rep3_path = out_dir / "zipf.csv", out_dir / "rep3_positions.csv"
    rows = [r.as_dict() for r in reports]
    _write_rows(csv_path, rows)
    with atomic_write(json_path) as f:
        json.dump(rows, f, indent=2)
        f.write("\n")
    zipf_rows, rep3_rows = [], []
    for name, texts in systems.items():
        zipf_rows += [(name, rank, vocab.token_of(tok), freq)
                      for rank, tok, freq in metrics.zipf_report(texts, cfg.zipf_k)]
        edges, dens = metrics.repetition_position_hist(texts, n=3, buckets=cfg.hist_buckets)
        rep3_rows += [(name, lo, hi, d) for lo, hi, d in zip(edges, edges[1:], dens)]
    _write_rows(zipf_path, zipf_rows, ("system", "rank", "token", "frequency"))
    _write_rows(rep3_path, rep3_rows, ("system", "bucket_low", "bucket_high", "density"))
    print(f"report: {csv_path}")
    return ("evaluate", [cfg.vocab_path, getattr(cfg, f"{args.split}_path"), *args.systems],
            [csv_path, json_path, zipf_path, rep3_path])


def cmd_sweep(cfg: RunConfig, args, out_dir: Path):
    from dasearch import decoder, metrics
    # every cell's search settings, checked before anything is loaded or decoded
    for flag, values in (("--k-rerank", args.k_rerank), ("--alphas", args.alphas)):
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ConfigError(f"{flag} repeats {value}")
    plain = cfg.search_config("plain")
    cells = [(k, alpha, replace(plain, beam_size=min(cfg.beam_size, k), k_rerank=k, alpha=alpha))
             for k in args.k_rerank for alpha in args.alphas]
    vocab, generator, disc = _load_models(cfg, need_disc=any(a > 0 for a in args.alphas))
    corpus = load_corpus(_required_path(cfg, f"{args.split}_path"), vocab)
    rng = random.Random(component_seed(cfg.master_seed, "sweep"))
    subsets = []
    for _ in range(args.repetitions):
        ids = sorted(p.id for p in corpus.pairs)
        rng.shuffle(ids)
        subsets.append(corpus.subset(set(ids[: args.subset_size])))
    if args.repetitions > 1 and args.subset_size >= len(corpus):
        print(f"note: --subset-size {args.subset_size} is at least the {len(corpus)} pairs "
              f"of the {args.split} split, so every repetition evaluates the same pairs",
              file=sys.stderr)
    # each cell decodes every pair some repetition drew once
    drawn = corpus.subset({p.id for sub in subsets for p in sub.pairs})
    cell_gens = []
    for k, alpha, search in cells:
        d = disc if alpha > 0 else None
        search_one = functools.partial(decoder.das_beam_search, generator, d, config=search)
        hyps = decoder.decode_corpus(drawn, search_one, jobs=cfg.jobs)
        cell_gens.append({i: decoder.hypothesis_content(h) for i, h in hyps.items()})
    rows = []
    for rep, sub in enumerate(subsets):
        for (k, alpha, _), gens in zip(cells, cell_gens):
            row = metrics.evaluate_system(gens, sub, system=f"K{k}-a{alpha}").as_dict()
            row.update({"k_rerank": k, "alpha": alpha, "repetition": rep})
            rows.append(row)
    sweep_path = out_dir / "sweep.csv"
    _write_rows(sweep_path, rows)
    print(f"sweep results: {sweep_path} ({len(rows)} rows)")
    inputs = [cfg.vocab_path, cfg.generator_model, getattr(cfg, f"{args.split}_path")]
    return "sweep", inputs + ([cfg.discriminator_model] if disc is not None else []), [sweep_path]


# --- argument parsing ---------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


# flag -> RunConfig field; each flag parses its value as the field's type
_OVERRIDES = {
    "--alpha": "alpha",
    "--k-rerank-value": "k_rerank",
    "--beam-size": "beam_size",
    "--t-max": "t_max",
    "--output-dir": "output_dir",
    "--master-seed": "master_seed",
    "--jobs": "jobs",
    "--lambda-copy": "lambda_copy",
    "--epochs": "epochs",
    "--max-iters": "max_iters",
    "--seed": "synth_seed",
    "--n-pairs": "synth_n_pairs",
}
_ENV_OVERRIDES = {"DASEARCH_OUTPUT_DIR": "output_dir", "DASEARCH_JOBS": "jobs"}
_FIELD_PARSERS = {f.name: _PARSERS[f.type] for f in fields(RunConfig)}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _comma_list(parse):
    """An argparse type: a comma-separated list of values read by `parse`."""
    def parse_list(text: str) -> list:
        try:
            return [parse(v) for v in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"must be a comma-separated list of {parse.__name__} values, got {text!r}"
            ) from None
    return parse_list


def build_parser() -> _Parser:
    parser = _Parser(prog="dasearch",
                     description="discriminator-guided beam search toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **extra):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        for flag, dest in _OVERRIDES.items():
            p.add_argument(flag, dest=f"ov_{dest}", type=_FIELD_PARSERS[dest], default=None)
        for flag, kwargs in extra.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
        return p

    add("make-corpus", cmd_make_corpus)
    add("train-generator", cmd_train_generator)
    add("train-discriminator", cmd_train_discriminator)
    add("decode", cmd_decode, **{
        "--mode": {"choices": ["plain", "das"], "default": "das"},
        "--split": {"choices": ["train", "validation", "test"], "default": "test"},
    })
    add("self-train", cmd_self_train)
    add("evaluate", cmd_evaluate, **{
        "--systems": {"nargs": "+", "required": True},
        "--split": {"choices": ["train", "validation", "test"], "default": "test"},
    })
    add("sweep", cmd_sweep, **{
        "--k-rerank": {"type": _comma_list(int), "default": "1,5,10"},
        "--alphas": {"type": _comma_list(finite_float), "default": "0,0.5,1,5"},
        "--subset-size": {"type": _positive_int, "default": 100},
        "--repetitions": {"type": _positive_int, "default": 3},
        "--split": {"choices": ["train", "validation", "test"], "default": "validation"},
    })
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        cfg = RunConfig.from_file(args.config)
        for name, dest in _ENV_OVERRIDES.items():
            if text := os.environ.get(name):
                try:
                    setattr(cfg, dest, _FIELD_PARSERS[dest](text))
                except ValueError as e:
                    raise ConfigError(f"{name}: {e}") from None
        for dest in _OVERRIDES.values():
            value = getattr(args, f"ov_{dest}")
            if value is not None:
                setattr(cfg, dest, value)
        started = time.perf_counter()
        out_dir = Path(cfg.output_dir)
        command, inputs, outputs = args.func(cfg, args, out_dir)
        write_manifest(out_dir, command, cfg, inputs, outputs, started)
        return 0
    except (InputError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # a fault of the program, a bare ValueError too
        print(f"runtime error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    """The process entry of `dasearch` and `python -m dasearch.cli`: runs
    main, flushes stdout and stderr, and exits with main's code without
    tearing the interpreter down (os._exit), as freeing every object costs
    time and the OS reclaims them anyway. Every command has closed its files
    by the time main returns. In-process callers use main, which returns."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
