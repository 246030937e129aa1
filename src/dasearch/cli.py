"""Command-line front end: training, decoding, self-training, evaluation and
the K_rerank x alpha ablation sweep.

Configuration is an INI file whose sections and keys are RunConfig's fields
(each field declares its section); command-line flags override file values. Every
command writes a manifest (config snapshot, input/output hashes, seed, wall
time) next to its outputs. One master seed fans out to per-component seeds
via crc32(component name) so components are independently reproducible.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import hashlib
import io
import json
import os
import random
import sys
import time
import zlib
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from dasearch import corpus as corpus_mod
from dasearch import metrics as metrics_mod
from dasearch.corpus import (
    Corpus,
    SynthProfile,
    Vocabulary,
    build_vocabulary,
    generate_synthetic_corpus,
    load_corpus,
    save_corpus,
)
from dasearch.decoder import SearchConfig, das_beam_search
from dasearch.discriminator import (
    DiscriminatorModel,
    accuracy_by_length,
    build_prefix_sets,
    write_accuracy_csv,
)
from dasearch.generator import NGramCopyModel, train_generator
from dasearch.metrics import evaluate_system, write_reports
from dasearch.selftrain import (
    DiscriminatorHparams,
    _subcorpus,
    bootstrap,
    hypothesis_content,
    run_until_convergence,
)


class ConfigError(ValueError):
    pass


def _parse_bool(text: str) -> bool:
    value = configparser.ConfigParser.BOOLEAN_STATES.get(text.lower())
    if value is None:
        raise ValueError(f"not a boolean: {text!r}")
    return value


# text -> value, by the type name a RunConfig field declares
_PARSERS = {"str": str, "int": int, "float": float, "bool": _parse_bool}


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
            if not parser.read(path):
                raise ConfigError(f"cannot read config file: {path}")
        except configparser.Error as e:
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
        fused search with a rerank pool of beam_size and alpha = 0."""
        if mode == "das":
            return self._view(SearchConfig)
        return self._view(SearchConfig, k_rerank=self.beam_size, alpha=0.0)

    def disc_hparams(self) -> DiscriminatorHparams:
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
        "wall_time_s": round(time.time() - started, 3),
    }
    path = Path(out_dir) / f"manifest-{command}.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _load_models(cfg: RunConfig, need_disc: bool = False):
    vocab = Vocabulary.load(cfg.vocab_path)
    generator = NGramCopyModel.load(cfg.generator_model, vocab)
    disc = DiscriminatorModel.load(cfg.discriminator_model) if need_disc else None
    return vocab, generator, disc


def _decode_corpus(corpus: Corpus, search_one, jobs: int = 1) -> dict:
    """The best hypothesis per pair id; `search_one(source)` returns a beam."""
    sources = [p.source for p in corpus.pairs]
    if jobs <= 1:
        beams = map(search_one, sources)
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            beams = list(pool.map(search_one, sources, chunksize=8))
    return {p.id: beam[0] for p, beam in zip(corpus.pairs, beams)}


def _write_generations(path, corpus: Corpus, hyps: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for p in corpus.pairs:
            h = hyps[p.id]
            content = hypothesis_content(h)
            rec = {
                "id": p.id,
                "tokens": list(content),
                "text": " ".join(corpus.vocab.decode(content)),
                "s_gen": h.s_gen,
                "s_dis": h.s_dis,
                "s_das": h.s_das,
                "steps": len(h.tokens) - 1,
                "truncated": h.truncated,
            }
            f.write(json.dumps(rec) + "\n")


def load_generations(path) -> dict:
    out = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                out[rec["id"]] = tuple(rec["tokens"])
    return out


# --- commands ----------------------------------------------------------------
# Each command writes under out_dir and returns (manifest name, inputs, outputs);
# main creates out_dir, times the command and writes its manifest.


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
    raw = load_corpus(cfg.train_path)
    vocab = build_vocabulary(raw, min_count=cfg.min_count)
    corpus = load_corpus(cfg.train_path, vocab)
    model = train_generator(corpus, order=cfg.order, kappa=cfg.kappa,
                            lambda_copy=cfg.lambda_copy)
    vocab_path = Path(cfg.vocab_path or out_dir / "vocab.txt")
    model_path = Path(cfg.generator_model or out_dir / "generator.model")
    vocab.save(vocab_path)
    model.save(model_path)
    print(f"generator model: {model_path} (|V|={len(vocab)})")
    return "train-generator", [cfg.train_path], [vocab_path, model_path]


def cmd_train_discriminator(cfg: RunConfig, args, out_dir: Path):
    vocab, generator, _ = _load_models(cfg)
    corpus = load_corpus(cfg.train_path, vocab)
    state = bootstrap(corpus, generator, cfg.disc_hparams(), cfg.search_config("plain"))
    model_path = Path(cfg.discriminator_model or out_dir / "discriminator.model")
    state.discriminator.save(model_path)
    # accuracy curve on the held-out pairs
    H_val, G_val = build_prefix_sets(_subcorpus(corpus, state.val_ids),
                                     state.last_generations, t_max=cfg.t_max)
    buckets = sorted({1, 5, 10, 20, 30, 40, 60, 80, 100, 120, cfg.t_max})
    buckets = [b for b in buckets if b <= cfg.t_max]
    rows = accuracy_by_length(state.discriminator, H_val, G_val, buckets)
    csv_path = out_dir / "accuracy_by_length.csv"
    write_accuracy_csv(rows, csv_path)
    print(f"discriminator model: {model_path} "
          f"(val accuracy {state.history[0]['val_accuracy']:.3f})")
    return ("train-discriminator", [cfg.train_path, cfg.vocab_path, cfg.generator_model],
            [model_path, csv_path])


def _split_path(cfg: RunConfig, split: str) -> str:
    path = {"train": cfg.train_path, "validation": cfg.validation_path,
            "test": cfg.test_path}[split]
    if not path:
        raise ConfigError(f"no path configured for split {split!r}")
    return path


def cmd_decode(cfg: RunConfig, args, out_dir: Path):
    search = cfg.search_config(args.mode)
    vocab, generator, disc = _load_models(cfg, need_disc=search.alpha > 0)
    corpus = load_corpus(_split_path(cfg, args.split), vocab)
    search_one = functools.partial(das_beam_search, generator, disc, config=search)
    hyps = _decode_corpus(corpus, search_one, jobs=cfg.jobs)
    out_path = out_dir / f"generations-{args.mode}-{args.split}.jsonl"
    _write_generations(out_path, corpus, hyps)
    print(f"generations: {out_path}")
    return (f"decode-{args.mode}-{args.split}", [cfg.vocab_path, cfg.generator_model],
            [out_path])


def cmd_self_train(cfg: RunConfig, args, out_dir: Path):
    vocab, generator, _ = _load_models(cfg)
    corpus = load_corpus(cfg.train_path, vocab)
    search = cfg.search_config("das")
    hparams = cfg.disc_hparams()

    def snapshot(state):
        iter_dir = out_dir / f"iter_{state.iteration}"
        iter_dir.mkdir(parents=True, exist_ok=True)
        gen_path = iter_dir / "generations.jsonl"
        with open(gen_path, "w", encoding="utf-8") as f:
            for p in corpus.pairs:
                toks = state.last_generations[p.id]
                f.write(json.dumps({
                    "id": p.id, "tokens": list(toks),
                    "text": " ".join(vocab.decode(toks)),
                }) + "\n")
        state.discriminator.save(iter_dir / "discriminator.model")
        with open(iter_dir / "history.csv", "w", encoding="utf-8") as f:
            cols = list(state.history[0].keys())
            f.write(",".join(cols) + "\n")
            for entry in state.history:
                f.write(",".join(str(entry[c]) for c in cols) + "\n")

    state = bootstrap(corpus, generator, hparams, search)
    snapshot(state)
    state = run_until_convergence(
        state, generator, corpus, search, hparams, max_iters=cfg.max_iters,
        tau_acc=cfg.tau_acc, tau_delta=cfg.tau_delta if cfg.tau_delta >= 0 else None,
        on_iteration=snapshot)
    print(f"self-training stopped after iteration {state.iteration} "
          f"({state.stopped_reason})")
    return ("self-train", [cfg.train_path, cfg.vocab_path, cfg.generator_model],
            [out_dir / f"iter_{state.iteration}" / "generations.jsonl"])


def cmd_evaluate(cfg: RunConfig, args, out_dir: Path):
    vocab = Vocabulary.load(cfg.vocab_path)
    corpus = load_corpus(_split_path(cfg, args.split), vocab)
    reports = []
    systems = {"human": [p.reference for p in corpus.pairs]}
    for path in args.systems:
        name = Path(path).stem
        gens = load_generations(path)
        reports.append(evaluate_system(gens, corpus, system=name,
                                       bleu_micro=cfg.bleu_micro, pooled=cfg.pooled))
        systems[name] = [gens[p.id] for p in corpus.pairs]
    csv_path, json_path = out_dir / "report.csv", out_dir / "report.json"
    zipf_path, rep3_path = out_dir / "zipf.csv", out_dir / "rep3_positions.csv"
    write_reports(reports, csv_path, json_path)
    with open(zipf_path, "w", encoding="utf-8") as f:
        f.write("system,rank,token,frequency\n")
        for name, texts in systems.items():
            for rank, tok, freq in metrics_mod.zipf_report(texts, cfg.zipf_k):
                f.write(f"{name},{rank},{vocab.token_of(tok)},{freq}\n")
    with open(rep3_path, "w", encoding="utf-8") as f:
        f.write("system,bucket_low,bucket_high,density\n")
        for name, texts in systems.items():
            edges, dens = metrics_mod.repetition_position_hist(
                texts, n=3, buckets=cfg.hist_buckets)
            for lo, hi, d in zip(edges, edges[1:], dens):
                f.write(f"{name},{lo},{hi},{d}\n")
    print(f"report: {csv_path}")
    return "evaluate", list(args.systems), [csv_path, json_path, zipf_path, rep3_path]


def cmd_sweep(cfg: RunConfig, args, out_dir: Path):
    vocab, generator, disc = _load_models(cfg, need_disc=True)
    corpus = load_corpus(_split_path(cfg, args.split), vocab)
    k_values = [int(v) for v in args.k_rerank.split(",")]
    alphas = [float(v) for v in args.alphas.split(",")]
    rows = []
    rng = random.Random(component_seed(cfg.master_seed, "sweep"))
    for rep in range(args.repetitions):
        ids = sorted(p.id for p in corpus.pairs)
        rng.shuffle(ids)
        subset_ids = set(ids[: args.subset_size])
        sub_pairs = tuple(p for p in corpus.pairs if p.id in subset_ids)
        sub = Corpus(sub_pairs, vocab, corpus.split)
        for k in k_values:
            for alpha in alphas:
                search = replace(cfg.search_config("plain"),
                                 beam_size=min(cfg.beam_size, k), k_rerank=k, alpha=alpha)
                gens = {p.id: hypothesis_content(
                    das_beam_search(generator, disc if alpha > 0 else None,
                                    p.source, search)[0]) for p in sub.pairs}
                report = evaluate_system(gens, sub, system=f"K{k}-a{alpha}")
                row = report.as_dict()
                row.update({"k_rerank": k, "alpha": alpha, "repetition": rep})
                rows.append(row)
    sweep_path = out_dir / "sweep.csv"
    with open(sweep_path, "w", encoding="utf-8") as f:
        cols = list(rows[0].keys())
        f.write(",".join(cols) + "\n")
        for row in rows:
            f.write(",".join(str(row[c]) for c in cols) + "\n")
    print(f"sweep results: {sweep_path} ({len(rows)} rows)")
    return "sweep", [], [sweep_path]


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
        "--k-rerank": {"default": "1,5,10"},
        "--alphas": {"default": "0,0.5,1,5"},
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
        for dest in _OVERRIDES.values():
            value = getattr(args, f"ov_{dest}")
            if value is not None:
                setattr(cfg, dest, value)
        for name, dest in _ENV_OVERRIDES.items():
            if text := os.environ.get(name):
                setattr(cfg, dest, _FIELD_PARSERS[dest](text))
        started = time.time()
        out_dir = Path(cfg.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        command, inputs, outputs = args.func(cfg, args, out_dir)
        write_manifest(out_dir, command, cfg, inputs, outputs, started)
        return 0
    except (ConfigError, ValueError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime failure
        print(f"runtime error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
