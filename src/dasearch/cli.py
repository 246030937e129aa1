"""Command-line front end: training, decoding, self-training, evaluation and
the K_rerank x alpha ablation sweep.

Configuration is an INI file; command-line flags override file values. Every
command writes a manifest (config snapshot, input/output hashes, seed, wall
time) next to its outputs. One master seed fans out to per-component seeds
via crc32(component name) so components are independently reproducible.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import random
import sys
import time
import zlib
from dataclasses import asdict, dataclass, fields, replace
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
from dasearch.decoder import SearchConfig, das_beam_search, plain_beam_search
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
    bootstrap,
    hypothesis_content,
    run_until_convergence,
)


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    # paths
    train_path: str = ""
    validation_path: str = ""
    test_path: str = ""
    output_dir: str = "runs"
    vocab_path: str = ""
    generator_model: str = ""
    discriminator_model: str = ""
    # synthetic corpus
    synth_seed: int = 0
    synth_n_pairs: int = 500
    # generator
    order: int = 3
    kappa: float = 1.0
    lambda_copy: float = 0.75
    min_count: int = 1
    # discriminator
    d_hash: int = 2 ** 16
    epochs: int = 10
    learning_rate: float = 2.0
    use_source: bool = True
    ratio: float = 1.0  # class weight of generated vs. human prefixes
    # search
    beam_size: int = 5
    k_rerank: int = 10
    alpha: float = 1.0
    t_max: int = 140
    length_penalty_beta: float = 0.0
    block_repeated_trigrams: bool = False
    final_by_s_gen: bool = False
    # selftrain
    max_iters: int = 3
    tau_acc: float = 0.55
    tau_delta: float = -1.0  # <0: use 0.01 * t_max
    warm_start: bool = False
    replay: bool = False
    # metrics
    zipf_k: int = 100
    hist_buckets: int = 10
    bleu_micro: bool = False
    pooled: bool = False
    # run
    master_seed: int = 0
    jobs: int = 1

    _SECTIONS = {
        "paths": ["train_path", "validation_path", "test_path", "output_dir",
                  "vocab_path", "generator_model", "discriminator_model"],
        "synthetic": ["synth_seed", "synth_n_pairs"],
        "generator": ["order", "kappa", "lambda_copy", "min_count"],
        "discriminator": ["d_hash", "epochs", "learning_rate", "use_source", "ratio"],
        "search": ["beam_size", "k_rerank", "alpha", "t_max",
                   "length_penalty_beta", "block_repeated_trigrams",
                   "final_by_s_gen"],
        "selftrain": ["max_iters", "tau_acc", "tau_delta", "warm_start", "replay"],
        "metrics": ["zipf_k", "hist_buckets", "bleu_micro", "pooled"],
        "run": ["master_seed", "jobs"],
    }

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        parser = configparser.ConfigParser()
        if not parser.read(path):
            raise ConfigError(f"cannot read config file: {path}")
        cfg = cls()
        types = {f.name: f.type for f in fields(cls)}
        for section, keys in cls._SECTIONS.items():
            if not parser.has_section(section):
                continue
            for key in parser[section]:
                if key not in keys:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                raw = parser[section][key]
                kind = types[key]
                if kind == "bool":
                    value = raw.strip().lower() in ("1", "true", "yes", "on")
                elif kind == "int":
                    value = int(raw)
                elif kind == "float":
                    value = float(raw)
                else:
                    value = raw
                setattr(cfg, key, value)
        return cfg

    def to_ini(self) -> str:
        parser = configparser.ConfigParser()
        for section, keys in self._SECTIONS.items():
            parser[section] = {k: str(getattr(self, k)) for k in keys}
        import io

        buf = io.StringIO()
        parser.write(buf)
        return buf.getvalue()

    def search_config(self, mode: str = "das") -> SearchConfig:
        return SearchConfig(
            beam_size=self.beam_size,
            k_rerank=self.k_rerank if mode == "das" else max(self.k_rerank, self.beam_size),
            alpha=self.alpha,
            t_max=self.t_max,
            length_penalty_beta=self.length_penalty_beta,
            block_repeated_trigrams=self.block_repeated_trigrams,
            final_by_s_gen=self.final_by_s_gen,
        )

    def disc_hparams(self) -> DiscriminatorHparams:
        return DiscriminatorHparams(
            d_hash=self.d_hash,
            epochs=self.epochs,
            learning_rate=self.learning_rate,
            use_source=self.use_source,
            seed=component_seed(self.master_seed, "discriminator"),
            warm_start=self.warm_start,
            replay=self.replay,
            ratio=self.ratio,
        )


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


def _decode_pair(generator, disc, search, mode, pair):
    if mode == "das":
        return das_beam_search(generator, disc, pair.source, search)[0]
    return plain_beam_search(generator, pair.source, search)[0]


def _decode_corpus(corpus: Corpus, decode_one, jobs: int = 1) -> dict:
    if jobs <= 1:
        return {p.id: decode_one(p) for p in corpus.pairs}
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(decode_one, corpus.pairs, chunksize=8))
    return {p.id: r for p, r in zip(corpus.pairs, results)}


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


def cmd_make_corpus(cfg: RunConfig, args) -> int:
    started = time.time()
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for split, n in (("train", cfg.synth_n_pairs),
                     ("validation", max(1, cfg.synth_n_pairs // 10)),
                     ("test", max(1, cfg.synth_n_pairs // 10))):
        seed = component_seed(cfg.synth_seed, f"corpus-{split}")
        corpus = generate_synthetic_corpus(seed, n, split=split)
        path = out_dir / f"{split}.jsonl"
        save_corpus(corpus, path)
        outputs.append(path)
    write_manifest(out_dir, "make-corpus", cfg, [], outputs, started)
    print(f"wrote {len(outputs)} corpus files to {out_dir}")
    return 0


def cmd_train_generator(cfg: RunConfig, args) -> int:
    started = time.time()
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    raw = load_corpus(cfg.train_path)
    vocab = build_vocabulary(raw, min_count=cfg.min_count)
    corpus = load_corpus(cfg.train_path, vocab)
    model = train_generator(corpus, order=cfg.order, kappa=cfg.kappa,
                            lambda_copy=cfg.lambda_copy)
    vocab_path = Path(cfg.vocab_path or out_dir / "vocab.txt")
    model_path = Path(cfg.generator_model or out_dir / "generator.model")
    vocab.save(vocab_path)
    model.save(model_path)
    write_manifest(out_dir, "train-generator", cfg, [cfg.train_path],
                   [vocab_path, model_path], started)
    print(f"generator model: {model_path} (|V|={len(vocab)})")
    return 0


def cmd_train_discriminator(cfg: RunConfig, args) -> int:
    started = time.time()
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    vocab, generator, _ = _load_models(cfg)
    corpus = load_corpus(cfg.train_path, vocab)
    search = cfg.search_config("plain")
    state = bootstrap(corpus, generator, cfg.disc_hparams(), search)
    model_path = Path(cfg.discriminator_model or out_dir / "discriminator.model")
    state.discriminator.save(model_path)
    # accuracy curve on the held-out pairs
    from dasearch.selftrain import _subcorpus

    H_val, G_val = build_prefix_sets(_subcorpus(corpus, state.val_ids),
                                     state.last_generations, t_max=cfg.t_max)
    buckets = sorted({1, 5, 10, 20, 30, 40, 60, 80, 100, 120, cfg.t_max})
    buckets = [b for b in buckets if b <= cfg.t_max]
    rows = accuracy_by_length(state.discriminator, H_val, G_val, buckets)
    csv_path = out_dir / "accuracy_by_length.csv"
    write_accuracy_csv(rows, csv_path)
    write_manifest(out_dir, "train-discriminator", cfg,
                   [cfg.train_path, cfg.vocab_path, cfg.generator_model],
                   [model_path, csv_path], started)
    print(f"discriminator model: {model_path} "
          f"(val accuracy {state.history[0]['val_accuracy']:.3f})")
    return 0


def _split_path(cfg: RunConfig, split: str) -> str:
    path = {"train": cfg.train_path, "validation": cfg.validation_path,
            "test": cfg.test_path}[split]
    if not path:
        raise ConfigError(f"no path configured for split {split!r}")
    return path


def cmd_decode(cfg: RunConfig, args) -> int:
    started = time.time()
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    need_disc = args.mode == "das" and cfg.alpha > 0
    vocab, generator, disc = _load_models(cfg, need_disc=need_disc)
    corpus = load_corpus(_split_path(cfg, args.split), vocab)
    search = cfg.search_config(args.mode)

    import functools

    decode_one = functools.partial(_decode_pair, generator, disc, search, args.mode)
    hyps = _decode_corpus(corpus, decode_one, jobs=cfg.jobs)
    out_path = out_dir / f"generations-{args.mode}-{args.split}.jsonl"
    _write_generations(out_path, corpus, hyps)
    write_manifest(out_dir, f"decode-{args.mode}-{args.split}", cfg,
                   [cfg.vocab_path, cfg.generator_model], [out_path], started)
    print(f"generations: {out_path}")
    return 0


def cmd_self_train(cfg: RunConfig, args) -> int:
    started = time.time()
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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
    write_manifest(out_dir, "self-train", cfg,
                   [cfg.train_path, cfg.vocab_path, cfg.generator_model],
                   [out_dir / f"iter_{state.iteration}" / "generations.jsonl"], started)
    print(f"self-training stopped after iteration {state.iteration} "
          f"({state.stopped_reason})")
    return 0


def cmd_evaluate(cfg: RunConfig, args) -> int:
    started = time.time()
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    vocab = Vocabulary.load(cfg.vocab_path)
    corpus = load_corpus(_split_path(cfg, args.split), vocab)
    reports = []
    zipf_rows = [("human", p.reference) for p in corpus.pairs]
    systems = {"human": [p.reference for p in corpus.pairs]}
    for path in args.systems:
        name = Path(path).stem
        gens = load_generations(path)
        reports.append(evaluate_system(gens, corpus, system=name,
                                       bleu_micro=cfg.bleu_micro, pooled=cfg.pooled))
        systems[name] = [gens[p.id] for p in corpus.pairs]
    csv_path, json_path = out_dir / "report.csv", out_dir / "report.json"
    write_reports(reports, csv_path, json_path)
    outputs = [csv_path, json_path]
    with open(out_dir / "zipf.csv", "w", encoding="utf-8") as f:
        f.write("system,rank,token,frequency\n")
        for name, texts in systems.items():
            for rank, tok, freq in metrics_mod.zipf_report(texts, cfg.zipf_k):
                f.write(f"{name},{rank},{vocab.token_of(tok)},{freq}\n")
    with open(out_dir / "rep3_positions.csv", "w", encoding="utf-8") as f:
        f.write("system,bucket_low,bucket_high,density\n")
        for name, texts in systems.items():
            edges, dens = metrics_mod.repetition_position_hist(
                texts, n=3, buckets=cfg.hist_buckets)
            for lo, hi, d in zip(edges, edges[1:], dens):
                f.write(f"{name},{lo},{hi},{d}\n")
    outputs += [out_dir / "zipf.csv", out_dir / "rep3_positions.csv"]
    write_manifest(out_dir, "evaluate", cfg, list(args.systems), outputs, started)
    print(f"report: {csv_path}")
    return 0


def cmd_sweep(cfg: RunConfig, args) -> int:
    started = time.time()
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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
    write_manifest(out_dir, "sweep", cfg, [], [sweep_path], started)
    print(f"sweep results: {sweep_path} ({len(rows)} rows)")
    return 0


# --- argument parsing ---------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


_OVERRIDES = {
    "--alpha": ("alpha", float),
    "--k-rerank-value": ("k_rerank", int),
    "--beam-size": ("beam_size", int),
    "--t-max": ("t_max", int),
    "--output-dir": ("output_dir", str),
    "--master-seed": ("master_seed", int),
    "--jobs": ("jobs", int),
    "--lambda-copy": ("lambda_copy", float),
    "--epochs": ("epochs", int),
    "--max-iters": ("max_iters", int),
    "--seed": ("synth_seed", int),
    "--n-pairs": ("synth_n_pairs", int),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="dasearch",
                     description="discriminator-guided beam search toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **extra):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        for flag, (dest, kind) in _OVERRIDES.items():
            p.add_argument(flag, dest=f"ov_{dest}", type=kind, default=None)
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
        "--subset-size": {"type": int, "default": 100},
        "--repetitions": {"type": int, "default": 3},
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
        for dest, _ in _OVERRIDES.values():
            value = getattr(args, f"ov_{dest}", None)
            if value is not None:
                setattr(cfg, dest, value)
        if env_dir := os.environ.get("DASEARCH_OUTPUT_DIR"):
            cfg.output_dir = env_dir
        if env_jobs := os.environ.get("DASEARCH_JOBS"):
            cfg.jobs = int(env_jobs)
        return args.func(cfg, args)
    except (ConfigError, ValueError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime failure
        print(f"runtime error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
