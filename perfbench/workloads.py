"""The three workloads: set-up, one timed pass, and the checks on its outputs.

All three are closed loops with one client: one pair decode or one CLI stage
at a time. A pass is a fixed amount of work, so its wall time is comparable
across runs and commits; a run repeats passes until its time is used up.

* decode   -- held-out pairs decoded one at a time, first by plain beam search,
              then by fused (discriminator-reranked) search, each phase with a
              fresh generator instance as each `dasearch decode` process has.
* sweep    -- the default `dasearch sweep` grid, K in {1,5,10} x alpha in
              {0,0.5,1,5}, pair by pair, each cell scored by evaluate_system.
              The alpha=0 cells run without a discriminator.
* pipeline -- the quickstart CLI sequence plus one self-training iteration, as
              `python -m dasearch.cli` processes (in-process when traced), with
              the held-out pairs as its test split. Its pair latencies come
              from decoding that split again in-process with the models its
              stages wrote (`replay_decodes`).

Calls into dasearch that a traced pass must see go through the module
attribute (`decoder.das_beam_search`, `metrics.evaluate_system`, `cli.main`),
which is what the tracer rebinds.
"""

from __future__ import annotations

import hashlib
import json
import math
import pickle
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from dasearch import cli, decoder, metrics
from dasearch.corpus import (Corpus, DocumentPair, Vocabulary, generate_synthetic_corpus,
                             load_corpus)
from dasearch.decoder import SearchConfig
from dasearch.discriminator import DiscriminatorModel
from dasearch.generator import NGramCopyModel, train_generator
from dasearch.selftrain import bootstrap, hypothesis_content
from speed import Sampler, normalise, pinned, probe, probe_burst

# The quickstart's corpus seed and search settings (demos/quickstart.sh).
CORPUS_SEED = 1
BEAM, K_RERANK, ALPHA, T_MAX = 3, 10, 1.0, 60
SEARCH = SearchConfig(beam_size=BEAM, k_rerank=K_RERANK, alpha=ALPHA, t_max=T_MAX)
SWEEP_K = (1, 5, 10)
SWEEP_ALPHAS = (0.0, 0.5, 1.0, 5.0)
STAGE_TIMEOUT_S = 150
REPLAYS = 2  # in-process decodes of the pipeline's test split per pass


@dataclass(frozen=True)
class Sizes:
    n_train: int     # training pairs (the pipeline's synth_n_pairs)
    n_decode: int    # held-out pairs of decode, and the pipeline's test split
    n_sweep: int     # held-out pairs per sweep cell


FULL = Sizes(n_train=300, n_decode=100, n_sweep=40)
QUICK = Sizes(n_train=24, n_decode=4, n_sweep=2)


@dataclass
class PassResult:
    """What one timed pass did. Times are in seconds; `raw` ones are as the
    clock read them, the others normalised by the speed probe (speed.py).
    The pass's wall time is the sum of its operations' times."""
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    lat: dict = field(default_factory=lambda: {"plain": [], "das": []})
    raw_lat: dict = field(default_factory=lambda: {"plain": [], "das": []})
    probes: list = field(default_factory=list)
    digest: str = ""
    quality_gap: float = float("nan")
    stage_s: dict = field(default_factory=dict)      # raw
    manifest_s: dict = field(default_factory=dict)

    def add(self, raw_s: float, probe_s: float, kind: str | None = None) -> None:
        """Record one operation's time; `kind` files it as a plain or das
        pair latency."""
        norm = normalise(raw_s, probe_s)
        self.wall_s += norm
        self.raw_wall_s += raw_s
        self.probes.append(probe_s)
        if kind is not None:
            self.lat[kind].append(norm)
            self.raw_lat[kind].append(raw_s)


def run_config(sizes: Sizes, out_dir: Path | None = None,
               test_path: Path | None = None) -> cli.RunConfig:
    """The quickstart configuration, with every path under `out_dir` except
    the test split, which is the seed's held-out pairs at `test_path`."""
    cfg = cli.RunConfig(synth_seed=CORPUS_SEED, synth_n_pairs=sizes.n_train,
                        beam_size=BEAM, k_rerank=K_RERANK, alpha=ALPHA, t_max=T_MAX,
                        max_iters=1, jobs=2)
    if out_dir is not None:
        cfg.output_dir = str(out_dir)
        for key, name in (("train_path", "train.jsonl"),
                          ("validation_path", "validation.jsonl"),
                          ("vocab_path", "vocab.txt"),
                          ("generator_model", "generator.model"),
                          ("discriminator_model", "discriminator.model")):
            setattr(cfg, key, str(out_dir / name))
        cfg.test_path = str(test_path)
    return cfg


def draw_heldout(seed: int, n_pairs: int) -> Corpus:
    """The seed's held-out pairs, as a corpus with its own vocabulary."""
    return generate_synthetic_corpus(cli.component_seed(seed, "corpus-test"), n_pairs,
                                     split="test")


def check_hypothesis(h, n_vocab: int, fused: bool) -> bool:
    """A decode result is valid when it ends with EOS, uses only vocabulary
    ids, is at most t_max + 1 tokens long and has finite scores."""
    toks = h.tokens[1:]
    if not toks or toks[-1] != Vocabulary.eos or len(toks) > T_MAX + 1:
        return False
    if any(not 0 <= t < n_vocab for t in toks):
        return False
    if not math.isfinite(h.s_gen):
        return False
    if h.s_das is None:
        return not fused
    return math.isfinite(h.s_das)


def quality_gap(report) -> float:
    """|d_len| + |d_nov1| + |d_rep3|, the self-training loop's plateau measure."""
    return abs(report.d_len) + abs(report.d_nov1) + abs(report.d_rep3)


def decode_one(result: PassResult, kind: str, search, fused: bool, pair, n_vocab: int,
               digest, tracer=None):
    """Time `search(source)` on one pair after a speed probe and check its
    best hypothesis; returns it, or None when the decode failed."""
    result.attempted += 1
    if tracer is not None:
        tracer.op_id = pair.id
    if max(pair.source) >= n_vocab:
        result.failed += 1
        return None
    probe_s = probe()
    start = time.perf_counter()
    try:
        best = search(pair.source)[0]
    except Exception:
        result.failed += 1
        return None
    result.add(time.perf_counter() - start, probe_s, kind)
    if not check_hypothesis(best, n_vocab, fused):
        result.failed += 1
    digest.update((",".join(map(str, best.tokens)) + "\n").encode())
    return best


# --- in-process workloads: decode and sweep ----------------------------------------


@dataclass
class Models:
    train: Corpus
    heldout: Corpus          # same vocabulary as train
    generator_bytes: bytes   # pickled generator with empty caches
    discriminator: DiscriminatorModel

    def fresh_generator(self) -> NGramCopyModel:
        return pickle.loads(self.generator_bytes)

    def fingerprint(self) -> str:
        d = self.discriminator
        h = hashlib.sha256(self.generator_bytes)
        for arr in (d.dense_w, d.sparse_w):
            h.update(arr.tobytes())
        h.update(repr(d.bias).encode())
        return h.hexdigest()


def build_models(seed: int, sizes: Sizes, n_heldout: int) -> Models:
    """Corpus, generator and discriminator, as make-corpus, train-generator
    and train-discriminator build them at the quickstart settings, plus
    `n_heldout` pairs drawn from `seed`.

    The models are the system under test and are the same in every run; the
    seed draws only the pairs they decode. Those come from their own
    generate_synthetic_corpus call, whose vocabulary orders tokens by that
    corpus's frequencies, so they are re-encoded through the training
    vocabulary (unseen tokens become UNK), as load_corpus does for the CLI.
    """
    cfg = run_config(sizes)
    train = generate_synthetic_corpus(cli.component_seed(CORPUS_SEED, "corpus-train"),
                                      sizes.n_train)
    drawn = draw_heldout(seed, n_heldout)
    vocab = train.vocab

    def reencode(ids):
        return vocab.encode(drawn.vocab.decode(ids))

    heldout = Corpus(tuple(DocumentPair(p.id, reencode(p.source), reencode(p.reference))
                           for p in drawn.pairs), vocab, "test")
    generator = train_generator(train, order=cfg.order, kappa=cfg.kappa,
                                lambda_copy=cfg.lambda_copy)
    generator_bytes = pickle.dumps(generator)
    state = bootstrap(train, generator, cfg.disc_hparams(), cfg.search_config("plain"))
    return Models(train, heldout, generator_bytes, state.discriminator)


def decode_pass(models: Models, tracer=None) -> tuple[PassResult, dict]:
    """Plain phase, then fused phase, over every held-out pair; returns the
    pass and the fused outputs' content tokens by pair id."""
    n_vocab = len(models.train.vocab)
    plain_gen, das_gen = models.fresh_generator(), models.fresh_generator()
    disc = models.discriminator
    digest = hashlib.sha256()
    das_outputs = {}
    result = PassResult()

    def plain(src):
        return decoder.plain_beam_search(plain_gen, src, SEARCH)

    def das(src):
        return decoder.das_beam_search(das_gen, disc, src, SEARCH)

    for pair in models.heldout.pairs:
        decode_one(result, "plain", plain, False, pair, n_vocab, digest, tracer)
    for pair in models.heldout.pairs:
        best = decode_one(result, "das", das, True, pair, n_vocab, digest, tracer)
        das_outputs[pair.id] = hypothesis_content(best) if best is not None else ()
    result.digest = digest.hexdigest()
    return result, das_outputs


def decode_quality(models: Models, das_outputs: dict) -> float:
    return quality_gap(metrics.evaluate_system(das_outputs, models.heldout))


def sweep_pass(models: Models, tracer=None) -> PassResult:
    """One run of the default sweep grid over the held-out pairs, as
    cmd_sweep decodes and scores it."""
    n_vocab = len(models.train.vocab)
    sub = Corpus(models.heldout.pairs, models.heldout.vocab, "validation")
    generator = models.fresh_generator()
    digest = hashlib.sha256()
    gaps = []
    result = PassResult()
    for k in SWEEP_K:
        for alpha in SWEEP_ALPHAS:
            cfg = SearchConfig(beam_size=min(BEAM, k), k_rerank=k, alpha=alpha, t_max=T_MAX)
            disc = models.discriminator if alpha > 0 else None

            def search(src, cfg=cfg, disc=disc):
                return decoder.das_beam_search(generator, disc, src, cfg)

            gens = {}
            for pair in sub.pairs:
                best = decode_one(result, "das" if disc else "plain", search, True, pair,
                                  n_vocab, digest, tracer)
                gens[pair.id] = hypothesis_content(best) if best is not None else ()
            if tracer is not None:
                tracer.op_id = f"cell-K{k}-a{alpha}"
            probe_s = probe()
            start = time.perf_counter()
            report = metrics.evaluate_system(gens, sub, system=f"K{k}-a{alpha}")
            result.add(time.perf_counter() - start, probe_s)
            if alpha > 0:
                gaps.append(quality_gap(report))
    result.digest = digest.hexdigest()
    result.quality_gap = sum(gaps) / len(gaps)
    return result


# --- pipeline: the CLI sequence ----------------------------------------------------


def pipeline_stages(out_dir: Path) -> list[tuple[str, list[str], list[str], str]]:
    """(stage, argv after the config, expected outputs, manifest name)."""
    plain = str(out_dir / "generations-plain-test.jsonl")
    das = str(out_dir / "generations-das-test.jsonl")
    return [
        ("make-corpus", ["make-corpus"],
         ["train.jsonl", "validation.jsonl", "test.jsonl"], "make-corpus"),
        ("train-generator", ["train-generator"],
         ["vocab.txt", "generator.model"], "train-generator"),
        ("train-discriminator", ["train-discriminator"],
         ["discriminator.model", "accuracy_by_length.csv"], "train-discriminator"),
        ("decode-plain", ["decode", "--mode", "plain", "--split", "test", "--jobs", "2"],
         ["generations-plain-test.jsonl"], "decode-plain-test"),
        ("decode-das", ["decode", "--mode", "das", "--split", "test", "--jobs", "2"],
         ["generations-das-test.jsonl"], "decode-das-test"),
        ("evaluate", ["evaluate", "--split", "test", "--systems", plain, das],
         ["report.json"], "evaluate"),
        ("self-train", ["self-train", "--max-iters", "1"],
         ["iter_1/generations.jsonl"], "self-train"),
    ]


def _stage_ok(out_dir: Path, outputs, manifest: str) -> float | None:
    """The manifest's wall_time_s when the stage left its manifest and every
    expected output, else None."""
    for name in outputs:
        path = out_dir / name
        if not path.is_file() or path.stat().st_size == 0:
            return None
    try:
        with open(out_dir / f"manifest-{manifest}.json", encoding="utf-8") as f:
            return float(json.load(f)["wall_time_s"])
    except (OSError, ValueError, KeyError):
        return None


def _read_jsonl(path: Path) -> list:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def check_pipeline_outputs(out_dir: Path, test_path: Path) -> tuple[bool, str, float]:
    """Every generation file has one valid record per pair; returns
    (ok, sha256 of the generated token ids, quality gap of the das system)."""
    n_vocab = len(Vocabulary.load(out_dir / "vocab.txt"))
    ok = True
    digest = hashlib.sha256()
    for name, corpus_path in (("generations-plain-test.jsonl", test_path),
                              ("generations-das-test.jsonl", test_path),
                              ("iter_1/generations.jsonl", out_dir / "train.jsonl")):
        records = _read_jsonl(out_dir / name)
        ok &= len(records) == len(_read_jsonl(corpus_path))
        for rec in records:
            toks = rec["tokens"]
            ok &= len(toks) <= T_MAX and all(0 <= t < n_vocab for t in toks)
            digest.update((",".join(map(str, toks)) + "\n").encode())
    with open(out_dir / "report.json", encoding="utf-8") as f:
        rows = {row["system"]: row for row in json.load(f)}
    das = rows.get("generations-das-test")
    if das is None:
        return False, digest.hexdigest(), float("nan")
    gap = abs(das["d_len"]) + abs(das["d_nov1"]) + abs(das["d_rep3"])
    return ok, digest.hexdigest(), gap


def pipeline_pass(out_dir: Path, cfg_path: Path, test_path: Path, env: dict, log,
                  tracer=None) -> PassResult:
    """Run the seven stages in order; stop at the first failed stage.

    Untraced, each stage is a `python -m dasearch.cli` process. Traced, each
    runs in this process through `dasearch.cli.main` with the same argv, and
    the work of the `--jobs 2` worker processes stays untraced.

    A single-process stage runs pinned to one CPU, normalised by probes
    sampled beside it there. The `--jobs 2` decode stages, which need both
    CPUs, and in-process stages are normalised by the probes run just before
    and just after them.
    """
    result = PassResult()
    for stage, argv, outputs, manifest in pipeline_stages(out_dir):
        argv = argv + ["--config", str(cfg_path)]
        result.attempted += 1
        if tracer is None and "--jobs" not in argv:
            with pinned(), Sampler() as sampler:
                t0 = time.perf_counter()
                rc = _run_stage_process(argv, env, log)
                raw_s = time.perf_counter() - t0
            probe_s = sampler.probe_s()
        else:
            probes = probe_burst()
            t0 = time.perf_counter()
            if tracer is None:
                rc = _run_stage_process(argv, env, log)
            else:
                rc = _run_stage_in_process(argv, stage, log, tracer)
            raw_s = time.perf_counter() - t0
            probe_s = statistics.median(probes + probe_burst())
        result.stage_s[stage] = raw_s
        result.add(raw_s, probe_s)
        manifest_s = _stage_ok(out_dir, outputs, manifest) if rc == 0 else None
        if manifest_s is None:
            result.failed += 1
            return result
        result.manifest_s[stage] = manifest_s
    ok, result.digest, result.quality_gap = check_pipeline_outputs(out_dir, test_path)
    result.failed += not ok
    return result


def replay_decodes(out_dir: Path, test_path: Path, repeats: int) -> PassResult:
    """Decode the test split in this process with the models the pipeline
    wrote, `repeats` times, each phase from a freshly loaded generator as a
    `dasearch decode` process has; every output must equal the one the CLI
    wrote. Its pair latencies are the pipeline's plain_* and das_* figures,
    as the stage processes give no per-pair times."""
    vocab = Vocabulary.load(out_dir / "vocab.txt")
    disc = DiscriminatorModel.load(out_dir / "discriminator.model")
    corpus = load_corpus(test_path, vocab, split="test")
    result = PassResult()
    digest = hashlib.sha256()
    for _ in range(repeats):
        for kind in ("plain", "das"):
            expected = {rec["id"]: tuple(rec["tokens"]) for rec in
                        _read_jsonl(out_dir / f"generations-{kind}-test.jsonl")}
            gen = NGramCopyModel.load(out_dir / "generator.model", vocab)

            def search(src, gen=gen, kind=kind):
                if kind == "plain":
                    return decoder.plain_beam_search(gen, src, SEARCH)
                return decoder.das_beam_search(gen, disc, src, SEARCH)

            for pair in corpus.pairs:
                best = decode_one(result, kind, search, kind == "das", pair, len(vocab),
                                  digest)
                if best is not None and hypothesis_content(best) != expected.get(pair.id):
                    result.failed += 1
    return result


def _run_stage_process(argv, env, log) -> int:
    try:
        proc = subprocess.run([sys.executable, "-m", "dasearch.cli", *argv], env=env,
                              stdout=log, stderr=log, timeout=STAGE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1
    return proc.returncode


def _run_stage_in_process(argv, stage, log, tracer) -> int:
    tracer.op_id = stage
    with tracer.span(f"cli.{stage}"), redirect_stdout(log):
        return cli.main(argv)
