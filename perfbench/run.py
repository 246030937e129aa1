"""Seeded benchmark of dasearch: the decode, sweep and pipeline workloads.

Run from the repository root:

    python3 perfbench/run.py --workload decode --seed 1 --seconds 8 --trace 0

The inputs come from `--seed`; the same seed gives the same inputs. The
models are the system under test and are the same in every run: they are
trained on the quickstart's corpus (synth seed 1, 300 training pairs) at the
quickstart's settings. The seed draws the held-out pairs that are decoded
(for pipeline, its test split) and nothing else. A run sets up (corpus,
generator, discriminator) three times and reports the median as `setup_s`,
then repeats fixed passes of its workload until `--seconds` have passed (at
least one pass) and checks every output. A traced run sets up once and makes
one untraced and one traced pass; only the timed phase is traced.

Every time reported under `metrics` is normalised by a machine-speed probe
run just before the operation or sampled while it ran (perfbench/speed.py),
because this class of shared machine changes CPU speed by about 1.6x within
seconds. The info line carries the same figures as the clock read them
(`raw`) and the median probe time, so the machine's speed is on record too.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end-to-end ones
of BENCHMARK.json; with `--trace 1` they are the per-layer ones, from a pass
with every layer boundary wrapped in spans (perfbench/layers.py), after an
untraced pass whose wall time gives the tracing overhead. The line before it
holds the details: the sha256 of the generated token ids (the same with
tracing on and off), the sample counts and tail percentile of each latency,
failed_frac, quality_gap (|d_len|+|d_nov1|+|d_rep3| of the fused outputs
against the references; sweep: mean over alpha>0 cells; pipeline: the das row
of the evaluate report), the pipeline's train-discriminator and self-train
stage times, and the environment.

End-to-end metrics, per workload:
  wall_s            median over passes of one pass's wall time (the sum of
                    its operations: pair decodes, evaluate calls, stages)
  plain_*           per-pair latency of plain decoding. decode: the plain
                    phase; sweep: the alpha=0 cells (generator only);
                    pipeline: in-process decodes of its test split with the
                    models its stages wrote, checked token for token against
                    the CLI's generations
  das_*             the same for the fused phase, the alpha>0 cells and the
                    pipeline's fused replay
  peak_rss_mb       peak RSS of this process; pipeline: of its largest stage
  setup_s           median of three set-ups; pipeline: of three CLI start-ups
                    (`--help`), as its corpus and models are built by stages

Decoder warnings (one per clamped discriminator probability) are left as a
user gets them: they go to stderr, which the run sends, with the output of
the CLI stages, to .bench_run/<workload>-trace<0|1>.log while it works.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("decode", "sweep", "pipeline")
SETUP_REPEATS = 3

sys.path.insert(0, str(HERE))

from speed import Sampler, normalise, pinned  # noqa: E402


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def tail(values) -> dict:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(values)
    best = 50.0
    for p in (90.0, 99.0, 99.9):
        if n * (1 - p / 100) >= 10:
            best = p
    return {"n": n, "p": best, "ms": percentile(values, best) * 1e3 if n else None}


def environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "loadavg": list(os.getloadavg())}


@contextmanager
def stderr_to(log):
    """Send file descriptor 2, and so sys.stderr, to the open file `log`
    within the block."""
    sys.stderr.flush()
    saved = os.dup(2)
    os.dup2(log.fileno(), 2)
    try:
        yield
    finally:
        sys.stderr.flush()
        os.dup2(saved, 2)
        os.close(saved)


def timed_setups(build):
    """Run `build()` SETUP_REPEATS times; return (median normalised seconds,
    median raw seconds, first result, whether every repeat built the same
    thing). Each repeat runs pinned to one CPU with probes sampled beside it,
    in this process or in the child it starts."""
    times, raw, first, same = [], [], None, True
    for _ in range(SETUP_REPEATS):
        with pinned(), Sampler() as sampler:
            start = time.perf_counter()
            built = build()
            raw_s = time.perf_counter() - start
        probe_s = sampler.probe_s()
        raw.append(raw_s)
        times.append(normalise(raw_s, probe_s))
        if first is None:
            first = built
        else:
            same &= built[1] == first[1]
    return statistics.median(times), statistics.median(raw), first[0], same


def timings(passes, setup_s: float, lat: str, wall: str) -> dict:
    """The timing metrics, from the normalised (`lat="lat"`, `wall="wall_s"`)
    or the raw (`"raw_lat"`, `"raw_wall_s"`) figures of the passes."""
    out = {"setup_s": (setup_s, "s"),
           "wall_s": (statistics.median(getattr(p, wall) for p in passes), "s")}
    for kind in ("plain", "das"):
        values = [x for p in passes for x in getattr(p, lat)[kind]]
        out[f"{kind}_pairs_per_s"] = (len(values) / sum(values), "pairs/s")
        out[f"{kind}_pair_p50_ms"] = (percentile(values, 50) * 1e3, "ms")
        out[f"{kind}_pair_p90_ms"] = (percentile(values, 90) * 1e3, "ms")
    return out


class Run:
    """One workload, one seed: set-up, passes and checks."""

    def __init__(self, workload: str, seed: int, seconds: float, sizes, work: Path, log):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.sizes, self.work, self.log = sizes, work, log
        self.correct = True
        self.details: dict = {}
        # the CLI's environment: the repo's src on the path, no DASEARCH_* overrides
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("DASEARCH_OUTPUT_DIR", "DASEARCH_JOBS", "PYTHONPATH")}
        self.env["PYTHONPATH"] = str(SRC)

    # -- set-up ----------------------------------------------------------------------

    def setup(self, repeats: bool):
        """Build what the passes need; with `repeats`, build it SETUP_REPEATS
        times and keep the median time as setup_s."""
        import workloads as wl

        if self.workload == "pipeline":
            build = self._pipeline_build
        else:
            n_heldout = self.sizes.n_decode if self.workload == "decode" else self.sizes.n_sweep

            def build():
                models = wl.build_models(self.seed, self.sizes, n_heldout)
                return models, models.fingerprint()
        if not repeats:
            return build()[0]
        self.setup_s, self.details["raw_setup_s"], state, same = timed_setups(build)
        self.correct &= same
        return state

    def _pipeline_build(self):
        """Write the seed's held-out pairs, the pipeline's test split, and run
        `dasearch.cli --help`: the CLI's start-up (interpreter, imports,
        argument parsing), which also compiles the package."""
        import subprocess

        import workloads as wl
        from dasearch.corpus import save_corpus

        self.test_path = self.work / "heldout.jsonl"
        save_corpus(wl.draw_heldout(self.seed, self.sizes.n_decode), self.test_path)
        proc = subprocess.run([sys.executable, "-m", "dasearch.cli", "--help"],
                              env=self.env, stdout=subprocess.DEVNULL, stderr=self.log,
                              timeout=wl.STAGE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"dasearch.cli --help exited with {proc.returncode}")
        return None, None

    # -- passes ----------------------------------------------------------------------

    def one_pass(self, state, index: int, tracer=None, replay: bool = False):
        """One pass; for pipeline with `replay`, also the in-process decodes of
        its test split that give its pair latencies."""
        import workloads as wl

        if self.workload == "decode":
            result, das_outputs = wl.decode_pass(state, tracer)
            if tracer is None:
                result.quality_gap = wl.decode_quality(state, das_outputs)
            return result
        if self.workload == "sweep":
            return wl.sweep_pass(state, tracer)
        out_dir = self.work / f"pass{index}"
        out_dir.mkdir(parents=True)
        cfg_path = out_dir / "run.ini"
        cfg = wl.run_config(self.sizes, out_dir=out_dir, test_path=self.test_path)
        cfg_path.write_text(cfg.to_ini())
        result = wl.pipeline_pass(out_dir, cfg_path, self.test_path, self.env, self.log,
                                  tracer)
        if replay and not result.failed:
            replayed = wl.replay_decodes(out_dir, self.test_path, wl.REPLAYS)
            result.attempted += replayed.attempted
            result.failed += replayed.failed
            result.lat, result.raw_lat = replayed.lat, replayed.raw_lat
        return result

    def passes(self, state) -> list:
        out = []
        start = time.perf_counter()
        while not out or time.perf_counter() - start < self.seconds:
            result = self.one_pass(state, len(out), replay=True)
            out.append(result)
            if result.failed:
                break
        return out

    def check(self, passes) -> None:
        """Every pass must produce the same outputs."""
        digests = {p.digest for p in passes}
        self.correct &= len(digests) == 1 and all(p.digest for p in passes)
        self.details["output_sha256"] = passes[0].digest

    # -- the two kinds of run ----------------------------------------------------------

    def measure(self) -> tuple[dict, list]:
        state = self.setup(repeats=True)
        passes = self.passes(state)
        self.check(passes)
        if self.workload == "pipeline":
            peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            self.details["train_discriminator_s"] = [p.stage_s.get("train-discriminator")
                                                     for p in passes]
            self.details["self_train_s"] = [p.stage_s.get("self-train") for p in passes]
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.details.update(
            passes=len(passes),
            plain_tail=tail([x for p in passes for x in p.lat["plain"]]),
            das_tail=tail([x for p in passes for x in p.lat["das"]]),
            quality_gap=passes[0].quality_gap,
            probe_median_ms=statistics.median(x for p in passes for x in p.probes) * 1e3)
        if not all(p.lat["plain"] and p.lat["das"] for p in passes):
            self.correct = False
            return {}, passes
        self.details["raw"] = {k: v for k, (v, _) in timings(
            passes, self.details["raw_setup_s"], "raw_lat", "raw_wall_s").items()}
        values = timings(passes, self.setup_s, "lat", "wall_s")
        values["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, passes

    def trace(self) -> tuple[dict, list]:
        from layers import CLI_STAGES, instrument, layer_metrics
        from tracer import Tracer

        state = self.setup(repeats=False)
        untraced = self.one_pass(state, 0)
        tracer = Tracer()
        instrument(tracer)
        try:
            traced = self.one_pass(state, 1, tracer)
        finally:
            tracer.unpatch()
        passes = [untraced, traced]
        self.check(passes)
        cli_stats = {}
        if self.workload == "pipeline":
            for stage in CLI_STAGES:
                cli_stats[f"cli.{stage}.s"] = untraced.stage_s.get(stage, 0.0)
                cli_stats[f"cli.{stage}.manifest_s"] = untraced.manifest_s.get(stage, 0.0)
            cli_stats["cli.startup_s"] = sum(
                untraced.stage_s[s] - untraced.manifest_s[s] for s in untraced.manifest_s)
        walls = {"trace.wall_s": traced.wall_s, "trace.untraced_wall_s": untraced.wall_s,
                 "trace.overhead_s": traced.wall_s - untraced.wall_s}
        metrics, self.details["decode_self_share"] = layer_metrics(tracer, cli_stats, walls)
        self.details["spans"] = len(tracer.spans)
        return metrics, passes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, for the benchmark's own test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dasearch" / "__init__.py").is_file():
        print(f"error: no dasearch package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for var in ("DASEARCH_OUTPUT_DIR", "DASEARCH_JOBS"):
        os.environ.pop(var, None)
    import workloads as wl

    sizes = wl.QUICK if args.quick else wl.FULL
    base = ROOT / ".bench_run"
    work = base / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env_start = environment()
    log_path = base / f"{args.workload}-trace{args.trace}.log"
    try:
        with open(log_path, "w", encoding="utf-8") as log, stderr_to(log):
            run = Run(args.workload, args.seed, args.seconds, sizes, work, log)
            metrics, passes = run.trace() if args.trace else run.measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "quick": args.quick, "failed_frac": failed / attempted if attempted else 1.0,
            **run.details,
            "env": {**env_start, "loadavg_end": list(os.getloadavg())}}
    print(json.dumps(info))
    print(json.dumps({"correct": bool(run.correct and metrics and failed == 0),
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
