"""The layer boundaries the traced run wraps, and the per-layer metrics it
derives from the spans and counters.

Each layer is one module of `src/dasearch`; every boundary is a public
function or method the rest of the program calls. Functions are rebound in
every dasearch module that imported them by name (cli and selftrain do), and
methods are replaced on their class, because the decoder calls
`generator.next_logprobs` and `discriminator.score` as methods.
"""

from __future__ import annotations

CLI_STAGES = ("make-corpus", "train-generator", "train-discriminator",
              "decode-plain", "decode-das", "evaluate", "self-train")

# (name, unit) of every per-layer metric, in the order they are printed.
METRICS = (
    ("corpus.load_corpus.s", "s"),
    ("corpus.generate_synthetic_corpus.s", "s"),
    ("generator.next_logprobs.calls", "count"),
    ("generator.next_logprobs.self_s", "s"),
    ("generator.train_generator.s", "s"),
    ("discriminator.score.calls", "count"),
    ("discriminator.score.s", "s"),
    ("discriminator.extract_features.calls", "count"),
    ("discriminator.extract_features.self_s", "s"),
    ("discriminator.extract_features.prefix_tokens", "count"),
    ("discriminator.score_features.calls", "count"),
    ("discriminator.score_features.self_s", "s"),
    ("discriminator.train_discriminator.self_s", "s"),
    ("discriminator.train_discriminator.examples", "count"),
    ("discriminator.build_prefix_sets.s", "s"),
    ("discriminator.eq2_objective.s", "s"),
    ("discriminator.accuracy_by_length.s", "s"),
    ("decoder.plain_beam_search.self_s", "s"),
    ("decoder.das_beam_search.self_s", "s"),
    ("decoder.output_tokens", "count"),
    ("decoder.truncated_frac", "ratio"),
    ("decoder.dis_calls_per_token", "calls/token"),
    ("decoder.eps_clamps", "count"),
    ("selftrain.bootstrap.self_s", "s"),
    ("selftrain.self_train_step.self_s", "s"),
    ("metrics.evaluate_system.calls", "count"),
    ("metrics.evaluate_system.s", "s"),
    *((f"cli.{stage}.s", "s") for stage in CLI_STAGES),
    *((f"cli.{stage}.manifest_s", "s") for stage in CLI_STAGES),
    ("cli.startup_s", "s"),
    ("cli.jobs_untraced_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
)

DECODE_ROOTS = ("decoder.plain_beam_search", "decoder.das_beam_search")


def _count_prefix_tokens(counts, args, result):
    counts["discriminator.extract_features.prefix_tokens"] += len(args[1])


def _count_examples(counts, args, result):
    counts["discriminator.train_discriminator.examples"] += len(args[0]) + len(args[1])


def _count_outputs(kind):
    def hook(counts, args, result):
        best = result[0]
        counts[f"{kind}.outputs"] += 1
        counts[f"{kind}.output_tokens"] += len(best.tokens) - 1
        counts[f"{kind}.truncated"] += int(best.truncated)
    return hook


def instrument(tracer) -> None:
    """Wrap every layer boundary; undo with `tracer.unpatch()`."""
    from dasearch import corpus, decoder, discriminator, generator, metrics, selftrain

    def clamp_hook(counts, args, result):
        if args[2] < decoder.EPS_DIS:
            counts["decoder.eps_clamps"] += 1

    fn = tracer.patch_function
    fn(corpus, "load_corpus", "corpus.load_corpus")
    fn(corpus, "generate_synthetic_corpus", "corpus.generate_synthetic_corpus")
    tracer.patch_method(generator.NGramCopyModel, "next_logprobs", "generator.next_logprobs")
    fn(generator, "train_generator", "generator.train_generator")
    tracer.patch_method(discriminator.DiscriminatorModel, "score", "discriminator.score")
    tracer.patch_method(discriminator.DiscriminatorModel, "score_features",
                        "discriminator.score_features")
    fn(discriminator, "extract_features", "discriminator.extract_features",
       _count_prefix_tokens)
    fn(discriminator, "train_discriminator", "discriminator.train_discriminator",
       _count_examples)
    fn(discriminator, "build_prefix_sets", "discriminator.build_prefix_sets")
    fn(discriminator, "eq2_objective", "discriminator.eq2_objective")
    fn(discriminator, "accuracy_by_length", "discriminator.accuracy_by_length")
    fn(decoder, "plain_beam_search", "decoder.plain_beam_search", _count_outputs("plain"))
    fn(decoder, "das_beam_search", "decoder.das_beam_search", _count_outputs("das"))
    fn(decoder, "apply_das_score", None, clamp_hook)
    fn(selftrain, "bootstrap", "selftrain.bootstrap")
    fn(selftrain, "self_train_step", "selftrain.self_train_step")
    fn(metrics, "evaluate_system", "metrics.evaluate_system")


def layer_metrics(tracer, cli_stats: dict, walls: dict) -> tuple[dict, dict]:
    """Every per-layer metric from the traced pass, and the share of each
    decode entry point's time spent as self time of each layer below it.

    `cli_stats` holds the `cli.*` figures of an untraced subprocess pass (empty
    for in-process workloads); `walls` holds the traced and untraced pass wall
    times. Span times are raw clock readings; the pass walls are normalised.
    """
    summary = tracer.summary()
    counts = tracer.counts
    under = tracer.self_time_under(DECODE_ROOTS)
    das_score_calls = under["decoder.das_beam_search"].get("discriminator.score", (0, 0.0))[0]

    def span(name, field):
        return summary.get(name, {}).get(field, 0)

    outputs = counts["plain.outputs"] + counts["das.outputs"]
    values = dict(cli_stats)
    values.update(walls)
    values.update({
        # the decode stages' untraced remainder: the --jobs workers, model loads, writes
        "cli.jobs_untraced_s": (span("cli.decode-plain", "self_s")
                                + span("cli.decode-das", "self_s")),
        "decoder.output_tokens": counts["plain.output_tokens"] + counts["das.output_tokens"],
        "decoder.truncated_frac": ((counts["plain.truncated"] + counts["das.truncated"])
                                   / outputs if outputs else 0.0),
        "decoder.dis_calls_per_token": (das_score_calls / counts["das.output_tokens"]
                                        if counts["das.output_tokens"] else 0.0),
        "decoder.eps_clamps": counts["decoder.eps_clamps"],
        "discriminator.extract_features.prefix_tokens":
            counts["discriminator.extract_features.prefix_tokens"],
        "discriminator.train_discriminator.examples":
            counts["discriminator.train_discriminator.examples"],
    })
    out = {}
    for name, unit in METRICS:
        if name not in values:
            base, _, field = name.rpartition(".")
            values[name] = span(base, field)
        out[name] = {"value": values[name], "unit": unit}
    shares = {}
    for root, by_name in under.items():
        total = sum(s for _, s in by_name.values())
        if total:
            shares[root] = {name: round(s / total, 4) for name, (_, s) in
                            sorted(by_name.items(), key=lambda kv: -kv[1][1])}
    return out, shares
