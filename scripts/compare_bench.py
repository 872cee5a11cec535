#!/usr/bin/env python3
"""CI gate for bench_compiled_eval: fail on performance or contract regressions.

Usage: compare_bench.py BASELINE.json FRESH.json
                        [--optimizers OPT_BASELINE.json OPT_FRESH.json]
                        [--mc MC_BASELINE.json MC_FRESH.json]
                        [--large-trees LT_BASELINE.json LT_FRESH.json]
                        [--serve SV_BASELINE.json SV_FRESH.json]
                        [--summary SUMMARY.md]

Compares the fresh benchmark JSON against the committed baseline
(BENCH_compiled_eval.json). Two kinds of checks:

  * contracts — every bitwise-identity boolean in the fresh run must be
    true (lane/thread invariance, identical optima, and every available
    evaluation backend bitwise-identical to generic), the
    8-lane kernel must keep its >= 2x speedup over the single-lane batch
    path, and — on hardware where the avx2 backend runs — avx2 must beat
    the generic 8-lane kernel by >= 1.3x (per-backend ns/eval entries are
    reported, not gated: availability depends on the runner CPU);
  * throughput — each ns/eval metric, *normalized by the same run's
    tree-walk ns/eval*, must not regress more than REGRESSION_LIMIT versus
    the baseline. Normalizing by the tree walk (a fixed workload measured
    in the same process) calibrates away machine-speed differences between
    the baseline host and the CI runner, so the gate measures the compiled
    engine's speedup, not the runner's clock.

With --optimizers, additionally gates the solver results written by
`bench_optimizers --results-json` against the committed
BENCH_optimizers.json: every baseline row (problem, solver, extra) must be
present in the fresh run with exactly the same argmin and value bits,
evaluation and iteration counts, convergence flag and message. The solvers
are deterministic and seeded, so any difference is a behaviour change, on
any machine; regenerate the baseline only for an intended one.

With --mc, additionally gates the adaptive Monte Carlo report written by
`bench_mc_adaptive --json` against the committed BENCH_mc_adaptive.json:
the determinism flags (thread_invariant, seed_reproducible) and the
exact-within-CI check must hold, the adaptive run must converge, it must
need at least MIN_IS_TRIALS_RATIO times fewer trials than crude fixed-N
sampling would for the same CI at the reference point, and the stopped
trial count must not regress more than REGRESSION_LIMIT vs the baseline
(the run is seeded and thread-count-invariant, so growth means the
estimator got worse, not the machine).

With --large-trees, additionally gates the scaling-corpus ablation written
by `bench_large_trees --json` against the committed BENCH_large_trees.json:
plain and preprocessed probabilities must agree (1e-9 relative), the
preprocessed result must be bitwise invariant under ITE-cache shrinking,
the best tier must keep at least a MIN_NODE_REDUCTION x decision-node
reduction, and — the corpus being seeded and the algorithms deterministic —
every tier's decision-node, module and ITE-call counts (where both files
have them) must match the baseline *exactly* on any machine. Wall-clock
columns are reported but never gated.

With --serve, additionally gates the service report written by
`bench_serve --json` against the committed BENCH_serve.json: the
parity flag (HTTP body byte-identical to the offline render, and
therefore to `safeopt quantify --json`) and the single-flight flag
(8 concurrent cold requests -> exactly one compile) must hold, compile
amortization over the repeated-document run must stay >= the
MIN_COMPILE_AMORTIZATION acceptance bar, and the weighted-fairness ratio
must sit inside FAIRNESS_BAND around the configured 3:1 weights. The
cached-quantify latency percentiles are reported but never gated.

With --summary, appends a GitHub-flavored markdown digest of every table to
the given file (use $GITHUB_STEP_SUMMARY in CI).

Exit status: 0 clean, 1 regression or violated contract, 2 usage error.
"""

import json
import sys

REGRESSION_LIMIT = 0.25  # fail when normalized ns/eval grows by more than 25%

CONTRACT_FLAGS = [
    "surfaces_identical",
    "lanes_invariant",
    "grid_search_identical",
    "de_identical",
    "backends_identical",
]

# Gated metrics (ns/eval, lower is better). The threaded batch is reported
# but not gated: CI runner core counts vary run to run.
GATED_METRICS = [
    "tape_ns_per_eval",
    "lane1_ns_per_eval",
    "lane4_ns_per_eval",
    "lane8_ns_per_eval",
]
REPORT_ONLY_METRICS = ["batchn_ns_per_eval"]

# One-shot latencies (not per-eval): reported raw, never normalized or
# gated. load_to_first_eval_ns tracks the declarative pipeline — document
# parse + Study::from_document + first compiled evaluation.
RAW_REPORT_METRICS = ["load_to_first_eval_ns"]

MIN_LANE8_SPEEDUP = 2.0  # acceptance criterion: 8 lanes vs single-lane batch

# Acceptance criterion for the SIMD backend registry: on hardware where the
# avx2 backend is available (ns/eval > 0 in the fresh JSON — the bench
# writes 0 for unavailable backends), its 8-lane kernel must beat the
# generic 8-lane kernel by at least this factor on the Fig. 5 surface.
# Skipped, not failed, on runners without AVX2.
MIN_AVX2_SPEEDUP = 1.3

# Acceptance criterion for the adaptive MC engine: importance sampling must
# beat crude fixed-N sampling by at least this factor (trials for equal CI
# half-width at the rare-event reference point).
MIN_IS_TRIALS_RATIO = 10.0

MC_CONTRACT_FLAGS = [
    "thread_invariant",
    "seed_reproducible",
    "exact_within_ci",
    "adaptive_converged",
]

# Acceptance criterion for the preprocessing pipeline: the best scaling-
# corpus tier must shrink the BDD by at least this factor vs the monolithic
# compile (decision nodes, machine-independent).
MIN_NODE_REDUCTION = 10.0
# Seeded, deterministic work counts of the scaling-corpus ablation, gated for
# exact equality with BENCH_large_trees.json wherever both files have them.
EXACT_LARGE_TREE_COUNTS = [
    "modules",
    "prep_decision_nodes",
    "prep_ite_calls",
    "plain_decision_nodes",
    "plain_ite_calls",
]

SERVE_CONTRACT_FLAGS = [
    "parity_with_cli",
    "single_flight_dedup",
]

# Acceptance criterion for the serve subsystem: repeated requests over the
# same document must be served from cached compile artifacts at least this
# often (the ">= 99% amortization" bar from the service design).
MIN_COMPILE_AMORTIZATION = 0.99

# The bench runs a 3:1 tenant pair; SFQ dispatch granularity makes the
# measured ratio land within half a slot of the weights.
FAIRNESS_BAND = (2.5, 3.5)

# Markdown lines collected for --summary ($GITHUB_STEP_SUMMARY).
summary_lines = []


OPTIMIZER_RESULT_FIELDS = [
    "argmin", "value", "evaluations", "iterations", "converged", "message",
]


def check_optimizers(baseline_path, fresh_path, failures):
    with open(baseline_path) as f:
        baseline = json.load(f)
    with open(fresh_path) as f:
        fresh = json.load(f)

    def key(row):
        return (row["problem"], row["solver"], row["extra"])

    fresh_rows = {key(row): row for row in fresh["results"]}
    print(f"\n{'problem':<14}{'solver':<24}{'extra':<22}{'evaluations':>12}  gate")
    summary_lines.append("\n#### Solver results (exact)\n")
    summary_lines.append("| problem | solver | extra | evaluations | gate |")
    summary_lines.append("|---|---|---|---:|---|")
    for row in baseline["results"]:
        problem, solver, extra = key(row)
        got = fresh_rows.get(key(row))
        verdict = "ok"
        if got is None:
            verdict = "FAIL"
            failures.append(f"{problem}/{solver} {extra}: missing from the fresh run")
        else:
            for field in OPTIMIZER_RESULT_FIELDS:
                if got.get(field) != row[field]:
                    verdict = "FAIL"
                    failures.append(
                        f"{problem}/{solver} {extra}: {field} changed "
                        f"{row[field]!r} -> {got.get(field)!r} (must match "
                        f"BENCH_optimizers.json exactly)"
                    )
        print(f"{problem:<14}{solver:<24}{extra:<22}{row['evaluations']:>12}  {verdict}")
        summary_lines.append(
            f"| {problem} | {solver} | {extra} | {row['evaluations']} | {verdict} |"
        )


def check_mc(baseline_path, fresh_path, failures):
    with open(baseline_path) as f:
        baseline = json.load(f)
    with open(fresh_path) as f:
        fresh = json.load(f)

    for flag in MC_CONTRACT_FLAGS:
        if fresh.get(flag) is not True:
            failures.append(f"mc_adaptive contract violated: {flag} = {fresh.get(flag)}")

    ratio = fresh.get("trials_ratio_vs_crude", 0.0)
    if ratio < MIN_IS_TRIALS_RATIO:
        failures.append(
            f"mc_adaptive importance sampling beats crude fixed-N by only "
            f"{ratio:.1f}x (minimum {MIN_IS_TRIALS_RATIO:.0f}x for equal CI)"
        )

    # Seeded + thread-count-invariant: the stopped trial count only moves
    # when the estimator itself changes. Small drift can come from libm
    # differences shifting leaf probabilities by an ulp; growth beyond the
    # regression limit means the proposal or stopping rule got worse.
    base_trials = baseline.get("adaptive_trials", 0)
    fresh_trials = fresh.get("adaptive_trials", 0)
    if base_trials and fresh_trials > base_trials * (1.0 + REGRESSION_LIMIT):
        failures.append(
            f"mc_adaptive trials-to-target-CI regressed: {fresh_trials} vs "
            f"baseline {base_trials} (limit {REGRESSION_LIMIT:+.0%}); "
            f"regenerate BENCH_mc_adaptive.json if intentional"
        )

    print(f"\n{'mc_adaptive metric':<28}{'baseline':>14}{'fresh':>14}")
    summary_lines.append("\n#### Adaptive Monte Carlo (rare-event gate)\n")
    summary_lines.append("| metric | baseline | fresh |")
    summary_lines.append("|---|---:|---:|")
    for metric in [
        "adaptive_trials",
        "adaptive_halfwidth",
        "adaptive_ess",
        "trials_ratio_vs_crude",
    ]:
        base_value = baseline.get(metric, 0)
        fresh_value = fresh.get(metric, 0)
        print(f"{metric:<28}{base_value:>14.4g}{fresh_value:>14.4g}")
        summary_lines.append(f"| {metric} | {base_value:.4g} | {fresh_value:.4g} |")
    flags = ", ".join(
        f"{flag}={'ok' if fresh.get(flag) is True else 'FAIL'}"
        for flag in MC_CONTRACT_FLAGS
    )
    print(f"  {flags}")
    summary_lines.append(f"\nContracts: {flags}")


def check_large_trees(baseline_path, fresh_path, failures):
    with open(baseline_path) as f:
        baseline = json.load(f)
    with open(fresh_path) as f:
        fresh = json.load(f)

    for flag in ["all_agree", "cache_geometry_invariant"]:
        if fresh.get(flag) is not True:
            failures.append(f"large-trees contract violated: {flag} = {fresh.get(flag)}")

    reduction = fresh.get("max_node_reduction", 0.0)
    if reduction < MIN_NODE_REDUCTION:
        failures.append(
            f"preprocessing node reduction fell to {reduction:.1f}x on the "
            f"best tier (minimum {MIN_NODE_REDUCTION:.0f}x)"
        )

    base_tiers = {t["name"]: t for t in baseline.get("tiers", [])}
    print(f"\n{'tier':<7}{'events':>9}{'modules':>9}{'plain nodes':>13}"
          f"{'prep nodes':>12}{'reduction':>11}{'time':>8}  gate")
    summary_lines.append("\n#### Scaling corpus: preprocessing ablation\n")
    summary_lines.append(
        "| tier | events | modules | plain nodes | prep nodes "
        "| node reduction | time ratio | gate |"
    )
    summary_lines.append("|---|---:|---:|---:|---:|---:|---:|---|")
    for tier in fresh.get("tiers", []):
        name = tier["name"]
        base = base_tiers.get(name)
        verdict = "ok"
        # Seeded corpus + deterministic algorithms: node counts, module
        # counts and ITE-call counts must match the committed baseline
        # exactly, on any machine. Equal module and ITE counts show the
        # module trees themselves did not change.
        for metric in EXACT_LARGE_TREE_COUNTS:
            if base is None or metric not in base or metric not in tier:
                continue
            if tier[metric] != base[metric]:
                verdict = "FAIL"
                failures.append(
                    f"tier {name}: {metric} changed {base[metric]} -> "
                    f"{tier[metric]} (must match the committed baseline "
                    f"exactly; regenerate BENCH_large_trees.json if "
                    f"intentional)"
                )
        plain_nodes = (
            f"{tier['plain_decision_nodes']}" if tier.get("plain_measured")
            else "(skipped)"
        )
        reduction_text = (
            f"{tier['node_reduction']:.1f}x" if tier.get("plain_measured")
            else "-"
        )
        time_text = (
            f"{tier['time_ratio']:.1f}x" if tier.get("plain_measured") else "-"
        )
        print(
            f"{name:<7}{tier['events']:>9}{tier['modules']:>9}"
            f"{plain_nodes:>13}{tier['prep_decision_nodes']:>12}"
            f"{reduction_text:>11}{time_text:>8}  {verdict}"
        )
        summary_lines.append(
            f"| {name} | {tier['events']} | {tier['modules']} "
            f"| {plain_nodes} | {tier['prep_decision_nodes']} "
            f"| {reduction_text} | {time_text} | {verdict} |"
        )
    print(
        f"  agreement={'ok' if fresh.get('all_agree') else 'FAIL'}, "
        f"cache_geometry_invariant="
        f"{'ok' if fresh.get('cache_geometry_invariant') else 'FAIL'}, "
        f"max reduction {reduction:.1f}x"
    )
    summary_lines.append(
        f"\nContracts: agreement="
        f"{'ok' if fresh.get('all_agree') else 'FAIL'}, "
        f"cache_geometry_invariant="
        f"{'ok' if fresh.get('cache_geometry_invariant') else 'FAIL'}; "
        f"max node reduction {reduction:.1f}x"
    )


def check_serve(baseline_path, fresh_path, failures):
    with open(baseline_path) as f:
        baseline = json.load(f)
    with open(fresh_path) as f:
        fresh = json.load(f)

    for flag in SERVE_CONTRACT_FLAGS:
        if fresh.get(flag) is not True:
            failures.append(f"serve contract violated: {flag} = {fresh.get(flag)}")

    amortization = fresh.get("compile_amortization", 0.0)
    if amortization < MIN_COMPILE_AMORTIZATION:
        failures.append(
            f"serve compile amortization fell to {amortization:.4f} "
            f"(minimum {MIN_COMPILE_AMORTIZATION:.2f})"
        )

    ratio = fresh.get("fairness_ratio", 0.0)
    if not (FAIRNESS_BAND[0] <= ratio <= FAIRNESS_BAND[1]):
        failures.append(
            f"serve fairness ratio {ratio:.2f} outside "
            f"[{FAIRNESS_BAND[0]:.1f}, {FAIRNESS_BAND[1]:.1f}] for 3:1 weights"
        )

    print(f"\n{'serve metric':<28}{'baseline':>14}{'fresh':>14}")
    summary_lines.append("\n#### Serve subsystem (cache + fairness gate)\n")
    summary_lines.append("| metric | baseline | fresh |")
    summary_lines.append("|---|---:|---:|")
    for metric in [
        "cached_quantify_p50_us",
        "cached_quantify_p99_us",
        "compile_amortization",
        "fairness_ratio",
    ]:
        base_value = baseline.get(metric, 0)
        fresh_value = fresh.get(metric, 0)
        print(f"{metric:<28}{base_value:>14.4g}{fresh_value:>14.4g}")
        summary_lines.append(f"| {metric} | {base_value:.4g} | {fresh_value:.4g} |")
    flags = ", ".join(
        f"{flag}={'ok' if fresh.get(flag) is True else 'FAIL'}"
        for flag in SERVE_CONTRACT_FLAGS
    )
    print(f"  {flags} (latency columns report-only)")
    summary_lines.append(f"\nContracts: {flags}")


def main(argv):
    optimizers_paths = None
    mc_paths = None
    large_trees_paths = None
    serve_paths = None
    summary_path = None
    args = argv[1:]
    positional = []
    i = 0
    while i < len(args):
        if args[i] == "--optimizers" and i + 2 < len(args):
            optimizers_paths = (args[i + 1], args[i + 2])
            i += 3
        elif args[i] == "--mc" and i + 2 < len(args):
            mc_paths = (args[i + 1], args[i + 2])
            i += 3
        elif args[i] == "--large-trees" and i + 2 < len(args):
            large_trees_paths = (args[i + 1], args[i + 2])
            i += 3
        elif args[i] == "--serve" and i + 2 < len(args):
            serve_paths = (args[i + 1], args[i + 2])
            i += 3
        elif args[i] == "--summary" and i + 1 < len(args):
            summary_path = args[i + 1]
            i += 2
        else:
            positional.append(args[i])
            i += 1
    if len(positional) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(positional[0]) as f:
        baseline = json.load(f)
    with open(positional[1]) as f:
        fresh = json.load(f)

    failures = []

    for flag in CONTRACT_FLAGS:
        if fresh.get(flag) is not True:
            failures.append(f"contract violated: {flag} = {fresh.get(flag)}")

    lane8_speedup = fresh.get("speedup_lane8_vs_lane1", 0.0)
    if lane8_speedup < MIN_LANE8_SPEEDUP:
        failures.append(
            f"8-lane kernel speedup over single-lane batch fell to "
            f"{lane8_speedup:.2f}x (minimum {MIN_LANE8_SPEEDUP:.1f}x)"
        )

    # The avx2 gate only applies where the backend ran (the bench writes
    # speedup 0 when the CPU lacks AVX2); the bitwise contract itself is
    # covered by the backends_identical flag above for every backend.
    avx2_speedup = fresh.get("speedup_avx2_vs_generic", 0.0)
    if avx2_speedup > 0.0 and avx2_speedup < MIN_AVX2_SPEEDUP:
        failures.append(
            f"avx2 backend speedup over the generic 8-lane kernel fell to "
            f"{avx2_speedup:.2f}x (minimum {MIN_AVX2_SPEEDUP:.1f}x)"
        )

    base_tree = baseline["tree_ns_per_eval"]
    fresh_tree = fresh["tree_ns_per_eval"]
    print(f"{'metric':<34}{'baseline':>12}{'fresh':>12}{'norm Δ':>10}  gate")
    summary_lines.append("#### Compiled-evaluation kernel\n")
    summary_lines.append("| metric | baseline ns/eval | fresh ns/eval | norm Δ | gate |")
    summary_lines.append("|---|---:|---:|---:|---|")
    for metric in GATED_METRICS + REPORT_ONLY_METRICS:
        base_norm = baseline[metric] / base_tree
        fresh_norm = fresh[metric] / fresh_tree
        delta = fresh_norm / base_norm - 1.0
        gated = metric in GATED_METRICS
        verdict = "ok"
        if gated and delta > REGRESSION_LIMIT:
            verdict = "FAIL"
            failures.append(
                f"{metric}: normalized ns/eval regressed {delta:+.1%} "
                f"(limit {REGRESSION_LIMIT:+.0%})"
            )
        elif not gated:
            verdict = "info"
        print(
            f"{metric:<34}{baseline[metric]:>12.1f}{fresh[metric]:>12.1f}"
            f"{delta:>+9.1%}  {verdict}"
        )
        summary_lines.append(
            f"| {metric} | {baseline[metric]:.1f} | {fresh[metric]:.1f} "
            f"| {delta:+.1%} | {verdict} |"
        )
    for metric in RAW_REPORT_METRICS:
        base_value = baseline.get(metric)
        fresh_value = fresh.get(metric)
        if not base_value or not fresh_value:
            continue  # absent (older JSON) or 0 (skipped: model not found)
        delta = fresh_value / base_value - 1.0
        print(
            f"{metric:<34}{base_value:>12.1f}{fresh_value:>12.1f}"
            f"{delta:>+9.1%}  info"
        )
        summary_lines.append(
            f"| {metric} | {base_value:.1f} | {fresh_value:.1f} "
            f"| {delta:+.1%} | info |"
        )

    # Per-backend timings at each backend's default lane width, on the
    # Fig. 5 surface (backend_<name>_ns_per_eval) and on the study tape
    # (backend_<name>_study_ns_per_eval). Report-only: backend availability
    # depends on the runner CPU, so a cross-machine delta is not a
    # regression signal — the gated quantities are the bitwise contract and
    # the avx2-vs-generic speedup measured in-process.
    for metric in sorted(fresh):
        if not (metric.startswith("backend_") and metric.endswith("_ns_per_eval")):
            continue
        fresh_value = fresh[metric]
        if not fresh_value:
            continue  # 0 = backend unavailable on this runner
        base_value = baseline.get(metric, 0)
        base_text = f"{base_value:>12.1f}" if base_value else f"{'-':>12}"
        delta_text = (
            f"{fresh_value / base_value - 1.0:>+9.1%}" if base_value
            else f"{'-':>9}"
        )
        print(f"{metric:<34}{base_text}{fresh_value:>12.1f}{delta_text}  info")
        summary_lines.append(
            f"| {metric} | {base_value:.1f} | {fresh_value:.1f} "
            f"| - | info |"
        )
    if fresh.get("active_backend"):
        avx2_text = (
            f"{avx2_speedup:.2f}x (gated >= {MIN_AVX2_SPEEDUP:.1f}x)"
            if avx2_speedup > 0.0 else "n/a (no AVX2 on this runner)"
        )
        print(
            f"  dispatch picked '{fresh['active_backend']}'; "
            f"avx2 vs generic lane8: {avx2_text}"
        )
        summary_lines.append(
            f"\nDispatch picked `{fresh['active_backend']}`; "
            f"avx2 vs generic lane8: {avx2_text}"
        )

    if optimizers_paths is not None:
        check_optimizers(optimizers_paths[0], optimizers_paths[1], failures)
    if mc_paths is not None:
        check_mc(mc_paths[0], mc_paths[1], failures)
    if large_trees_paths is not None:
        check_large_trees(large_trees_paths[0], large_trees_paths[1], failures)
    if serve_paths is not None:
        check_serve(serve_paths[0], serve_paths[1], failures)

    if failures:
        print("\nbenchmark gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        summary_lines.append("\n**benchmark gate FAILED:**\n")
        summary_lines.extend(f"- {failure}" for failure in failures)
    else:
        print(f"\nbenchmark gate passed (lane8 {lane8_speedup:.2f}x vs lane1)")
        summary_lines.append(
            f"\nbenchmark gate **passed** (lane8 {lane8_speedup:.2f}x vs lane1)"
        )
    if summary_path is not None:
        with open(summary_path, "a") as f:
            f.write("\n".join(summary_lines) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
