// perfbench — runs one workload for a fixed time and prints its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--reference-probability HEX] [--trace-out PATH]
//             [--commit TEXT]
//   perfbench --workload quantify_large --seed N --reference
//
// The last stdout line is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Earlier lines carry the host/build block and a readable
// summary. run.py builds this binary and is the documented entry point.
#include <sched.h>
#include <sys/personality.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "safeopt/expr/cpu_features.h"
#include "safeopt/expr/eval_backend.h"
#include "safeopt/support/build_info.h"
#include "safeopt/support/json.h"
#include "trace.h"
#include "workload.h"

namespace {

using perfbench::LayerValues;
using perfbench::Tracer;
using perfbench::Workload;

/// Set-up runs this many times per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// The traced run's split calls run this many times; the exact counters
/// must agree across the repeats.
constexpr int kSplitRepeats = 3;
/// Spans written to the Chrome trace file (all spans feed the metrics).
constexpr std::size_t kMaxTraceEvents = 50000;
/// latency_tail_ms is the highest percentile with at least this many
/// samples beyond it, capped at p95: above p95 the serve_hot tail is set by
/// the scheduler, not the program. With three CPU hogs beside a run on a
/// 4-vCPU VM its p99 went from 0.47 to 4.1 ms while its p95 stayed at
/// 0.32 ms, and over ten seeds its p99 spread 27-55%.
constexpr double kTailSamples = 10;
constexpr double kMaxTailPercentile = 95.0;
/// A run long enough to hold this many windows of consecutive ops, each
/// with kTailSamples beyond the tail percentile, reports the median of the
/// per-window tails, so a burst of host stalls sets one window's tail
/// instead of the run's.
constexpr std::size_t kTailWindows = 25;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool reference = false;
  double reference_probability = 0;
  std::string trace_out;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--reference-probability HEX] "
               "[--trace-out PATH] [--commit TEXT]\n"
               "       perfbench --workload quantify_large --seed N "
               "--reference\n",
               message);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--reference") {
      options.reference = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (arg == "--reference-probability") {
      options.reference_probability = std::strtod(value, &end);
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else if (arg == "--commit") {
      options.commit = value;
    } else {
      usage(("unknown option " + arg).c_str());
    }
    if (end != nullptr && *end != '\0') {
      usage(("malformed value for " + arg).c_str());
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (!(options.seconds > 0)) usage("--seconds must be positive");
  return options;
}

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// The host/build block printed with every result, so numbers from
/// different hosts or builds are never compared silently.
std::string host_block(const Options& options) {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc = sched_getaffinity(0, sizeof(cpus), &cpus) == 0
                        ? CPU_COUNT(&cpus)
                        : 0;
  const auto& features = safeopt::expr::cpu_features();
  std::string flags;
  for (const auto& [name, present] :
       {std::pair{"avx2", features.avx2},
        std::pair{"avx512f", features.avx512f},
        std::pair{"avx512dq", features.avx512dq},
        std::pair{"avx512vl", features.avx512vl}}) {
    if (present) flags += flags.empty() ? name : std::string(" ") + name;
  }
  const char* source = !safeopt::expr::BackendRegistry::override_name().empty()
                           ? "override"
                       : std::getenv("SAFEOPT_BACKEND") != nullptr
                           ? "SAFEOPT_BACKEND"
                           : "dispatch";
  const safeopt::BuildInfo& build = safeopt::build_info();
  safeopt::JsonValue host = safeopt::JsonValue::object();
  host.set("workload", safeopt::JsonValue::string(options.workload));
  host.set("seed",
           safeopt::JsonValue::number(static_cast<double>(options.seed)));
  host.set("nproc", safeopt::JsonValue::number(nproc));
  host.set("cpu_flags", safeopt::JsonValue::string(flags));
  host.set("expr_backend",
           safeopt::JsonValue::string(std::string(
               safeopt::expr::BackendRegistry::active().name())));
  host.set("expr_backend_source", safeopt::JsonValue::string(source));
  host.set("compiler", safeopt::JsonValue::string(std::string(build.compiler)));
  host.set("build_type",
           safeopt::JsonValue::string(std::string(build.build_type)));
  host.set("build_flags", safeopt::JsonValue::string(std::string(build.flags)));
  host.set("commit", safeopt::JsonValue::string(options.commit));
  return host.dump();
}

struct CpuAndRss {
  double cpu_s = 0;
  double max_rss_mb = 0;
};

CpuAndRss process_usage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return {seconds(usage.ru_utime) + seconds(usage.ru_stime),
          static_cast<double>(usage.ru_maxrss) / 1024.0};
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Linear-interpolated percentile of sorted values, p in [0, 100].
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto below = static_cast<std::size_t>(std::floor(rank));
  const std::size_t above = std::min(below + 1, sorted.size() - 1);
  return sorted[below] +
         (rank - static_cast<double>(below)) * (sorted[above] - sorted[below]);
}

/// The tail latency at percentile `p` of per-op latencies in time order
/// (one client's ops after another's); see kTailWindows.
double tail_latency(const std::vector<double>& latency, double p) {
  const auto window =
      static_cast<std::size_t>(std::ceil(kTailSamples / (1.0 - p / 100.0)));
  const std::size_t windows =
      latency.size() >= kTailWindows * window ? kTailWindows : 1;
  const std::size_t size = latency.size() / windows;
  std::vector<double> tails;
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<double> part(
        latency.begin() + static_cast<std::ptrdiff_t>(w * size),
        w + 1 == windows
            ? latency.end()
            : latency.begin() + static_cast<std::ptrdiff_t>((w + 1) * size));
    std::sort(part.begin(), part.end());
    tails.push_back(percentile(part, p));
  }
  return median(tails);
}

/// One closed-loop run: each client issues its next op when the previous
/// one returns, until the deadline.
struct LoopResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wall_s = 0;
  std::vector<double> latency_ms;  // untraced ops only
  // Traced run: per-op wall time (op plus loop overhead) split by mode.
  double traced_s = 0, untraced_s = 0;
  std::uint64_t traced_ops = 0, untraced_ops = 0;
};

/// With a tracer, every second op is traced, so the traced and untraced
/// halves see the same host drift and their difference is the overhead.
LoopResult run_loop(Workload& workload, double seconds, Tracer* tracer) {
  const std::size_t clients = workload.clients();
  std::vector<LoopResult> per_client(clients);
  const std::int64_t start = perfbench::now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(seconds * 1e9);
  const auto client_loop = [&](std::size_t client) {
    LoopResult& result = per_client[client];
    std::int64_t previous = perfbench::now_ns();
    for (std::uint64_t index = 0; previous < deadline; ++index) {
      const bool traced = tracer != nullptr && index % 2 == 1;
      bool ok = false;
      try {
        ok = workload.op(client, index, traced ? tracer : nullptr);
      } catch (const std::exception& error) {
        std::fprintf(stderr, "op %" PRIu64 " failed: %s\n", index,
                     error.what());
      }
      const std::int64_t done = perfbench::now_ns();
      const double wall = static_cast<double>(done - previous);
      ++result.attempted;
      if (!ok) ++result.failed;
      if (traced) {
        result.traced_s += wall / 1e9;
        ++result.traced_ops;
      } else {
        result.untraced_s += wall / 1e9;
        ++result.untraced_ops;
        result.latency_ms.push_back(wall / 1e6);
      }
      previous = done;
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t client = 1; client < clients; ++client) {
    threads.emplace_back(client_loop, client);
  }
  client_loop(0);
  for (std::thread& thread : threads) thread.join();

  LoopResult total;
  total.wall_s = static_cast<double>(perfbench::now_ns() - start) / 1e9;
  for (LoopResult& result : per_client) {
    total.attempted += result.attempted;
    total.failed += result.failed;
    total.traced_s += result.traced_s;
    total.untraced_s += result.untraced_s;
    total.traced_ops += result.traced_ops;
    total.untraced_ops += result.untraced_ops;
    total.latency_ms.insert(total.latency_ms.end(), result.latency_ms.begin(),
                            result.latency_ms.end());
  }
  return total;
}

struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},          {"ops_per_s", "1/s"},
      {"latency_p50_ms", "ms"},  {"latency_tail_ms", "ms"},
      {"cpu_ms_per_op", "ms"},   {"peak_rss_mb", "MB"},
      {"success_rate", "ratio"}};
  return specs;
}

/// Every per-layer metric, printed on every workload; a layer a workload
/// never reaches reads 0 there.
const std::vector<MetricSpec>& layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"ftio.parse_ms", "ms"},
      {"core.compile_ms", "ms"},
      {"core.first_quantify_ms", "ms"},
      {"core.quantify_us", "us"},
      {"core.engine_build_ms", "ms"},
      {"opt.solve_ms", "ms"},
      {"opt.evaluations", "count"},
      {"opt.us_per_eval", "us"},
      {"expr.batch_ns_per_eval", "ns"},
      {"fta.mcs_ms", "ms"},
      {"fta.cut_sets", "count"},
      {"fta.leaf_input_ms", "ms"},
      {"prep.preprocess_ms", "ms"},
      {"prep.modules", "count"},
      {"prep.events_after", "count"},
      {"bdd.build_ms", "ms"},
      {"bdd.decision_nodes", "count"},
      {"bdd.ite_calls", "count"},
      {"mc.quantify_ms", "ms"},
      {"mc.trials", "count"},
      {"mc.us_per_trial", "us"},
      {"serve.request_us", "us"},
      {"serve.render_us", "us"},
      {"serve.compile_hit_ratio", "ratio"},
      {"serve.single_flight_waits", "count"},
      {"proc.minflt_per_op", "count"},
      {"bench.self_ms_per_op", "ms"},
      {"ftio.self_ms_per_op", "ms"},
      {"fta.self_ms_per_op", "ms"},
      {"core.self_ms_per_op", "ms"},
      {"opt.self_ms_per_op", "ms"},
      {"mc.self_ms_per_op", "ms"},
      {"serve.self_ms_per_op", "ms"},
      {"trace.ops_per_s", "1/s"},
      {"trace.overhead_pct", "%"},
      {"trace.layer_share", "ratio"}};
  return specs;
}

/// Span names recorded inside ops, and the metric (mean per call) each
/// feeds, with the divisor from nanoseconds to the metric's unit.
struct SpanMetric {
  const char* span;
  const char* metric;
  double ns_per_unit;
};
constexpr SpanMetric kOpSpanMetrics[] = {
    {"ftio.parse", "ftio.parse_ms", 1e6},
    {"core.compile", "core.compile_ms", 1e6},
    {"core.first_quantify", "core.first_quantify_ms", 1e6},
    {"core.engine_build", "core.engine_build_ms", 1e6},
    {"core.quantify", "core.quantify_us", 1e3},
    {"opt.solve", "opt.solve_ms", 1e6},
    {"fta.leaf_input", "fta.leaf_input_ms", 1e6},
    {"mc.quantify", "mc.quantify_ms", 1e6},
    {"serve.request", "serve.request_us", 1e3},
    {"serve.render", "serve.render_us", 1e3},
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<MetricSpec>& specs,
                  const std::map<std::string, double>& values) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto found = values.find(specs[i].name);
    out += std::string(i == 0 ? "" : ", ") + "\"" + specs[i].name +
           "\": {\"value\": " +
           json_number(found == values.end() ? 0.0 : found->second) +
           ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int run(const Options& options) {
  const std::string build_type(safeopt::build_info().build_type);
  if (build_type != "Release") {
    std::fprintf(stderr,
                 "perfbench: refusing a %s build; results are only "
                 "comparable between Release builds\n",
                 build_type.empty() ? "(no build type)" : build_type.c_str());
    return 3;
  }
  if (options.reference) {
    if (options.workload != "quantify_large") {
      usage("--reference is for quantify_large");
    }
    std::printf("{\"reference_probability\": \"%a\"}\n",
                perfbench::large_tier_reference(options.seed));
    return 0;
  }
  std::unique_ptr<Workload> workload = perfbench::make_workload(
      options.workload, options.seed, options.reference_probability);
  if (workload == nullptr) {
    usage(("unknown workload " + options.workload).c_str());
  }
  if (options.workload == "quantify_large" &&
      !(options.reference_probability > 0)) {
    usage("quantify_large needs --reference-probability");
  }
  std::printf("{\"host\": %s}\n", host_block(options).c_str());
  std::fflush(stdout);

  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t start = perfbench::now_ns();
    workload->setup();
    setup_s.push_back(static_cast<double>(perfbench::now_ns() - start) / 1e9);
  }

  const std::size_t clients = workload->clients();
  Tracer tracer(clients + 1);  // the last buffer holds the split calls
  const CpuAndRss before = process_usage();
  const LoopResult loop =
      run_loop(*workload, options.seconds, options.trace ? &tracer : nullptr);
  const CpuAndRss after = process_usage();

  const perfbench::Verification verification = workload->verify();
  std::vector<std::string> problems = verification.problems;
  if (!workload->corrupted_output_rejected()) {
    problems.emplace_back("self-test: a corrupted output passed the check");
  }
  const std::uint64_t failed = loop.failed + verification.failed_ops;

  std::map<std::string, double> values;
  if (!options.trace) {
    std::vector<double> sorted = loop.latency_ms;
    std::sort(sorted.begin(), sorted.end());
    const auto n = static_cast<double>(sorted.size());
    const double tail_p =
        std::min(kMaxTailPercentile,
                 std::max(50.0, 100.0 * (1.0 - kTailSamples / n)));
    values["setup_s"] = median(setup_s);
    values["ops_per_s"] = static_cast<double>(loop.attempted) / loop.wall_s;
    values["latency_p50_ms"] = percentile(sorted, 50);
    values["latency_tail_ms"] = tail_latency(loop.latency_ms, tail_p);
    values["cpu_ms_per_op"] = (after.cpu_s - before.cpu_s) * 1e3 /
                              static_cast<double>(loop.attempted);
    values["peak_rss_mb"] = after.max_rss_mb;
    values["success_rate"] =
        1.0 - static_cast<double>(failed) / static_cast<double>(loop.attempted);
    std::printf(
        "{\"summary\": {\"ops\": %" PRIu64 ", \"latency_samples\": %zu, "
        "\"tail_percentile\": %.4g, \"p90_ms\": %.6g, \"p95_ms\": %.6g, "
        "\"p99_ms\": %.6g, \"error_rate\": %.17g, \"setup_s\": "
        "[%.6f, %.6f, %.6f]}}\n",
        loop.attempted, sorted.size(), tail_p, percentile(sorted, 90),
        percentile(sorted, 95), percentile(sorted, 99),
        static_cast<double>(failed) / static_cast<double>(loop.attempted),
        setup_s[0], setup_s[1], setup_s[2]);
  } else {
    // Per-op layer metrics from the op spans (mean per call).
    const auto named = tracer.by_name(clients);
    for (const SpanMetric& metric : kOpSpanMetrics) {
      const auto found = named.find(metric.span);
      if (found != named.end()) {
        values[metric.metric] =
            found->second.total_ns / static_cast<double>(found->second.calls) /
            metric.ns_per_unit;
      }
    }
    // Split calls, repeated; the exact counters must agree across repeats.
    std::vector<LayerValues> repeats(kSplitRepeats);
    for (LayerValues& split : repeats) {
      workload->split_layers(tracer, clients, split);
    }
    for (const auto& [name, value] : repeats.back()) values[name] = value;
    for (const std::string& counter : perfbench::exact_counters()) {
      for (const LayerValues& split : repeats) {
        const auto found = split.find(counter);
        const auto first = repeats.front().find(counter);
        if (found == split.end() || first == repeats.front().end()) continue;
        if (found->second != first->second) {
          problems.push_back("determinism bug: " + counter + " read " +
                             json_number(first->second) + " then " +
                             json_number(found->second));
          break;
        }
      }
    }
    if (values.count("opt.solve_ms") && values["opt.evaluations"] > 0) {
      values["opt.us_per_eval"] =
          values["opt.solve_ms"] * 1e3 / values["opt.evaluations"];
    }
    if (values.count("mc.quantify_ms") && values["mc.trials"] > 0) {
      values["mc.us_per_trial"] =
          values["mc.quantify_ms"] * 1e3 / values["mc.trials"];
    }
    // Self time per layer over the traced ops (op buffers only).
    const auto ops = static_cast<double>(loop.traced_ops);
    double op_ns = 0;
    double layer_ns = 0;
    for (const auto& [layer, totals] : tracer.by_layer(clients)) {
      values[layer + ".self_ms_per_op"] = totals.self_ns / ops / 1e6;
      op_ns += totals.self_ns;
      if (layer != "bench") layer_ns += totals.self_ns;
    }
    values["trace.layer_share"] = op_ns > 0 ? layer_ns / op_ns : 0;
    const double traced_rate =
        static_cast<double>(loop.traced_ops) / loop.traced_s;
    const double untraced_rate =
        static_cast<double>(loop.untraced_ops) / loop.untraced_s;
    values["trace.ops_per_s"] = traced_rate * static_cast<double>(clients);
    values["trace.overhead_pct"] =
        100.0 * (untraced_rate - traced_rate) / untraced_rate;

    LayerValues counters;
    for (const std::string& counter : perfbench::exact_counters()) {
      counters[counter] = values.count(counter) ? values[counter] : 0.0;
    }
    std::string line = "{\"counters\": {";
    for (const auto& [name, value] : counters) {
      line += (line.back() == '{' ? "\"" : ", \"") + name +
              "\": " + json_number(value);
    }
    std::printf("%s}}\n", line.c_str());
    if (!options.trace_out.empty() &&
        !tracer.write_chrome_trace(options.trace_out, host_block(options),
                                   kMaxTraceEvents)) {
      problems.push_back("cannot write " + options.trace_out);
    }
  }

  for (const std::string& problem : problems) {
    std::fprintf(stderr, "perfbench: %s\n", problem.c_str());
  }
  print_result(problems.empty() && failed == 0, loop.attempted, failed,
               options.trace ? layer_metrics() : end_to_end_metrics(), values);
  return 0;
}

}  // namespace

/// Touches the top of the main thread's stack once, so the stack's page
/// faults (whose count shifts with the randomized stack offset) land here
/// and not in the ops whose minor faults are counted.
[[gnu::noinline]] void prefault_stack() {
  volatile char pages[2u << 20];
  for (std::size_t i = 0; i < sizeof(pages); i += 4096) pages[i] = 0;
}

/// Re-executes the binary once with address-space randomization off: a
/// randomized layout shifts the page-fault count of an op by one now and
/// then, and proc.minflt_per_op must repeat exactly for one seed. Runs on
/// with the randomized layout when the personality cannot be changed.
void fix_address_layout(char** argv) {
  const int current = personality(0xffffffff);
  if (current == -1 || (current & ADDR_NO_RANDOMIZE) != 0) return;
  if (personality(static_cast<unsigned long>(current) | ADDR_NO_RANDOMIZE) ==
      -1) {
    return;
  }
  execv(argv[0], argv);
}

int main(int argc, char** argv) {
  fix_address_layout(argv);
  prefault_stack();
  try {
    return run(parse_options(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
