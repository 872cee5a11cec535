// safeopt — drive the whole optimization pipeline from the shell.
//
//   safeopt validate <model.ft> [options]     parse + semantic summary
//   safeopt quantify <model.ft> [options]     quantify hazards at a point
//   safeopt run      <model.ft> [options]     optimize, report the optimum
//   safeopt serve    [options]                multi-tenant HTTP service
//   safeopt backends [--json]                 evaluation backends + dispatch
//   safeopt --version                         build identity, one line
//
// The --json schemas are rendered by serve/response_json.h — the same
// renderer the HTTP service uses, so `safeopt quantify --json` and
// POST /v1/quantify produce byte-identical documents.
//
// Options (validate/run/quantify; validate checks them as run would):
//   --solver NAME     override the document's solver (registry name)
//   --engine NAME     override the document's engine (fta | bdd | mc | ...)
//   --extra K=V       solver extra (repeatable; e.g. --extra starts=16)
//   --engine-opt K=V  engine option (repeatable; e.g. --engine-opt tilt=25),
//                     layered on top of the document's engine section
//   --seed N          solver seed (shorthand for a reserved extra)
//   --at NAME=VALUE   evaluation point (repeatable; quantify defaults to
//                     the box center, run evaluates at the found optimum)
//   --json            machine-readable output on stdout
//
// Every engine × solver × model combination the registries know is
// reachable from here; models are files, not binaries (docs/model_format.md).
//
// Exit codes (scriptable failure triage, see docs/robustness.md):
//   0  success
//   2  usage / parse error (bad arguments, or the model failed to parse)
//   3  validation error (the model parsed but is structurally wrong, or a
//      selection/option is invalid)
//   4  resource budget, deadline, or cancellation aborted the run
//   5  internal error
// With --json, failures also emit {"error": {"category", "message"}} on
// stdout so machine consumers need not scrape stderr.
#include <atomic>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "safeopt/core/quantification_engine.h"
#include "safeopt/core/study.h"
#include "safeopt/expr/eval_backend.h"
#include "safeopt/ftio/parser.h"
#include "safeopt/ftio/study_document.h"
#include "safeopt/serve/analysis_graph.h"
#include "safeopt/serve/response_json.h"
#include "safeopt/serve/server.h"
#include "safeopt/support/build_info.h"
#include "safeopt/support/error.h"
#include "safeopt/support/json.h"
#include "safeopt/support/options.h"
#include "safeopt/support/strings.h"

namespace {

using namespace safeopt;

/// The inherited --solver/--extra/--seed/--engine/--engine-opt overrides
/// layer on the document's selections inside core::Study::from_document;
/// `model` is the document path and `at` the --at point, as in an HTTP
/// request's options.
struct Options : serve::AnalysisOptions {
  std::string command;
  std::optional<std::string> backend;
  bool json = false;
  /// The raw --at arguments, typed into `at` by type_evaluation_point.
  std::vector<std::string> at_arguments;
};

/// Types the --at NAME=VALUE arguments into `options.at` with the one
/// KEY=VALUE rule of --extra and --engine-opt (parse_key_value_argument),
/// requiring a number. Like those, a bad value is a validation error.
void type_evaluation_point(Options& options) {
  for (const std::string& argument : options.at_arguments) {
    const KeyValueArgument at = parse_key_value_argument(argument, "--at");
    if (!at.number.has_value()) {
      throw std::invalid_argument(concat(
          "--at \"", at.key, "\" must be numeric, got \"", at.text, "\""));
    }
    options.at.emplace_back(std::string(at.key), *at.number);
  }
}

int usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "safeopt: %s\n\n", error);
  std::fprintf(
      stderr,
      "usage: safeopt <command> <model.ft> [options]\n"
      "\n"
      "commands:\n"
      "  validate   check the model and the options as run would\n"
      "  quantify   quantify every hazard at a parameter point\n"
      "  run        minimize the cost function, report the optimum\n"
      "  serve      multi-tenant quantification service (docs/service.md)\n"
      "  backends   list evaluation backends and the dispatch pick "
      "(no model)\n"
      "\n"
      "serve options:\n"
      "  --port N --threads N --cache-mb N --max-queue N --max-concurrent N\n"
      "  --tenant-weight NAME=W --max-tenants N --default-deadline-ms N\n"
      "  --max-requests N\n"
      "\n"
      "options:\n"
      "  --solver NAME     solver registry name (overrides the document)\n"
      "  --engine NAME     quantification engine (overrides the document)\n"
      "  --backend NAME    compiled-tape evaluation backend override\n"
      "                    (see `safeopt backends`; unavailable backends\n"
      "                    degrade to the best available with a note)\n"
      "  --extra K=V       solver extra, repeatable (e.g. starts=16)\n"
      "  --engine-opt K=V  engine option, repeatable (e.g. tilt=25)\n"
      "  --seed N          solver seed\n"
      "  --at NAME=VALUE   evaluation point component, repeatable\n"
      "  --json            machine-readable output\n"
      "\n"
      "engine options (--engine-opt, one typed schema for documents and "
      "CLI):\n");
  for (const OptionSpec& row : core::engine_option_docs()) {
    std::fprintf(stderr, "  %-18s %-6s %s\n", std::string(row.name).c_str(),
                 std::string(kind_name(row.kind)).c_str(),
                 std::string(row.doc).c_str());
  }
  // One declared table per solver: what a document's solver section,
  // --extra and a request's extras accept (unknown keys are refused).
  const auto print_options = [](std::span<const OptionSpec> rows) {
    for (const OptionSpec& row : rows) {
      std::fprintf(stderr, "    %-22s %s; %s\n",
                   std::string(row.name).c_str(),
                   describe_option(row).c_str(), std::string(row.doc).c_str());
    }
  };
  std::fprintf(stderr,
               "\nsolver options (--extra, one declared table per solver):\n"
               "  every solver:\n");
  print_options(opt::reserved_solver_options());
  for (const std::string& name : opt::SolverRegistry::available()) {
    const opt::SolverTraits traits =
        opt::SolverRegistry::create(name)->traits();
    if (traits.options.empty()) continue;
    std::fprintf(stderr, "  %s:\n", name.c_str());
    print_options(traits.options);
  }
  return 2;
}

std::optional<Options> parse_arguments(int argc, char** argv) {
  if (argc < 3) return std::nullopt;
  Options options;
  options.command = argv[1];
  options.model = argv[2];
  for (int i = 3; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        throw std::invalid_argument(concat(arg, " expects a value"));
      }
      return argv[++i];
    };
    if (arg == "--solver") {
      options.solver = value();
    } else if (arg == "--engine") {
      options.engine = value();
    } else if (arg == "--backend") {
      options.backend = value();
    } else if (arg == "--extra") {
      options.extras.emplace_back(value());
    } else if (arg == "--engine-opt") {
      options.engine_options.emplace_back(value());
    } else if (arg == "--seed") {
      // std::from_chars, not strtoull: strtoull silently negates "-1" and
      // clamps overflow to ULLONG_MAX, so the reported-reproducible seed
      // would not be the one the user passed.
      const std::string_view text = value();
      std::uint64_t seed = 0;
      const auto [end, ec] =
          std::from_chars(text.data(), text.data() + text.size(), seed);
      if (ec != std::errc{} || end != text.data() + text.size()) {
        throw std::invalid_argument(
            concat("--seed expects a non-negative 64-bit integer, got \"",
                   text, "\""));
      }
      options.seed = seed;
    } else if (arg == "--at") {
      options.at_arguments.emplace_back(value());
    } else if (arg == "--json") {
      options.json = true;
    } else {
      throw std::invalid_argument(concat("unknown option \"", arg, "\""));
    }
  }
  return options;
}

// JSON output comes from the shared serve renderers (byte-identical to the
// HTTP service); this prints the human-readable form only.
using HazardResults = serve::HazardResults;

void print_hazard_results_text(const HazardResults& results,
                               std::string_view engine_name) {
  for (const auto& [hazard, result] : results) {
    // Estimator diagnostics are reported uniformly for every sampled
    // engine: trials drawn, the achieved 95% CI half-width, the effective
    // sample size (== trials unless importance-sampled), and — for
    // adaptive engines — whether the target precision was reached.
    std::printf("  P(%s) = %.6e", hazard.c_str(), result.probability);
    if (result.ci95.has_value()) {
      std::printf("   95%% CI [%.6e, %.6e] (±%.2e), %" PRIu64 " trials",
                  result.ci95->lo, result.ci95->hi, result.halfwidth(),
                  result.trials);
      if (result.ess.has_value()) {
        std::printf(", ESS %.3g", *result.ess);
      }
      if (result.aborted.value_or(false)) {
        std::printf(" [aborted]");
      } else if (result.converged.has_value() && !*result.converged) {
        std::printf(" [budget exhausted]");
      }
    }
    std::printf("   (engine %s)\n", std::string(engine_name).c_str());
    for (const std::string& diagnostic : result.diagnostics) {
      std::printf("    note: %s\n", diagnostic.c_str());
    }
    if (result.preprocess.has_value()) {
      const core::PreprocessSummary& pre = *result.preprocess;
      std::printf("    preprocessed: %zu module(s), %zu -> %zu events, "
                  "%zu -> %zu gates, passes:",
                  pre.modules, pre.events_before, pre.events_after,
                  pre.gates_before, pre.gates_after);
      for (const std::string& pass : pre.passes) {
        std::printf(" %s", pass.c_str());
      }
      std::printf("\n");
    }
  }
}

HazardResults quantify_hazards(const core::Study& study,
                               const ftio::StudyDocument& doc,
                               const expr::ParameterAssignment& at) {
  HazardResults results;
  for (const ftio::HazardDecl& hazard : doc.hazards) {
    results.emplace_back(hazard.tree, study.quantify(hazard.tree, at));
  }
  return results;
}

/// Quantification for a constant (parameter-less, v1-style) model: no
/// Study, just the engines on the numeric leaf probabilities.
int quantify_constant_model(const ftio::StudyDocument& doc,
                            const Options& options) {
  serve::check_constant_model_options(options);
  const serve::ConstantQuantification outcome =
      serve::quantify_constant_model(doc, options);
  if (options.json) {
    std::fputs(serve::render_constant_quantify_response(
                   doc.source, outcome.engine_name, outcome.results,
                   outcome.cost)
                   .c_str(),
               stdout);
  } else {
    std::printf("%s (constant model):\n",
                doc.source.empty() ? "<memory>" : doc.source.c_str());
    print_hazard_results_text(outcome.results, outcome.engine_name);
    std::printf("  expected cost = %.6e\n", outcome.cost);
  }
  return 0;
}

int run_validate(const ftio::StudyDocument& doc, const Options& options) {
  // Structural validation beyond the parser's own checks — the problems
  // list is serve::validate_problems, shared with POST /v1/validate. The
  // assembly checks it runs mean a validated parameterized model cannot
  // fail to load in `safeopt run`. A constant model (no params) is valid
  // for `quantify` only; that limitation is a note here, not a failure.
  const std::vector<std::string> problems =
      serve::validate_problems(doc, options);
  std::vector<std::string> notes;
  if (doc.parameters.empty() && !doc.hazards.empty()) {
    try {
      (void)core::document_solver_selection(doc);
      (void)core::document_engine_selection(doc, options);
      notes.emplace_back(
          "constant model (no `param` declarations): `safeopt quantify` "
          "works, `safeopt run` needs free parameters");
    } catch (const std::invalid_argument&) {
      // Already reported through validate_problems.
    }
  }
  if (options.json) {
    std::fputs(serve::render_validate_response(doc.source,
                                               doc.parameters.size(),
                                               doc.trees.size(),
                                               doc.hazards.size(), problems)
                   .c_str(),
               stdout);
  } else {
    std::printf("%s: %zu parameter(s), %zu tree(s), %zu hazard(s)\n",
                doc.source.empty() ? "<memory>" : doc.source.c_str(),
                doc.parameters.size(), doc.trees.size(), doc.hazards.size());
    for (const ftio::ParameterDecl& parameter : doc.parameters) {
      std::printf("  param %s in [%g, %g]%s%s\n", parameter.name.c_str(),
                  parameter.lower, parameter.upper,
                  parameter.unit.empty() ? "" : " ",
                  parameter.unit.c_str());
    }
    for (const ftio::TreeModel& model : doc.trees) {
      std::printf("  tree %s: %zu nodes\n", model.tree.name().c_str(),
                  model.tree.node_count());
    }
    for (const ftio::HazardDecl& hazard : doc.hazards) {
      std::printf("  hazard %s cost = %g\n", hazard.tree.c_str(),
                  hazard.cost);
    }
    if (doc.solver.has_value()) {
      std::printf("  solver %s\n", doc.solver->name.c_str());
    }
    if (doc.engine.has_value()) {
      std::printf("  engine %s\n", doc.engine->name.c_str());
    }
    for (const std::string& note : notes) {
      std::printf("  note: %s\n", note.c_str());
    }
    for (const std::string& problem : problems) {
      std::printf("  PROBLEM: %s\n", problem.c_str());
    }
    std::printf(problems.empty() ? "OK\n" : "INVALID\n");
  }
  return problems.empty() ? 0 : 3;  // 3 = validation failure, like main()
}

int run_quantify(const ftio::StudyDocument& doc, const Options& options) {
  if (doc.hazards.empty()) {
    throw std::invalid_argument(
        "document declares no hazards; nothing to quantify");
  }
  if (doc.parameters.empty()) return quantify_constant_model(doc, options);
  const core::Study study = core::Study::from_document(doc, options);
  const expr::ParameterAssignment at =
      study.space().evaluation_point(options.at);
  const auto evaluation = study.evaluate_at(at);
  const HazardResults results = quantify_hazards(study, doc, at);
  if (options.json) {
    std::fputs(serve::render_quantify_response(doc.source,
                                               study.engine_name(), at,
                                               results, evaluation.cost)
                   .c_str(),
               stdout);
  } else {
    std::printf("%s at", doc.source.empty() ? "<memory>" : doc.source.c_str());
    for (const auto& [name, value] : at.entries()) {
      std::printf(" %s=%g", name.c_str(), value);
    }
    std::printf(":\n");
    print_hazard_results_text(results, study.engine_name());
    std::printf("  f_cost = %.6e\n", evaluation.cost);
  }
  return 0;
}

int run_optimize(const ftio::StudyDocument& doc, const Options& options) {
  const core::Study study = core::Study::from_document(doc, options);
  const auto result = study.run();
  const expr::ParameterAssignment& optimum = result.optimal_parameters;
  if (options.json) {
    std::fputs(serve::render_optimize_response(
                   doc.source, study.solver_name(), study.engine_name(),
                   result.optimization.converged,
                   result.optimization.evaluations, optimum,
                   quantify_hazards(study, doc, optimum), result.cost)
                   .c_str(),
               stdout);
  } else {
    std::printf("model  %s\n",
                doc.source.empty() ? "<memory>" : doc.source.c_str());
    std::printf("solver %s   engine %s\n", study.solver_name().c_str(),
                study.engine_name().c_str());
    std::printf("optimum:");
    for (const auto& [name, value] : optimum.entries()) {
      std::printf("  %s = %.6f", name.c_str(), value);
    }
    std::printf("\n");
    std::printf("f_cost = %.10g  (%s after %zu evaluations)\n", result.cost,
                result.optimization.converged ? "converged" : "budget hit",
                result.optimization.evaluations);
    print_hazard_results_text(quantify_hazards(study, doc, optimum),
                              study.engine_name());
  }
  return 0;
}

/// The batch backend is chosen once per process (BackendRegistry::resolve):
/// a --backend or SAFEOPT_BACKEND naming an unknown or unavailable backend
/// degrades to the best available one, and this is its one report.
void report_backend_degradation() {
  const std::string note = expr::BackendRegistry::resolve({}).diagnostic;
  if (!note.empty()) std::fprintf(stderr, "safeopt: note: %s\n", note.c_str());
}

// ----------------------------------------------------------------- serve

volatile std::sig_atomic_t g_stop_requested = 0;

void handle_stop_signal(int) { g_stop_requested = 1; }

/// `safeopt serve`: bind, announce the port on stdout (scripts parse this
/// line), then run until SIGINT/SIGTERM or --max-requests connections.
int run_serve(int argc, char** argv) {
  serve::ServerOptions options;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        throw std::invalid_argument(concat(arg, " expects a value"));
      }
      return argv[++i];
    };
    const auto numeric = [&](std::uint64_t& out) {
      const std::string_view text = value();
      const auto [end, ec] =
          std::from_chars(text.data(), text.data() + text.size(), out);
      if (ec != std::errc{} || end != text.data() + text.size()) {
        throw std::invalid_argument(
            concat(arg, " expects a non-negative integer, got \"", text,
                   "\""));
      }
    };
    std::uint64_t number = 0;
    if (arg == "--port") {
      numeric(number);
      if (number > 65535) {
        throw std::invalid_argument("--port must be <= 65535");
      }
      options.port = static_cast<std::uint16_t>(number);
    } else if (arg == "--threads") {
      numeric(number);
      options.threads = static_cast<std::size_t>(number);
    } else if (arg == "--cache-mb") {
      numeric(number);
      options.cache_bytes = static_cast<std::size_t>(number) * 1024 * 1024;
    } else if (arg == "--max-queue") {
      numeric(number);
      options.max_queue = static_cast<std::size_t>(number);
    } else if (arg == "--max-concurrent") {
      numeric(number);
      options.max_concurrent = static_cast<std::size_t>(number);
    } else if (arg == "--max-tenants") {
      numeric(number);
      options.max_tenants = static_cast<std::size_t>(number);
    } else if (arg == "--default-deadline-ms") {
      numeric(number);
      options.default_deadline_ms = number;
    } else if (arg == "--max-requests") {
      numeric(number);
      options.max_requests = number;
    } else if (arg == "--tenant-weight") {
      const KeyValueArgument weight =
          parse_key_value_argument(value(), "--tenant-weight");
      if (!weight.number.has_value() || !std::isfinite(*weight.number) ||
          !(*weight.number > 0)) {
        throw std::invalid_argument(
            concat("--tenant-weight \"", weight.key,
                   "\" must be a finite number > 0, got \"", weight.text,
                   "\""));
      }
      options.tenant_weights.emplace_back(std::string(weight.key),
                                          *weight.number);
    } else {
      throw std::invalid_argument(concat("unknown serve option \"", arg,
                                         "\""));
    }
  }
  report_backend_degradation();
  serve::Server server(options);
  server.start();
  std::printf("safeopt serve listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  while (g_stop_requested == 0 && !server.finished()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.stop();
  const serve::ServerStats stats = server.stats();
  std::fprintf(stderr,
               "safeopt serve: %" PRIu64 " accepted, %" PRIu64 " ok, %" PRIu64
               " shed, %" PRIu64 " deadline, %" PRIu64 " cancelled\n",
               stats.accepted, stats.ok, stats.shed, stats.deadline,
               stats.cancelled);
  return 0;
}

// -------------------------------------------------------------- backends

/// `safeopt backends`: the registered evaluation backends, their hardware
/// availability, and which one runtime dispatch picks on this machine.
/// No model needed — this is a host-capability probe, like --version.
int run_backends(int argc, char** argv) {
  bool json = false;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else {
      throw std::invalid_argument(
          concat("unknown backends option \"", arg, "\""));
    }
  }
  const expr::EvalBackend& active = expr::BackendRegistry::active();
  // Probe the small power-of-two range the lane kernels use; anything a
  // backend supports outside it would be a registry contract violation.
  constexpr std::size_t kProbeWidths[] = {2, 4, 8, 16, 32};
  if (json) {
    JsonValue backends = JsonValue::array();
    for (const std::string& name : expr::BackendRegistry::registered()) {
      const expr::EvalBackend* backend = expr::BackendRegistry::find(name);
      JsonValue entry = JsonValue::object();
      entry.set("name", JsonValue::string(name));
      entry.set("available", JsonValue::boolean(backend->available()));
      entry.set("priority",
                JsonValue::number(static_cast<double>(backend->priority())));
      entry.set("default_lane_width",
                JsonValue::number(
                    static_cast<double>(backend->default_lane_width())));
      JsonValue widths = JsonValue::array();
      for (const std::size_t width : kProbeWidths) {
        if (backend->supports_lane_width(width)) {
          widths.push_back(JsonValue::number(static_cast<double>(width)));
        }
      }
      entry.set("lane_widths", std::move(widths));
      backends.push_back(std::move(entry));
    }
    JsonValue root = JsonValue::object();
    root.set("backends", std::move(backends));
    root.set("active", JsonValue::string(std::string(active.name())));
    const char* env = std::getenv("SAFEOPT_BACKEND");
    root.set("env_override",
             JsonValue::string(env != nullptr ? env : ""));
    std::printf("%s\n", root.dump().c_str());
  } else {
    for (const std::string& name : expr::BackendRegistry::registered()) {
      const expr::EvalBackend* backend = expr::BackendRegistry::find(name);
      std::string widths;
      for (const std::size_t width : kProbeWidths) {
        if (!backend->supports_lane_width(width)) continue;
        if (!widths.empty()) widths += ",";
        widths += std::to_string(width);
      }
      std::printf("%-10s %-13s priority %d  lanes %s (default %zu)%s\n",
                  name.c_str(),
                  backend->available() ? "available" : "unavailable",
                  backend->priority(), widths.c_str(),
                  backend->default_lane_width(),
                  backend == &active ? "  [active]" : "");
    }
  }
  return 0;
}

/// Reports one failure on stderr (and, with --json, as a structured error
/// object on stdout) and returns the exit code to use.
int report_error(bool json, std::string_view category,
                 const std::string& message, int code) {
  if (json) {
    std::fputs(serve::render_error_response(category, message).c_str(),
               stdout);
  }
  std::fprintf(stderr, "safeopt: %s\n", message.c_str());
  return code;
}

/// Exit code for a safeopt::Error by category (see the header comment).
int exit_code_for(ErrorCategory category) noexcept {
  switch (category) {
    case ErrorCategory::kInvalidInput:
      return 3;
    case ErrorCategory::kResourceExhausted:
    case ErrorCategory::kDeadlineExceeded:
    case ErrorCategory::kCancelled:
      return 4;
    case ErrorCategory::kInternal:
      return 5;
  }
  return 5;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && (std::strcmp(argv[1], "--version") == 0 ||
                    std::strcmp(argv[1], "version") == 0)) {
    std::printf("%s\n", build_info_string().c_str());
    return 0;
  }
  if (argc >= 2 && std::strcmp(argv[1], "backends") == 0) {
    try {
      return run_backends(argc, argv);
    } catch (const std::invalid_argument& error) {
      return usage(error.what());
    }
  }
  if (argc >= 2 && std::strcmp(argv[1], "serve") == 0) {
    try {
      return run_serve(argc, argv);
    } catch (const std::invalid_argument& error) {
      return usage(error.what());
    } catch (const Error& error) {
      std::fprintf(stderr, "safeopt serve: %s\n", error.what());
      return exit_code_for(error.category());
    }
  }
  std::optional<Options> options;
  try {
    options = parse_arguments(argc, argv);
  } catch (const std::invalid_argument& error) {
    return usage(error.what());
  }
  if (!options.has_value()) return usage();
  if (options->command != "validate" && options->command != "quantify" &&
      options->command != "run") {
    return usage(concat("unknown command \"", options->command, "\"").c_str());
  }
  try {
    if (options->backend.has_value()) {
      // A process-wide override, one layer below an explicit per-request
      // backend and one above SAFEOPT_BACKEND (see BackendRegistry::
      // resolve). Unknown/unavailable names degrade rather than failing
      // the run.
      expr::BackendRegistry::set_override(*options->backend);
    }
    report_backend_degradation();
    type_evaluation_point(*options);
    const ftio::StudyDocument doc = ftio::load_study(options->model);
    if (options->command == "validate") {
      return run_validate(doc, *options);
    }
    if (options->command == "quantify") {
      return run_quantify(doc, *options);
    }
    return run_optimize(doc, *options);
  } catch (const ftio::ParseError& error) {
    if (options->json) {
      std::fputs(
          serve::render_error_response("invalid_input", error.what()).c_str(),
          stdout);
    }
    // Verbatim on stderr: the message already leads with file:line:column.
    std::fprintf(stderr, "%s\n", error.what());
    return 2;
  } catch (const Error& error) {
    return report_error(options->json, category_name(error.category()),
                        error.what(), exit_code_for(error.category()));
  } catch (const std::invalid_argument& error) {
    return report_error(options->json, "invalid_input", error.what(), 3);
  } catch (const std::exception& error) {
    return report_error(options->json, "internal", error.what(), 5);
  }
}
