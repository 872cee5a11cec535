// The four workloads. Each op makes the calls the CLI (`safeopt run`,
// `safeopt quantify`) or the service (`AnalysisGraph::quantify`) makes, in
// the same order, with a span around every call into a layer.
#include <sys/resource.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <utility>

#include "generate.h"
#include "safeopt/core/quantification_engine.h"
#include "safeopt/core/study.h"
#include "safeopt/fta/cut_sets.h"
#include "safeopt/ftio/study_document.h"
#include "safeopt/prep/preprocess.h"
#include "safeopt/serve/analysis_graph.h"
#include "safeopt/serve/response_json.h"
#include "safeopt/support/json.h"
#include "safeopt/support/rng.h"
#include "safeopt/support/strings.h"
#include "workload.h"

namespace perfbench {
namespace {

using safeopt::concat;
namespace core = safeopt::core;
namespace ftio = safeopt::ftio;
namespace serve = safeopt::serve;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Runs `call` inside a span and returns its duration in nanoseconds.
template <class Call>
double timed(Tracer& tracer, std::size_t client, const char* name,
             Call&& call) {
  const std::int64_t start = now_ns();
  {
    const ScopedSpan span(&tracer, client, name, 0);
    call();
  }
  return static_cast<double>(now_ns() - start);
}

std::uint64_t minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_minflt);
}

/// The box centre, as the CLI and the service build it.
safeopt::expr::ParameterAssignment centre_of(const core::Study& study) {
  safeopt::expr::ParameterAssignment at;
  for (std::size_t i = 0; i < study.space().size(); ++i) {
    const auto& parameter = study.space()[i];
    at.set(parameter.name, 0.5 * (parameter.lower + parameter.upper));
  }
  return at;
}

/// A seeded point inside the box of `study` (the generated studies all use
/// one box per parameter).
std::vector<double> point_in_box(const core::Study& study,
                                 std::uint64_t seed) {
  safeopt::Rng rng(seed);
  std::vector<double> point;
  for (std::size_t i = 0; i < study.space().size(); ++i) {
    const auto& parameter = study.space()[i];
    point.push_back(safeopt::uniform(rng, parameter.lower, parameter.upper));
  }
  return point;
}

/// Times the study's compiled cost tape on a seeded batch (the batched path
/// the grid and population solvers use) and returns ns per evaluation.
double batch_ns_per_eval(Tracer& tracer, std::size_t client,
                         const core::Study& study, std::uint64_t seed) {
  constexpr std::size_t kBatch = 4096;
  const safeopt::opt::Problem& problem = study.problem();
  std::vector<double> points;
  for (std::size_t row = 0; row < kBatch; ++row) {
    const std::vector<double> point = point_in_box(study, mix_seed(seed, row));
    points.insert(points.end(), point.begin(), point.end());
  }
  std::vector<double> values(kBatch);
  const double ns = timed(tracer, client, "expr.batch", [&] {
    problem.evaluate_batch(points, values);
  });
  return ns / static_cast<double>(kBatch);
}

/// Mean warm Study::quantify time over seeded points, in microseconds.
double warm_quantify_us(Tracer& tracer, std::size_t client,
                        const core::Study& study,
                        const ftio::StudyDocument& doc) {
  constexpr std::uint64_t kPoints = 64;
  const auto centre = centre_of(study);
  for (const ftio::HazardDecl& hazard : doc.hazards) {
    (void)study.quantify(hazard.tree, centre);  // builds the engines
  }
  double ns = 0;
  std::uint64_t calls = 0;
  for (std::uint64_t p = 0; p < kPoints; ++p) {
    const std::vector<double> point = point_in_box(study, mix_seed(~p, p));
    safeopt::expr::ParameterAssignment at;
    for (std::size_t i = 0; i < point.size(); ++i) {
      at.set(study.space()[i].name, point[i]);
    }
    for (const ftio::HazardDecl& hazard : doc.hazards) {
      ns += timed(tracer, client, "core.quantify",
                  [&] { (void)study.quantify(hazard.tree, at); });
      ++calls;
    }
  }
  return ns / static_cast<double>(calls) / 1e3;
}

/// Replaces the first `"<key>": <number>` in a rendered response by
/// `value`; the self-tests corrupt outputs with it.
std::string replace_number(std::string text, const std::string& key,
                           double value) {
  const std::string field = concat("\"", key, "\": ");
  const std::size_t at = text.find(field);
  if (at == std::string::npos) return text;
  const std::size_t begin = at + field.size();
  const std::size_t end = text.find_first_of(",}]\n", begin);
  char number[64];
  std::snprintf(number, sizeof(number), "%.17g", value);
  return text.replace(begin, end - begin, number);
}

double number_field(const safeopt::JsonValue& object, std::string_view key) {
  const safeopt::JsonValue* value = object.find(key);
  if (value == nullptr || !value->is_number()) {
    throw std::runtime_error(concat("response lacks numeric \"", key, "\""));
  }
  return value->as_number();
}

void require_valid(const std::string& text, const char* what,
                   Verification& out) {
  for (const std::string& problem :
       serve::validate_problems(ftio::parse_study(text))) {
    out.problems.push_back(concat(what, ": ", problem));
  }
}

// ---------------------------------------------------------------- optimize

/// `safeopt run --json` on generated tradeoff studies: parse, compile,
/// solve, quantify each hazard at the optimum, render.
class OptimizeWorkload final : public Workload {
 public:
  explicit OptimizeWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    documents_.clear();
    for (std::size_t k = 0; k < kStudies; ++k) {
      documents_.push_back(make_study_document(mix_seed(seed_, k)));
    }
    evaluations_.assign(kStudies, 0);
    mismatches_.clear();
    outputs_.clear();
    for (std::uint64_t i = 0; i < kWarmupOps; ++i) (void)op(0, i, nullptr);
    outputs_.clear();
  }

  bool op(std::size_t client, std::uint64_t index, Tracer* tracer) override {
    const std::size_t which = index % documents_.size();
    const ScopedSpan root(tracer, client, "bench.op", index);
    std::optional<ftio::StudyDocument> doc;
    {
      const ScopedSpan span(tracer, client, "ftio.parse", index);
      doc.emplace(ftio::parse_study(documents_[which]));
    }
    std::optional<core::Study> study;
    {
      const ScopedSpan span(tracer, client, "core.compile", index);
      study.emplace(core::Study::from_document(*doc));
    }
    core::SafetyOptimizationResult result;
    {
      const ScopedSpan span(tracer, client, "opt.solve", index);
      result = study->run();
    }
    serve::HazardResults hazards;
    {
      const ScopedSpan span(tracer, client, "core.first_quantify", index);
      for (const ftio::HazardDecl& hazard : doc->hazards) {
        hazards.emplace_back(
            hazard.tree,
            study->quantify(hazard.tree, result.optimal_parameters));
      }
    }
    std::string response;
    {
      const ScopedSpan span(tracer, client, "serve.render", index);
      response = serve::render_optimize_response(
          doc->source, study->solver_name(), study->engine_name(),
          result.optimization.converged, result.optimization.evaluations,
          result.optimal_parameters, hazards, result.cost);
    }
    std::size_t& seen = evaluations_[which];
    if (seen == 0) {
      seen = result.optimization.evaluations;
    } else if (seen != result.optimization.evaluations) {
      mismatches_.push_back(concat("opt.evaluations on study ",
                                   std::to_string(which), ": ",
                                   std::to_string(seen), " then ",
                                   std::to_string(
                                       result.optimization.evaluations)));
    }
    outputs_.emplace_back(which, std::move(response));
    return true;
  }

  Verification verify() override {
    Verification out;
    for (const std::string& mismatch : mismatches_) {
      out.problems.push_back(concat("determinism bug: ", mismatch));
    }
    build_offline_studies();
    for (const auto& [which, response] : outputs_) {
      if (!output_ok(which, response)) ++out.failed_ops;
    }
    for (const std::string& text : documents_) {
      require_valid(text, "generated study", out);
      for (const ftio::TreeModel& model : ftio::parse_study(text).trees) {
        const std::size_t cut_sets =
            safeopt::fta::minimal_cut_sets(model.tree).size();
        if (cut_sets != study_cut_sets_per_tree()) {
          out.problems.push_back(concat("generated tree ", model.tree.name(),
                                        " has ", std::to_string(cut_sets),
                                        " cut sets"));
        }
      }
    }
    return out;
  }

  bool corrupted_output_rejected() override {
    build_offline_studies();
    if (outputs_.empty()) return false;
    const auto& [which, response] = outputs_.front();
    const double cost =
        number_field(safeopt::JsonValue::parse(response), "cost");
    return output_ok(which, response) &&
           !output_ok(which, replace_number(response, "cost",
                                            std::nextafter(cost, 1e300)));
  }

  void split_layers(Tracer& tracer, std::size_t client,
                    LayerValues& out) override {
    const ftio::StudyDocument doc = ftio::parse_study(documents_.front());
    core::Study study = core::Study::from_document(doc);
    double mcs_ns = 0;
    double build_ns = 0;
    double cut_sets = 0;
    for (const ftio::TreeModel& model : doc.trees) {
      mcs_ns += timed(tracer, client, "fta.mcs", [&] {
        cut_sets += static_cast<double>(
            safeopt::fta::minimal_cut_sets(model.tree).size());
      });
      build_ns += timed(tracer, client, "core.engine_build", [&] {
        (void)core::create_engine_with_fallback(
            study.engine_name(), model.tree, study.engine_config());
      });
    }
    const auto trees = static_cast<double>(doc.trees.size());
    out["fta.mcs_ms"] = mcs_ns / trees / 1e6;
    out["fta.cut_sets"] = cut_sets / trees;
    out["core.engine_build_ms"] = build_ns / trees / 1e6;
    out["expr.batch_ns_per_eval"] =
        batch_ns_per_eval(tracer, client, study, seed_);
    out["core.quantify_us"] = warm_quantify_us(tracer, client, study, doc);
    // Mean over the studies the loop solved (all eight in any full run).
    double evaluations = 0;
    double solved = 0;
    for (const std::size_t count : evaluations_) {
      evaluations += static_cast<double>(count);
      solved += count > 0 ? 1 : 0;
    }
    out["opt.evaluations"] = solved > 0 ? evaluations / solved : 0;
  }

 private:
  static constexpr std::size_t kStudies = 8;
  static constexpr std::uint64_t kWarmupOps = 2;

  void build_offline_studies() {
    if (!offline_.empty()) return;
    for (const std::string& text : documents_) {
      core::Study study = core::Study::from_document(ftio::parse_study(text));
      const double centre_cost = study.evaluate_at(centre_of(study)).cost;
      offline_.emplace_back(std::move(study), centre_cost);
    }
  }

  /// The reported cost is the cost at the reported optimum, bit for bit,
  /// and no worse than the box centre; every probability is in [0, 1].
  bool output_ok(std::size_t which, const std::string& response) const {
    try {
      const safeopt::JsonValue json = safeopt::JsonValue::parse(response);
      const auto& [study, centre_cost] = offline_[which];
      safeopt::expr::ParameterAssignment optimum;
      for (const auto& [name, value] : json.find("optimum")->members()) {
        optimum.set(name, value.as_number());
      }
      const double cost = number_field(json, "cost");
      if (!same_bits(cost, study.evaluate_at(optimum).cost)) return false;
      if (!(cost <= centre_cost)) return false;
      for (const safeopt::JsonValue& hazard : json.find("hazards")->items()) {
        const double p = number_field(hazard, "probability");
        if (!(p >= 0.0 && p <= 1.0)) return false;
      }
      return json.find("hazards")->items().size() == 2;
    } catch (const std::exception&) {
      return false;
    }
  }

  std::uint64_t seed_;
  std::vector<std::string> documents_;
  std::vector<std::size_t> evaluations_;
  std::vector<std::string> mismatches_;
  std::vector<std::pair<std::size_t, std::string>> outputs_;
  std::vector<std::pair<core::Study, double>> offline_;
};

// ---------------------------------------------------------- quantify_large

/// `safeopt quantify --json` on the 10k-event corpus tier: parse, leaf
/// inputs, engine build (prep + modular BDD), quantify, render.
class QuantifyLargeWorkload final : public Workload {
 public:
  QuantifyLargeWorkload(std::uint64_t seed, double reference)
      : seed_(seed), reference_(reference) {}

  void setup() override {
    text_ = make_large_tier_document(seed_);
    first_.reset();
    response_.clear();
    const std::uint64_t before = minor_faults();
    (void)op(0, 0, nullptr);
    // The first op of the process pays the page faults a one-shot
    // `safeopt quantify` pays; later ops reuse the allocator's pages.
    if (!cold_op_faults_.has_value()) {
      cold_op_faults_ = minor_faults() - before;
    }
  }

  bool op(std::size_t client, std::uint64_t index, Tracer* tracer) override {
    const ScopedSpan root(tracer, client, "bench.op", index);
    std::optional<ftio::StudyDocument> doc;
    {
      const ScopedSpan span(tracer, client, "ftio.parse", index);
      doc.emplace(ftio::parse_study(text_));
    }
    const ftio::HazardDecl& hazard = doc->hazards.front();
    const ftio::TreeModel& model = *doc->find_tree(hazard.tree);
    auto [engine_name, engine_config] = core::document_engine_selection(*doc);
    std::optional<safeopt::fta::QuantificationInput> input;
    {
      const ScopedSpan span(tracer, client, "fta.leaf_input", index);
      input.emplace(
          safeopt::fta::QuantificationInput::for_tree(model.tree, 0.0));
      for (const ftio::LeafProbability& leaf : model.leaves) {
        input->set(model.tree, leaf.name, leaf.probability.evaluate({}));
      }
    }
    std::string degradation;
    std::unique_ptr<core::QuantificationEngine> engine;
    {
      const ScopedSpan span(tracer, client, "core.engine_build", index);
      engine = core::create_engine_with_fallback(engine_name, model.tree,
                                                 engine_config, &degradation);
    }
    serve::HazardResults results;
    {
      const ScopedSpan span(tracer, client, "core.quantify", index);
      results.emplace_back(hazard.tree, engine->quantify(*input));
    }
    const double cost = hazard.cost * results.front().second.probability;
    std::string response;
    {
      const ScopedSpan span(tracer, client, "serve.render", index);
      response = serve::render_constant_quantify_response(
          doc->source, engine_name, results, cost);
    }
    if (!first_.has_value()) first_ = results.front().second.probability;
    const bool ok = degradation.empty() && response_ok(response);
    response_ = std::move(response);
    return ok;
  }

  Verification verify() override {
    Verification out;
    require_valid(text_, "generated 10k tier", out);
    return out;
  }

  bool corrupted_output_rejected() override {
    const double p = number_field(
        safeopt::JsonValue::parse(response_).find("hazards")->items().front(),
        "probability");
    return response_ok(response_) &&
           !response_ok(replace_number(response_, "probability",
                                       std::nextafter(p, 1.0)));
  }

  void split_layers(Tracer& tracer, std::size_t client,
                    LayerValues& out) override {
    const ftio::StudyDocument doc = ftio::parse_study(text_);
    const safeopt::fta::FaultTree& tree = doc.trees.front().tree;
    const auto [engine_name, config] = core::document_engine_selection(doc);
    safeopt::prep::PreprocessOptions options;
    options.modularize = config.modularize;
    options.module_min_leaves = config.module_min_leaves;
    std::optional<safeopt::prep::PreprocessedTree> preprocessed;
    out["prep.preprocess_ms"] =
        timed(tracer, client, "prep.preprocess", [&] {
          preprocessed.emplace(safeopt::prep::preprocess(tree, options));
        }) / 1e6;
    out["prep.modules"] =
        static_cast<double>(preprocessed->statistics.modules);
    out["prep.events_after"] =
        static_cast<double>(preprocessed->statistics.events_after);
    std::optional<safeopt::prep::CompiledPreprocessedTree> compiled;
    out["bdd.build_ms"] = timed(tracer, client, "bdd.build", [&] {
                            compiled.emplace(*preprocessed,
                                             config.bdd_options());
                          }) / 1e6;
    out["bdd.decision_nodes"] =
        static_cast<double>(compiled->compile_statistics().decision_nodes);
    out["bdd.ite_calls"] =
        static_cast<double>(compiled->compile_statistics().ite_calls);
    out["proc.minflt_per_op"] = static_cast<double>(*cold_op_faults_);
  }

 private:
  /// Bitwise the same probability on every op, and within 1e-12 relative
  /// of the plain-BDD reference.
  bool response_ok(const std::string& response) const {
    try {
      const safeopt::JsonValue json = safeopt::JsonValue::parse(response);
      const double p =
          number_field(json.find("hazards")->items().front(), "probability");
      return first_.has_value() && same_bits(p, *first_) &&
             std::abs(p - reference_) <= 1e-12 * std::abs(reference_);
    } catch (const std::exception&) {
      return false;
    }
  }

  std::uint64_t seed_;
  double reference_;
  std::string text_;
  std::optional<double> first_;
  std::optional<std::uint64_t> cold_op_faults_;
  std::string response_;
};

// ------------------------------------------------------------- quantify_mc

/// `safeopt quantify --json --engine-opt seed=<per op>` on a 1k-event tier
/// with a common top event: mc engine build, sampling, render.
class QuantifyMcWorkload final : public Workload {
 public:
  explicit QuantifyMcWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    text_ = make_sampling_tier_document(seed_, kMinProbability, kTrials,
                                        &exact_);
    doc_.emplace(ftio::parse_study(text_));
    auto [name, config] = core::document_engine_selection(*doc_);
    engine_name_ = name;
    config_ = config;
    const ftio::TreeModel& model = *doc_->find_tree(doc_->hazards[0].tree);
    input_.emplace(
        safeopt::fta::QuantificationInput::for_tree(model.tree, 0.0));
    for (const ftio::LeafProbability& leaf : model.leaves) {
      input_->set(model.tree, leaf.name, leaf.probability.evaluate({}));
    }
    covered_ = 0;
    checked_ = 0;
    (void)op(0, 0, nullptr);
    covered_ = 0;
    checked_ = 0;
  }

  bool op(std::size_t client, std::uint64_t index, Tracer* tracer) override {
    const ScopedSpan root(tracer, client, "bench.op", index);
    const ftio::HazardDecl& hazard = doc_->hazards.front();
    const ftio::TreeModel& model = *doc_->find_tree(hazard.tree);
    core::EngineConfig config = config_;
    config.seed = mix_seed(seed_, index);
    std::string degradation;
    std::unique_ptr<core::QuantificationEngine> engine;
    {
      const ScopedSpan span(tracer, client, "core.engine_build", index);
      engine = core::create_engine_with_fallback(engine_name_, model.tree,
                                                 config, &degradation);
    }
    serve::HazardResults results;
    {
      const ScopedSpan span(tracer, client, "mc.quantify", index);
      results.emplace_back(hazard.tree, engine->quantify(*input_));
    }
    const double cost = hazard.cost * results.front().second.probability;
    std::string response;
    {
      const ScopedSpan span(tracer, client, "serve.render", index);
      response = serve::render_constant_quantify_response(
          doc_->source, engine_name_, results, cost);
    }
    const auto& ci = results.front().second.ci95;
    ++checked_;
    if (ci.has_value() && ci->contains(exact_)) ++covered_;
    const bool ok = degradation.empty() && response_ok(response);
    response_ = std::move(response);
    return ok;
  }

  Verification verify() override {
    Verification out;
    require_valid(text_, "generated 1k tier", out);
    // A 95% interval misses the exact value about one op in twenty; flag a
    // miss count more than three binomial standard deviations above that.
    const double n = static_cast<double>(checked_);
    const double allowed = 0.05 * n + 3.0 * std::sqrt(0.05 * 0.95 * n) + 1.0;
    const double misses = n - static_cast<double>(covered_);
    if (misses > allowed) {
      out.problems.push_back(
          concat("mc 95% CI missed the exact P(top) ",
                 std::to_string(checked_ - covered_), " times in ",
                 std::to_string(checked_), " ops"));
    }
    return out;
  }

  bool corrupted_output_rejected() override {
    const safeopt::JsonValue hazard =
        safeopt::JsonValue::parse(response_).find("hazards")->items().front();
    const double hi = hazard.find("ci95")->items()[1].as_number();
    return response_ok(response_) &&
           !response_ok(replace_number(response_, "probability",
                                       std::nextafter(hi, 1.0)));
  }

  void split_layers(Tracer& tracer, std::size_t client,
                    LayerValues& out) override {
    out["ftio.parse_ms"] = timed(tracer, client, "ftio.parse", [&] {
                             (void)ftio::parse_study(text_);
                           }) / 1e6;
    out["mc.trials"] = static_cast<double>(kTrials);
  }

 private:
  static constexpr double kMinProbability = 1e-2;
  static constexpr std::uint64_t kTrials = 2000;

  /// A probability in [0, 1] inside its own interval, from the full trial
  /// budget.
  static bool response_ok(const std::string& response) {
    try {
      const safeopt::JsonValue hazard = safeopt::JsonValue::parse(response)
                                            .find("hazards")
                                            ->items()
                                            .front();
      const double p = number_field(hazard, "probability");
      const auto& ci = hazard.find("ci95")->items();
      return p >= 0.0 && p <= 1.0 && ci.size() == 2 &&
             ci[0].as_number() <= p && p <= ci[1].as_number() &&
             number_field(hazard, "trials") == static_cast<double>(kTrials);
    } catch (const std::exception&) {
      return false;
    }
  }

  std::uint64_t seed_;
  std::string text_;
  double exact_ = 0.0;
  std::optional<ftio::StudyDocument> doc_;
  std::string engine_name_;
  core::EngineConfig config_;
  std::optional<safeopt::fta::QuantificationInput> input_;
  std::uint64_t covered_ = 0;
  std::uint64_t checked_ = 0;
  std::string response_;
};

// --------------------------------------------------------------- serve_hot

/// Two clients sending `AnalysisGraph::quantify` requests at fresh seeded
/// points on a few compiled studies: a compile-cache hit and a
/// quantify-cache miss per request.
class ServeHotWorkload final : public Workload {
 public:
  explicit ServeHotWorkload(std::uint64_t seed) : seed_(seed) {}

  [[nodiscard]] std::size_t clients() const override { return kClients; }

  void setup() override {
    documents_.clear();
    parameter_names_.clear();
    for (std::size_t k = 0; k < kDocuments; ++k) {
      documents_.push_back(make_study_document(mix_seed(seed_, 100 + k)));
    }
    hazard_names_.clear();
    const ftio::StudyDocument first = ftio::parse_study(documents_.front());
    for (const ftio::ParameterDecl& parameter : first.parameters) {
      parameter_names_.push_back(parameter.name);
    }
    for (const ftio::HazardDecl& hazard : first.hazards) {
      hazard_names_.push_back(hazard.tree);
    }
    graph_ = std::make_unique<serve::AnalysisGraph>(kCacheBytes);
    for (const std::string& text : documents_) {
      (void)graph_->quantify(text, {}, nullptr);  // compile + engines
    }
    samples_.assign(kClients, {});
    // Fill the quantify cache to its byte budget, so evictions run at a
    // steady rate from the first timed request on.
    for (std::uint64_t i = 0; i < kWarmupRequests; ++i) {
      (void)op(kClients, i, nullptr);
    }
    samples_.assign(kClients, {});
    stats_at_start_ = graph_->cache_stats();
  }

  bool op(std::size_t client, std::uint64_t index, Tracer* tracer) override {
    const std::uint64_t seed = mix_seed(mix_seed(seed_, client), index);
    serve::AnalysisOptions options;
    safeopt::Rng rng(seed);
    const std::size_t which = safeopt::uniform_index(rng, kDocuments);
    for (const std::string& name : parameter_names_) {
      options.at.emplace_back(name, safeopt::uniform(rng, 4.0, 104.0));
    }
    std::string response;
    {
      const ScopedSpan span(tracer, client, "serve.request", index);
      response = graph_->quantify(documents_[which], options, nullptr);
    }
    if (client < kClients && index % kSampleEvery == 0) {
      samples_[client].push_back(
          Sample{which, std::move(options.at), std::move(response)});
    }
    return true;
  }

  Verification verify() override {
    Verification out;
    build_offline_studies();
    for (const std::vector<Sample>& samples : samples_) {
      for (const Sample& sample : samples) {
        if (offline_response(sample) != sample.response) ++out.failed_ops;
      }
    }
    for (const std::string& text : documents_) {
      require_valid(text, "generated study", out);
    }
    return out;
  }

  bool corrupted_output_rejected() override {
    build_offline_studies();
    for (const std::vector<Sample>& samples : samples_) {
      if (samples.empty()) continue;
      Sample corrupted = samples.front();
      const std::size_t digit = corrupted.response.find_last_of("123456789");
      corrupted.response[digit] = corrupted.response[digit] == '1' ? '2' : '1';
      return offline_response(samples.front()) == samples.front().response &&
             offline_response(corrupted) != corrupted.response;
    }
    return false;
  }

  void split_layers(Tracer& tracer, std::size_t client,
                    LayerValues& out) override {
    const ftio::StudyDocument doc = ftio::parse_study(documents_.front());
    const core::Study study = core::Study::from_document(doc);
    out["core.quantify_us"] =
        warm_quantify_us(tracer, client, study, doc);
    out["expr.batch_ns_per_eval"] =
        batch_ns_per_eval(tracer, client, study, seed_);
    // Render alone, on the outcome of one request.
    const auto at = centre_of(study);
    serve::HazardResults results;
    for (const ftio::HazardDecl& hazard : doc.hazards) {
      results.emplace_back(hazard.tree, study.quantify(hazard.tree, at));
    }
    const double cost = study.evaluate_at(at).cost;
    constexpr int kRenders = 64;
    double ns = 0;
    for (int i = 0; i < kRenders; ++i) {
      ns += timed(tracer, client, "serve.render", [&] {
        (void)serve::render_quantify_response("", study.engine_name(), at,
                                              results, cost);
      });
    }
    out["serve.render_us"] = ns / kRenders / 1e3;
    const serve::CacheStats now = graph_->cache_stats();
    const auto compile_count = [](const serve::CacheStats& stats,
                                  bool hits) -> double {
      const auto pass = stats.passes.find("compile");
      if (pass == stats.passes.end()) return 0;
      return static_cast<double>(hits ? pass->second.hits
                                      : pass->second.misses);
    };
    const double hits =
        compile_count(now, true) - compile_count(stats_at_start_, true);
    const double misses =
        compile_count(now, false) - compile_count(stats_at_start_, false);
    out["serve.compile_hit_ratio"] =
        hits + misses > 0 ? hits / (hits + misses) : 0;
    out["serve.single_flight_waits"] = static_cast<double>(
        now.single_flight_waits - stats_at_start_.single_flight_waits);
  }

 private:
  static constexpr std::size_t kClients = 2;
  static constexpr std::size_t kDocuments = 3;
  static constexpr std::size_t kCacheBytes = 4u << 20;
  static constexpr std::uint64_t kWarmupRequests = 3000;
  static constexpr std::uint64_t kSampleEvery = 64;

  struct Sample {
    std::size_t document = 0;
    std::vector<std::pair<std::string, double>> at;
    std::string response;
  };

  void build_offline_studies() {
    if (!offline_.empty()) return;
    for (const std::string& text : documents_) {
      offline_.push_back(core::Study::from_document(ftio::parse_study(text)));
    }
  }

  /// What `safeopt quantify --json --at ...` prints for the sample's
  /// request, computed on a study of its own.
  std::string offline_response(const Sample& sample) const {
    const core::Study& study = offline_[sample.document];
    safeopt::expr::ParameterAssignment at = centre_of(study);
    for (const auto& [name, value] : sample.at) at.set(name, value);
    serve::HazardResults results;
    for (const std::string& hazard : hazard_names_) {
      results.emplace_back(hazard, study.quantify(hazard, at));
    }
    return serve::render_quantify_response("", study.engine_name(), at,
                                           results,
                                           study.evaluate_at(at).cost);
  }

  std::uint64_t seed_;
  std::vector<std::string> documents_;
  std::vector<std::string> parameter_names_;
  std::vector<std::string> hazard_names_;
  std::unique_ptr<serve::AnalysisGraph> graph_;
  serve::CacheStats stats_at_start_;
  std::vector<std::vector<Sample>> samples_;
  std::vector<core::Study> offline_;
};

}  // namespace

const std::vector<std::string>& exact_counters() {
  static const std::vector<std::string> names = {
      "opt.evaluations", "mc.trials",    "fta.cut_sets",
      "bdd.decision_nodes", "prep.modules", "proc.minflt_per_op"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed,
                                        double reference_probability) {
  if (name == "optimize") return std::make_unique<OptimizeWorkload>(seed);
  if (name == "quantify_large") {
    return std::make_unique<QuantifyLargeWorkload>(seed,
                                                   reference_probability);
  }
  if (name == "quantify_mc") return std::make_unique<QuantifyMcWorkload>(seed);
  if (name == "serve_hot") return std::make_unique<ServeHotWorkload>(seed);
  return nullptr;
}

double large_tier_reference(std::uint64_t seed) {
  const ftio::StudyDocument doc =
      ftio::parse_study(make_large_tier_document(seed));
  const ftio::TreeModel& model = doc.trees.front();
  safeopt::fta::QuantificationInput input =
      safeopt::fta::QuantificationInput::for_tree(model.tree, 0.0);
  for (const ftio::LeafProbability& leaf : model.leaves) {
    input.set(model.tree, leaf.name, leaf.probability.evaluate({}));
  }
  return safeopt::bdd::compile(model.tree).probability(input);
}

}  // namespace perfbench
