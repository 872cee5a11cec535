// AnalysisGraph — the explicit pass dependency graph behind the service
// (ROADMAP: "shared BDD/MCS artifacts ... cached and reused"):
//
//   parse ──► compile ──► [preprocess ─► MCS ─► BDD] ──► quantify ──► optimize
//     │                                                      ▲
//     └──────────────────► validate                          │
//                                            (same compiled study artifact)
//
// Each named pass produces an immutable artifact stored in an ArtifactCache
// under a content-derived key:
//
//   parse:<raw-text hash>                 → ParsedArtifact (document +
//                                           canonical hash)
//   compile:<canonical>:<option fp>      → CompiledArtifact (core::Study
//                                           with compiled leaf tapes and
//                                           engines; the preprocess/MCS/BDD
//                                           sub-passes run inside its engine
//                                           builds, so their results are
//                                           owned by — and amortized with —
//                                           this artifact)
//   quantify:<compile key fp>:<at fp>    → QuantifyOutcome
//   optimize:<compile key fp>            → OptimizeOutcome
//   validate:<canonical>:<option fp>     → ValidateOutcome
//
// Keying on ftio::canonical_hash means whitespace/comment/path variants of
// one document share every artifact; any semantic change invalidates from
// `compile` down while `parse` of the identical raw text still hits.
//
// Concurrency: a CompiledArtifact's study is immutable once compiled (core::
// Study builds its leaf tapes and engines eagerly, and its const members are
// thread-safe), so any number of requests quantify and optimize one
// artifact at the same time, with no per-artifact lock. Deadlines and
// cancellation are per call: the compile pass builds the engines under the
// control of the request that missed the cache, and every later pass passes
// its own request's control to Study::quantify / Study::run. A compiled
// artifact built under a control that fired (its engine may have degraded
// to a fallback) is neither stored nor shared, like every other pass's
// control-tainted outcome.
#ifndef SAFEOPT_SERVE_ANALYSIS_GRAPH_H
#define SAFEOPT_SERVE_ANALYSIS_GRAPH_H

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "safeopt/core/study.h"
#include "safeopt/ftio/study_document.h"
#include "safeopt/serve/artifact_cache.h"
#include "safeopt/serve/response_json.h"
#include "safeopt/support/execution.h"

namespace safeopt::serve {

/// Per-request analysis options — the HTTP mirror of the CLI's
/// --solver/--engine/--extra/--engine-opt/--seed/--at surface. The
/// inherited overrides layer on top of the document's own selections
/// through core::Study::from_document, the CLI's path.
struct AnalysisOptions : core::StudyOverrides {
  /// Reported as the response's "model" field (the CLI prints the file
  /// path here); not part of any cache key.
  std::string model;
  std::vector<std::pair<std::string, double>> at;
};

/// One row of the pass-graph description (introspection, /v1/stats, docs).
struct PassDesc {
  std::string_view name;
  std::string_view produces;
  std::string_view depends_on;  // comma-separated upstream passes
};

/// The graph's pass list in topological order.
[[nodiscard]] const std::vector<PassDesc>& analysis_passes();

/// The deterministic, injective rendering of the options that change what
/// `compile` produces — part of the compile/quantify cache keys. Every
/// component is length-prefixed so delimiter-containing option values can
/// never alias two distinct configurations to one key.
[[nodiscard]] std::string option_fingerprint(const AnalysisOptions& options);

/// Structural validation beyond the parser's checks — the single problems
/// list behind both `safeopt validate` and POST /v1/validate: per-tree
/// structural issues, a missing-hazards check, and a dry assembly of the
/// document's selections with `overrides` layered on top, as `run` and
/// `quantify` assemble them (and, for parameterized documents, the Study
/// and Solver::validate on its box and solver config). So `validate`
/// refuses what `run` would refuse before its first evaluation.
[[nodiscard]] std::vector<std::string> validate_problems(
    const ftio::StudyDocument& doc,
    const core::StudyOverrides& overrides = {});

/// A constant (parameter-less) model's quantification: each hazard's
/// engine runs straight on the document's numeric leaf probabilities, with
/// no Study.
struct ConstantQuantification {
  std::string engine_name;
  HazardResults results;
  double cost = 0.0;
};

/// Throws std::invalid_argument when `options` asks a constant model for
/// what it cannot give: an evaluation point, or solver options (there is
/// nothing to optimize).
void check_constant_model_options(const AnalysisOptions& options);

/// Quantifies every hazard of a constant model with the document's engine
/// selection and the engine overrides of `overrides` on top, each engine
/// built and run under `control` (nullptr = unbounded). The one path
/// behind `safeopt quantify` and POST /v1/quantify on constant models;
/// callers check the options with check_constant_model_options first.
[[nodiscard]] ConstantQuantification quantify_constant_model(
    const ftio::StudyDocument& doc, const core::StudyOverrides& overrides,
    const ExecutionControl* control = nullptr);

class AnalysisGraph {
 public:
  explicit AnalysisGraph(std::size_t cache_bytes);

  /// Quantifies every hazard of `document_text` at the requested point
  /// (default: the box center, exactly like the CLI) and returns the
  /// response body — byte-identical to `safeopt quantify --json`. Throws
  /// ftio::ParseError / std::invalid_argument / safeopt::Error; the server
  /// maps those onto HTTP statuses.
  [[nodiscard]] std::string quantify(const std::string& document_text,
                                     const AnalysisOptions& options,
                                     const ExecutionControl* control);

  /// Runs the document's optimization study; body matches
  /// `safeopt run --json`.
  [[nodiscard]] std::string optimize(const std::string& document_text,
                                     const AnalysisOptions& options,
                                     const ExecutionControl* control);

  /// Structural validation; body matches `safeopt validate --json`.
  [[nodiscard]] std::string validate(const std::string& document_text,
                                     const AnalysisOptions& options);

  [[nodiscard]] CacheStats cache_stats() const { return cache_.stats(); }

 private:
  struct ParsedArtifact;
  struct CompiledArtifact;
  struct QuantifyOutcome;
  struct OptimizeOutcome;
  struct ValidateOutcome;

  std::shared_ptr<const ParsedArtifact> parse_pass(
      const std::string& document_text);
  std::shared_ptr<const CompiledArtifact> compile_pass(
      const std::shared_ptr<const ParsedArtifact>& parsed,
      const AnalysisOptions& options, const ExecutionControl* control,
      std::string* key_fingerprint);

  ArtifactCache cache_;
};

}  // namespace safeopt::serve

#endif  // SAFEOPT_SERVE_ANALYSIS_GRAPH_H
