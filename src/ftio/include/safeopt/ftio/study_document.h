// Declarative study documents — ftio grammar v2.
//
// Grammar v1 (parser.h) describes one fault tree with constant
// probabilities. A *study document* describes everything the optimization
// pipeline needs, so a complete §III study is data, not C++:
//
//   # Elbtunnel height control (paper §IV)
//   param T1 in [5, 40] unit "min" desc "runtime of timer 1";
//   param T2 in [5, 40] unit "min";
//
//   tree HCol;
//   toplevel Collision;
//   Collision or OtherCollisionCauses OT1_critical OT2_critical;
//   OT1_critical inhibit OT1 OHVcritical;
//   OT2_critical inhibit OT2 OHVcritical;
//   OtherCollisionCauses prob = 4.19e-08;
//   OT1 prob = survival[TruncatedNormal(4, 2, [0, inf])](T1);
//   OT2 prob = survival[TruncatedNormal(4, 2, [0, inf])](T2);
//   OHVcritical condition prob = 0.011;
//
//   hazard HCol cost = 100000;
//   solver multi_start starts = 8 inner = nelder_mead;
//   engine fta;
//   formula rare_event;
//
// New over v1 (v1 documents stay valid, with one caveat: the statement
// heads listed at the end of this comment are now reserved words, so a v1
// tree whose *node* is named e.g. "hazard" must be renamed):
//   * `param` declarations — the compact box of §III-B, with optional
//     unit/description metadata;
//   * leaf probabilities are *expressions* over the declared parameters
//     (expr/parse.h dialect), not just constants — §II-D.2;
//   * multiple `tree` sections per document (node names scoped per tree);
//   * `hazard <tree> cost = <c>;` — the Eq. 5/6 cost weights;
//   * optional `solver` / `engine` selections with key = value options, and
//     a `formula` choice (rare_event | min_cut_upper_bound).
//
// `core::Study::from_document` turns the parsed document into a runnable
// study on the compiled-tape hot path; `write_study` is the inverse of
// `parse_study` (round trip: parse(write(doc)) reproduces doc).
//
// Reserved statement heads: tree, toplevel, param, hazard, solver, engine,
// formula — fault-tree nodes cannot use these names.
#ifndef SAFEOPT_FTIO_STUDY_DOCUMENT_H
#define SAFEOPT_FTIO_STUDY_DOCUMENT_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "safeopt/expr/expr.h"
#include "safeopt/fta/fault_tree.h"
#include "safeopt/fta/probability.h"
#include "safeopt/support/options.h"

namespace safeopt::ftio {

/// One `param` declaration: a free parameter with its compact domain.
struct ParameterDecl {
  std::string name;
  double lower = 0.0;
  double upper = 1.0;
  std::string unit;         // optional ("" when absent)
  std::string description;  // optional
};

/// The probability expression of one leaf (basic event or condition).
struct LeafProbability {
  std::string name;
  bool is_condition = false;
  expr::Expr probability;
};

/// One `tree` section: the structure plus every leaf's expression
/// (basic events first, then conditions, each in ordinal order).
struct TreeModel {
  fta::FaultTree tree;
  std::vector<LeafProbability> leaves;

  [[nodiscard]] const LeafProbability* find_leaf(
      std::string_view name) const noexcept;

  /// The quantification input of a model without parameters, filled by
  /// ordinal: leaves[i] is basic event i, then condition i minus the basic
  /// event count. Precondition: every leaf probability is constant.
  [[nodiscard]] fta::QuantificationInput constant_input() const;
};

/// `hazard <tree> cost = <c>;` — one Eq. 5 term Cost_Hi · P(Hi)(X).
struct HazardDecl {
  std::string tree;  // names a TreeModel; the hazard is named after it
  double cost = 1.0;
};

/// One `key = value` option of a solver/engine selection (checked against
/// the declared option tables by safeopt::check_option).
using OptionValue = safeopt::OptionValue;

/// `solver <name> [key = value ...];` (and identically `engine ...;`).
struct SelectionDecl {
  std::string name;
  std::vector<std::pair<std::string, OptionValue>> options;  // in order

  [[nodiscard]] const OptionValue* find_option(
      std::string_view key) const noexcept;
};

/// A parsed study document. Every field mirrors one statement form.
struct StudyDocument {
  /// The path the document was loaded from; "" for in-memory text. Parse
  /// errors repeat it ("models/elbtunnel.ft:12:3: ...").
  std::string source;

  std::vector<ParameterDecl> parameters;
  std::vector<TreeModel> trees;
  std::vector<HazardDecl> hazards;
  std::optional<SelectionDecl> solver;
  std::optional<SelectionDecl> engine;
  /// "rare_event" or "min_cut_upper_bound"; nullopt = the default.
  std::optional<std::string> formula;

  [[nodiscard]] const TreeModel* find_tree(
      std::string_view name) const noexcept;
  [[nodiscard]] const ParameterDecl* find_parameter(
      std::string_view name) const noexcept;
  /// Parameter names in declaration order (the optimizer's axis order).
  [[nodiscard]] std::vector<std::string> parameter_names() const;
};

/// Parses a study document (grammar v2; accepts every v1 document). Throws
/// ParseError — with `source_name` in the message when provided — on any
/// lexical, syntactic, or semantic problem: unknown parameters in a leaf
/// expression, constant probabilities outside [0, 1], a hazard naming an
/// unknown tree, cycles, duplicate declarations, ...
[[nodiscard]] StudyDocument parse_study(std::string_view text,
                                        std::string_view source_name = {});

/// Reads `path` and parses it; the file name lands in StudyDocument::source
/// and in every ParseError. Throws std::runtime_error when the file cannot
/// be read.
[[nodiscard]] StudyDocument load_study(const std::string& path);

/// Writes the v2 dialect. parse_study(write_study(doc)) reproduces the
/// document: equal parameters/hazards/selections and structurally identical
/// trees and leaf expressions (expr::structurally_equal).
[[nodiscard]] std::string write_study(const StudyDocument& doc);

/// Content hash of the *canonical form* of a document: FNV-1a 64 over
/// write_study(doc). Two documents that differ only in whitespace,
/// comments, or source path hash equal; any semantic difference (a
/// parameter bound, a gate input, a solver option) changes the hash. The
/// serve subsystem keys its artifact cache on this.
[[nodiscard]] std::uint64_t canonical_hash(const StudyDocument& doc);

/// canonical_hash rendered as 16 lowercase hex digits (cache keys, logs).
[[nodiscard]] std::string canonical_hash_hex(const StudyDocument& doc);

}  // namespace safeopt::ftio

#endif  // SAFEOPT_FTIO_STUDY_DOCUMENT_H
