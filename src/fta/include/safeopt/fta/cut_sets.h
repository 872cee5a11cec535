// Minimal cut sets (paper §II-B) and the MOCUS top-down generation algorithm.
//
// A cut set pairs the basic events whose joint occurrence threatens the
// hazard with the INHIBIT conditions that must additionally hold — the
// "constraints" of paper §II-D.1. Keeping the two apart is what allows
// quantification to apply Eq. 2, P(CS) = P(Constraints)·∏ P(PF).
//
// MOCUS (Fussell & Vesely 1972) expands the tree top-down: an OR gate splits
// a working set into one set per child, an AND gate replaces the gate by all
// of its children, k-of-n expands to every k-subset, XOR is expanded as OR
// (its coherent hull) and INHIBIT contributes both its cause and condition.
// Absorption (dropping supersets) afterwards yields the *minimal* cut sets.
#ifndef SAFEOPT_FTA_CUT_SETS_H
#define SAFEOPT_FTA_CUT_SETS_H

#include <cstddef>
#include <string>
#include <vector>

#include "safeopt/fta/fault_tree.h"

namespace safeopt {
class ExecutionControl;  // support/execution.h
}

namespace safeopt::fta {

/// One cut set: sorted, duplicate-free ordinals of its basic events and of
/// the conditions constraining it.
struct CutSet {
  std::vector<BasicEventOrdinal> events;
  std::vector<ConditionOrdinal> conditions;

  [[nodiscard]] std::size_t order() const noexcept { return events.size(); }
  [[nodiscard]] bool is_single_point_of_failure() const noexcept {
    return events.size() == 1;
  }
  /// True if this cut set's events+conditions are a subset of `other`'s.
  [[nodiscard]] bool subsumes(const CutSet& other) const noexcept;

  friend bool operator==(const CutSet&, const CutSet&) = default;
  /// Orders by size, then lexicographically — stable report order.
  [[nodiscard]] static bool less(const CutSet& a, const CutSet& b) noexcept;
};

/// The set of minimal cut sets of one hazard (paper notation: MCSS_Hi).
class CutSetCollection {
 public:
  CutSetCollection() = default;
  explicit CutSetCollection(std::vector<CutSet> sets);

  [[nodiscard]] std::size_t size() const noexcept { return sets_.size(); }
  [[nodiscard]] bool empty() const noexcept { return sets_.empty(); }
  [[nodiscard]] const CutSet& operator[](std::size_t i) const;
  [[nodiscard]] const std::vector<CutSet>& sets() const noexcept {
    return sets_;
  }
  [[nodiscard]] auto begin() const noexcept { return sets_.begin(); }
  [[nodiscard]] auto end() const noexcept { return sets_.end(); }

  /// Largest cut-set order (0 for an empty collection).
  [[nodiscard]] std::size_t max_order() const noexcept;
  /// Number of cut sets of exactly the given order.
  [[nodiscard]] std::size_t count_of_order(std::size_t order) const noexcept;
  /// All single-point-of-failure event ordinals, sorted.
  [[nodiscard]] std::vector<BasicEventOrdinal> single_points_of_failure()
      const;

  /// Removes non-minimal sets (any set subsuming another is dropped) and
  /// sorts canonically. Idempotent. Polls `control` (nullptr = unbounded)
  /// while it compares; an abort throws Error(kDeadlineExceeded /
  /// kCancelled) and leaves the collection valid but unspecified.
  void minimize(const ExecutionControl* control = nullptr);

  /// True if every set is minimal w.r.t. every other (the MCS invariant the
  /// property tests assert).
  [[nodiscard]] bool is_minimal() const noexcept;

  /// Renders e.g. "{OT1}, {OT2}, {FDpre, FDpost | OHV_present}".
  [[nodiscard]] std::string to_string(const FaultTree& tree) const;

 private:
  std::vector<CutSet> sets_;
};

/// Generates the minimal cut sets of `tree` with MOCUS + absorption.
/// Polls `control` (nullptr = unbounded) throughout the expansion, the
/// absorption and the minimality postcondition; an abort throws
/// Error(kDeadlineExceeded / kCancelled).
/// Precondition: tree.has_top() and tree.validate() is clean.
[[nodiscard]] CutSetCollection minimal_cut_sets(
    const FaultTree& tree, const ExecutionControl* control = nullptr);

/// Reference implementation for testing: enumerates all assignments of the
/// basic events (conditions forced true), keeps the minimal true ones.
/// Precondition: tree.basic_event_count() <= 24.
[[nodiscard]] CutSetCollection minimal_cut_sets_bruteforce(
    const FaultTree& tree);

/// Minimal *path* sets: the smallest sets of primary failures whose joint
/// absence guarantees the hazard cannot occur — the success-tree dual of
/// minimal cut sets (computed by swapping AND<->OR and k-of-n -> (n−k+1)-of-n
/// and running MOCUS on the dual). Every minimal path set intersects every
/// minimal cut set; maintenance planning reads them as "keep all of these
/// healthy and the system is safe".
/// Precondition: coherent tree (no XOR); INHIBIT dualizes like AND.
[[nodiscard]] CutSetCollection minimal_path_sets(const FaultTree& tree);

}  // namespace safeopt::fta

#endif  // SAFEOPT_FTA_CUT_SETS_H
