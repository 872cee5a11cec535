// The benchmark's workloads. Each one runs a single class of operation in a
// closed loop through the same public library calls the `safeopt` CLI and
// `safeopt serve` make, on documents generated from the workload seed.
#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "trace.h"

namespace perfbench {

/// Per-layer metric values by name (units are fixed by the metric table in
/// main.cpp).
using LayerValues = std::map<std::string, double>;

/// Outcome of the checks made after the timed loop.
struct Verification {
  /// Ops whose output was wrong (counted against `attempted`).
  std::size_t failed_ops = 0;
  /// Run-level failures: an aggregate check, an invalid generated input, a
  /// counter that differed between two ops on the same input.
  std::vector<std::string> problems;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Concurrent client threads in the closed loop.
  [[nodiscard]] virtual std::size_t clients() const { return 1; }

  /// Generation, warm-up and cache fill: everything before the first timed
  /// op. Called several times per run; each call replaces the state of the
  /// previous one.
  virtual void setup() = 0;

  /// One operation for `client`; `index` counts that client's ops. Returns
  /// false when an inline output check fails. Spans go to `tracer` when it
  /// is non-null. Thread-safe across distinct clients.
  [[nodiscard]] virtual bool op(std::size_t client, std::uint64_t index,
                                Tracer* tracer) = 0;

  /// Checks the outputs kept during the loop and the generated inputs.
  [[nodiscard]] virtual Verification verify() = 0;

  /// Feeds one deliberately corrupted output through the same check;
  /// returns true when the check rejects it.
  [[nodiscard]] virtual bool corrupted_output_rejected() = 0;

  /// Traced run only: calls that exist only to split a layer (recorded on
  /// `client`'s span buffer) and the layer counters they expose. Counters
  /// named in `exact_counters()` must come out identical on every call.
  virtual void split_layers(Tracer& tracer, std::size_t client,
                            LayerValues& out) = 0;
};

/// Counters that must repeat exactly for one seed; a mismatch is a
/// determinism bug, never noise.
[[nodiscard]] const std::vector<std::string>& exact_counters();

/// Builds the named workload for `seed`. `reference_probability` is the
/// plain-BDD value for `quantify_large`, computed by a separate process so
/// it does not count against this one's set-up time or peak memory.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    std::string_view name, std::uint64_t seed, double reference_probability);

/// The plain (unpreprocessed) BDD probability of the `quantify_large`
/// document for `seed`.
[[nodiscard]] double large_tier_reference(std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H
