// Cooperative execution control: a wall-clock Deadline plus a shared
// CancellationToken, bundled as an ExecutionControl that long-running code
// polls at coarse checkpoints — BDD node allocation batches, Monte Carlo
// round boundaries, solver evaluations, preprocessing pass boundaries. The
// discipline is cooperative on purpose: checks sit at granularities where a
// branch-plus-clock-read is invisible (<2% on the bench gates) and where
// aborting leaves a well-formed partial result, never a torn one.
//
// Ownership: ExecutionControl is passed by raw const pointer (nullptr = run
// unbounded) and must outlive the operation it governs; the token inside is
// shared_ptr-backed, so a caller can keep a copy and cancel from any thread.
#ifndef SAFEOPT_SUPPORT_EXECUTION_H
#define SAFEOPT_SUPPORT_EXECUTION_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>

namespace safeopt {

/// A point on the steady clock after which an operation should abort.
/// Default-constructed deadlines never expire.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() noexcept : when_(Clock::time_point::max()) {}

  /// A deadline `ms` milliseconds from now. A delay past the clock's range
  /// (about 292 years of steady-clock nanoseconds) saturates to never.
  [[nodiscard]] static Deadline after_ms(std::uint64_t ms) noexcept {
    Deadline deadline;
    const Clock::time_point now = Clock::now();
    const auto room = std::chrono::duration_cast<std::chrono::milliseconds>(
        Clock::time_point::max() - now);
    if (ms < static_cast<std::uint64_t>(room.count())) {
      deadline.when_ = now + std::chrono::milliseconds(ms);
    }
    return deadline;
  }

  /// A deadline that has already passed — deterministic fault injection.
  [[nodiscard]] static Deadline already_expired() noexcept {
    Deadline deadline;
    deadline.when_ = Clock::time_point::min();
    return deadline;
  }

  [[nodiscard]] static Deadline never() noexcept { return Deadline(); }

  [[nodiscard]] bool unbounded() const noexcept {
    return when_ == Clock::time_point::max();
  }

  [[nodiscard]] bool expired() const noexcept {
    return !unbounded() && Clock::now() >= when_;
  }

 private:
  Clock::time_point when_;
};

/// A shared cancel flag. Copies observe the same flag; request_cancel() from
/// any thread is visible to every holder (release/acquire ordering).
class CancellationToken {
 public:
  CancellationToken() : cancelled_(std::make_shared<std::atomic<bool>>(false)) {}

  void request_cancel() const noexcept {
    cancelled_->store(true, std::memory_order_release);
  }

  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_->load(std::memory_order_acquire);
  }

 private:
  std::shared_ptr<std::atomic<bool>> cancelled_;
};

/// Why an operation should (or should not) keep running.
enum class ExecutionStatus : unsigned char {
  kRunning,
  kCancelled,
  kDeadlineExceeded,
};

/// Deadline + token + optional parent, polled by the engines. Parents chain
/// request-level control through operation-level control: an engine derives
/// a per-operation deadline while still honouring the caller's token.
struct ExecutionControl {
  Deadline deadline;
  CancellationToken token;
  const ExecutionControl* parent = nullptr;
  /// Test seam: when set, consulted after deadline/token/parent. The
  /// FaultInjector uses it to fire deterministic "expiry after N checks"
  /// faults; production code never sets it. Must be thread-safe if the
  /// control is polled from multiple threads.
  std::function<ExecutionStatus()> probe;

  ExecutionControl() = default;
  explicit ExecutionControl(Deadline deadline_,
                            const ExecutionControl* parent_ = nullptr)
      : deadline(deadline_), parent(parent_) {}

  /// Cancellation wins over deadline expiry: both mean "stop", but a caller
  /// that cancelled should not be told the operation timed out.
  [[nodiscard]] ExecutionStatus status() const;

  [[nodiscard]] bool should_abort() const {
    return status() != ExecutionStatus::kRunning;
  }

  /// Polls and throws Error(kCancelled / kDeadlineExceeded) with a message
  /// of the form "<operation> aborted: <reason>" when the operation should
  /// stop. The single checkpoint helper for code without a partial result
  /// to hand back (BDD compilation, preprocessing).
  void check(std::string_view operation) const;

  /// Throws the Error that `status` (which must not be kRunning) maps to.
  [[noreturn]] static void raise(ExecutionStatus status,
                                 std::string_view operation);
};

/// Human-readable abort reason ("cancelled", "deadline exceeded").
[[nodiscard]] std::string_view status_reason(ExecutionStatus status) noexcept;

}  // namespace safeopt

#endif  // SAFEOPT_SUPPORT_EXECUTION_H
