// Spans for the traced run. The benchmark wraps each call it makes into a
// layer's public functions in a span (name, start, end, parent, op id);
// spans stay in memory, one buffer per client thread, and are written as a
// Chrome trace-event file when the run ends. The library itself is not
// instrumented: layer boundaries are the public calls the benchmark makes.
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One recorded call. `name` is "<layer>.<call>" with static storage.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index in the same client's buffer
  std::uint64_t op = 0;
};

/// Time attributed to one span name or layer.
struct SpanTotals {
  std::uint64_t calls = 0;
  double total_ns = 0;  // sum of span durations
  double self_ns = 0;   // durations minus the time their children cover
};

class Tracer {
 public:
  explicit Tracer(std::size_t clients) : buffers_(clients) {}

  /// Opens a span on `client`'s buffer as a child of its innermost open
  /// span. Each buffer is touched only by its own client thread.
  [[nodiscard]] std::int32_t open(std::size_t client, const char* name,
                                  std::uint64_t op);
  void close(std::size_t client, std::int32_t span);

  /// Totals keyed by span name, over the first `buffers` client buffers.
  [[nodiscard]] std::map<std::string, SpanTotals> by_name(
      std::size_t buffers) const;
  /// Totals keyed by layer, the span-name prefix before the first '.'.
  [[nodiscard]] std::map<std::string, SpanTotals> by_layer(
      std::size_t buffers) const;

  /// Writes the Chrome trace-event JSON (load it in chrome://tracing or
  /// Perfetto): one "X" event per span, at most `max_events`, with the
  /// op id and parent span in "args", and `metadata` (a JSON object) under
  /// "otherData". Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path, const std::string& metadata,
                          std::size_t max_events) const;

 private:
  struct Buffer {
    std::vector<Span> spans;
    std::vector<std::int32_t> open;
  };
  std::vector<Buffer> buffers_;
};

/// RAII span; a null tracer makes it a no-op (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::size_t client, const char* name,
             std::uint64_t op)
      : tracer_(tracer), client_(client) {
    if (tracer_ != nullptr) span_ = tracer_->open(client, name, op);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(client_, span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::size_t client_;
  std::int32_t span_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H
