#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string_view>

namespace perfbench {

std::int32_t Tracer::open(std::size_t client, const char* name,
                          std::uint64_t op) {
  Buffer& buffer = buffers_[client];
  Span span;
  span.name = name;
  span.op = op;
  span.parent = buffer.open.empty() ? -1 : buffer.open.back();
  const auto index = static_cast<std::int32_t>(buffer.spans.size());
  buffer.open.push_back(index);
  span.start_ns = now_ns();
  buffer.spans.push_back(span);
  return index;
}

void Tracer::close(std::size_t client, std::int32_t span) {
  const std::int64_t end = now_ns();
  Buffer& buffer = buffers_[client];
  buffer.spans[static_cast<std::size_t>(span)].end_ns = end;
  buffer.open.pop_back();
}

std::map<std::string, SpanTotals> Tracer::by_name(std::size_t buffers) const {
  std::map<std::string, SpanTotals> totals;
  for (std::size_t b = 0; b < std::min(buffers, buffers_.size()); ++b) {
    const Buffer& buffer = buffers_[b];
    std::vector<double> child_ns(buffer.spans.size(), 0.0);
    for (const Span& span : buffer.spans) {
      if (span.parent >= 0) {
        child_ns[static_cast<std::size_t>(span.parent)] +=
            static_cast<double>(span.end_ns - span.start_ns);
      }
    }
    for (std::size_t i = 0; i < buffer.spans.size(); ++i) {
      const Span& span = buffer.spans[i];
      const auto duration = static_cast<double>(span.end_ns - span.start_ns);
      SpanTotals& entry = totals[span.name];
      entry.calls += 1;
      entry.total_ns += duration;
      entry.self_ns += duration - child_ns[i];
    }
  }
  return totals;
}

std::map<std::string, SpanTotals> Tracer::by_layer(
    std::size_t buffers) const {
  std::map<std::string, SpanTotals> totals;
  for (const auto& [name, named] : by_name(buffers)) {
    SpanTotals& entry = totals[name.substr(0, name.find('.'))];
    entry.calls += named.calls;
    entry.total_ns += named.total_ns;
    entry.self_ns += named.self_ns;
  }
  return totals;
}

bool Tracer::write_chrome_trace(const std::string& path,
                                const std::string& metadata,
                                std::size_t max_events) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  std::int64_t origin = INT64_MAX;
  for (const Buffer& buffer : buffers_) {
    if (!buffer.spans.empty()) {
      origin = std::min(origin, buffer.spans.front().start_ns);
    }
  }
  out << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << metadata
      << ",\n\"traceEvents\": [";
  std::size_t written = 0;
  char line[512];
  for (std::size_t tid = 0; tid < buffers_.size(); ++tid) {
    const Buffer& buffer = buffers_[tid];
    for (std::size_t i = 0; i < buffer.spans.size() && written < max_events;
         ++i, ++written) {
      const Span& span = buffer.spans[i];
      const std::string_view name = span.name;
      std::snprintf(line, sizeof(line),
                    "%s\n{\"name\": \"%s\", \"cat\": \"%.*s\", \"ph\": \"X\", "
                    "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %zu, "
                    "\"args\": {\"op\": %llu, \"span\": %zu, \"parent\": %d}}",
                    written == 0 ? "" : ",", span.name,
                    static_cast<int>(name.find('.')), span.name,
                    static_cast<double>(span.start_ns - origin) / 1e3,
                    static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                    tid, static_cast<unsigned long long>(span.op), i,
                    static_cast<int>(span.parent));
      out << line;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
