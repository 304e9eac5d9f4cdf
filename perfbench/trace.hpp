// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code around calls into the
// library's public API (nothing inside src/ is instrumented). A span has a
// name "<layer>.<what>" (layer = the library module called, or bench for
// the benchmark's own work), start and end times, the id of the span that
// caused it, and the request id shared by all spans of one request. Spans stay in memory and are written out
// when the run ends. A disabled tracer records nothing, so the untraced
// run executes the same code minus the clock reads and the locking.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;      ///< 0 = root
  std::uint64_t request_id = 0;  ///< 0 = not part of a request
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// "core" for "core.right".
std::string LayerOf(const std::string& span_name);

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
/// Returned in the order of `spans`.
std::vector<std::int64_t> SelfTimesNs(const std::vector<Span>& spans);

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (0 when disabled).
  std::uint64_t Begin(const std::string& name, std::uint64_t parent = 0,
                      std::uint64_t request_id = 0);
  void End(std::uint64_t id);

  /// Records a finished span with explicit times (steady-clock ns), for
  /// intervals measured by a thread other than the one that closes them.
  /// Returns its id (0 when disabled).
  std::uint64_t Record(const std::string& name, std::uint64_t parent,
                       std::uint64_t request_id, std::int64_t start_ns,
                       std::int64_t end_ns);

  /// Copy of the finished spans.
  std::vector<Span> Spans() const;

  static std::int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;              ///< guarded by mu_
  std::map<std::uint64_t, Span> open_;     ///< guarded by mu_
  std::vector<Span> done_;                 ///< guarded by mu_
};

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name,
             std::uint64_t parent = 0, std::uint64_t request_id = 0)
      : tracer_(tracer), id_(tracer.Begin(name, parent, request_id)) {}
  ~ScopedSpan() { tracer_.End(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint64_t id_;
};

/// Writes one JSON object per span and line.
void WriteJsonLines(const std::vector<Span>& spans, const std::string& path);

/// Per-name aggregate over a set of spans.
struct SpanTotals {
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// Aggregates spans by name (durations and self times, in ms).
std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans);

/// Sums self time by layer (LayerOf each span name), in ms.
std::map<std::string, double> SelfMsByLayer(const std::vector<Span>& spans);

}  // namespace perfbench
