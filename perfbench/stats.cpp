#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  double pos = q * static_cast<double>(sorted.size() - 1);
  std::size_t lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Quantile(values, 0.5);
}

std::size_t SamplesForPercentile(double pct, std::size_t min_beyond) {
  // n * (1 - pct/100) >= min_beyond, computed in integer hundredths so
  // p99 needs exactly 1000 samples for 10 beyond, not 999.99...
  const auto share_beyond = static_cast<std::size_t>(std::llround(100.0 - pct));
  if (share_beyond == 0) return static_cast<std::size_t>(-1);
  return (min_beyond * 100 + share_beyond - 1) / share_beyond;
}

double HighestSupportedPercentile(std::size_t n, std::size_t min_beyond) {
  for (double pct : {99.0, 90.0, 75.0, 50.0}) {
    if (n >= SamplesForPercentile(pct, min_beyond)) return pct;
  }
  return 0.0;
}

double WindowedTail(const std::vector<double>& in_order, double pct) {
  const std::size_t window = SamplesForPercentile(pct);
  const std::size_t windows = std::max<std::size_t>(1, in_order.size() / window);
  std::vector<double> tails;
  for (std::size_t w = 0; w < windows; ++w) {
    auto begin = in_order.begin() + static_cast<std::ptrdiff_t>(w * window);
    auto end = w + 1 == windows
                   ? in_order.end()
                   : begin + static_cast<std::ptrdiff_t>(window);
    std::vector<double> part(begin, end);
    std::sort(part.begin(), part.end());
    tails.push_back(Quantile(part, pct / 100.0));
  }
  return Median(tails);
}

OpenLoopSummary SummarizeOpenLoop(const std::vector<OpenLoopSample>& samples) {
  OpenLoopSummary out;
  out.attempted = samples.size();
  std::vector<double> late;
  std::vector<double> in_order;
  late.reserve(samples.size());
  double last_scheduled = 0.0;
  double last_received = 0.0;
  for (const OpenLoopSample& s : samples) {
    late.push_back(std::max(0.0, s.sent - s.scheduled));
    last_scheduled = std::max(last_scheduled, s.scheduled);
    if (!s.ok) {
      ++out.failed;
      continue;
    }
    in_order.push_back(s.received - s.scheduled);
    last_received = std::max(last_received, s.received);
  }
  out.latency_s = in_order;
  std::sort(out.latency_s.begin(), out.latency_s.end());
  std::sort(late.begin(), late.end());
  out.late_p99_s = Quantile(late, 0.99);
  out.backlog_s = std::max(0.0, last_received - last_scheduled);
  out.p50_s = Quantile(out.latency_s, 0.50);
  out.p90_s = WindowedTail(in_order, 90.0);
  out.p99_s = WindowedTail(in_order, 99.0);
  return out;
}

}  // namespace perfbench
