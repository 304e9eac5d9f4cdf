// Sample statistics for the benchmark: percentiles, the tail percentile a
// sample count can support, and open-loop latency accounting.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile q in [0, 1] of an ascending-sorted sample.
/// Returns 0 for an empty sample.
double Quantile(const std::vector<double>& sorted, double q);

/// Median of an unsorted sample (copies and sorts).
double Median(std::vector<double> values);

/// The highest percentile from {99, 90, 75, 50} that leaves at least
/// `min_beyond` of `n` samples above it; 0 when even the median does not.
/// p99 is the cap: a finer tail (p99.9) would change meaning between runs
/// whose sample counts straddle its threshold.
double HighestSupportedPercentile(std::size_t n, std::size_t min_beyond = 10);

/// Samples needed so that percentile `pct` has `min_beyond` samples above
/// it (the inverse of HighestSupportedPercentile).
std::size_t SamplesForPercentile(double pct, std::size_t min_beyond = 10);

/// Tail percentile `pct` of a sample kept in measurement order, made
/// robust to one-off stalls: the sample is cut into consecutive windows of
/// SamplesForPercentile(pct) values (the remainder joins the last window),
/// and the result is the median of the windows' percentiles. A sample
/// shorter than one window gives its plain percentile.
double WindowedTail(const std::vector<double>& in_order, double pct);

/// One request of an open-loop run, in seconds on one steady clock.
struct OpenLoopSample {
  double scheduled = 0.0;  ///< when the generator was due to send it
  double sent = 0.0;       ///< when the send actually started
  double received = 0.0;   ///< when the reply was read (0 = never)
  bool ok = false;         ///< reply arrived and passed the oracle
};

/// Open-loop summary. Latency is measured from the *scheduled* send, so a
/// generator or server stall is charged to every request it delayed;
/// lateness (sent - scheduled) says how far the generator itself fell
/// behind, which is a validity check on the run rather than a score.
struct OpenLoopSummary {
  std::size_t attempted = 0;
  std::size_t failed = 0;         ///< missing reply or oracle mismatch
  std::vector<double> latency_s;  ///< received - scheduled, ok requests, sorted
  double late_p99_s = 0.0;        ///< p99 of sent - scheduled, all requests
  double backlog_s = 0.0;         ///< last reply - last scheduled send
  double p50_s = 0.0;
  double p90_s = 0.0;             ///< WindowedTail over schedule order
  double p99_s = 0.0;             ///< WindowedTail over schedule order
};

/// Summarizes requests given in schedule order.
OpenLoopSummary SummarizeOpenLoop(const std::vector<OpenLoopSample>& samples);

}  // namespace perfbench
