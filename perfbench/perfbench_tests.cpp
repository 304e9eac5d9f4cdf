// Unit tests of the benchmark's own arithmetic: percentile selection,
// open-loop latency accounting, span self times and the output oracles.
// Run: ctest --test-dir <build dir>   (or the perfbench_tests binary).
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "oracles.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      ++g_failures;                                                   \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,    \
                   __LINE__, #cond);                                  \
    }                                                                 \
  } while (0)

#define EXPECT_NEAR(a, b, tol) EXPECT(std::abs((a) - (b)) <= (tol))

using namespace perfbench;

void TestHighestSupportedPercentile() {
  EXPECT(SamplesForPercentile(99) == 1000);
  EXPECT(SamplesForPercentile(90) == 100);
  EXPECT(SamplesForPercentile(75) == 40);
  EXPECT(SamplesForPercentile(50) == 20);
  EXPECT(HighestSupportedPercentile(100000) == 99);  // capped at p99
  EXPECT(HighestSupportedPercentile(1000) == 99);
  EXPECT(HighestSupportedPercentile(999) == 90);
  EXPECT(HighestSupportedPercentile(100) == 90);
  EXPECT(HighestSupportedPercentile(99) == 75);
  EXPECT(HighestSupportedPercentile(40) == 75);
  EXPECT(HighestSupportedPercentile(39) == 50);
  EXPECT(HighestSupportedPercentile(20) == 50);
  EXPECT(HighestSupportedPercentile(19) == 0);
  // The guarantee itself: at least 10 samples lie strictly above the
  // selected percentile of 1..n.
  for (std::size_t n : {20u, 57u, 100u, 640u, 1000u, 4321u}) {
    std::vector<double> v;
    for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
    const double pct = HighestSupportedPercentile(n);
    const double cut = Quantile(v, pct / 100.0);
    std::size_t beyond = 0;
    for (double x : v) beyond += x > cut ? 1 : 0;
    EXPECT(beyond >= 10);
  }
}

void TestQuantile() {
  const std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT(Quantile(v, 0.0) == 1);
  EXPECT(Quantile(v, 0.5) == 3);
  EXPECT(Quantile(v, 1.0) == 5);
  EXPECT_NEAR(Quantile(v, 0.125), 1.5, 1e-12);
  EXPECT(Quantile({}, 0.5) == 0);
  EXPECT(Median({9, 1, 5}) == 5);
}

void TestWindowedTail() {
  // Below one window (1000 samples for p99): the plain percentile.
  std::vector<double> v;
  for (int i = 1; i <= 500; ++i) v.push_back(i);
  EXPECT_NEAR(WindowedTail(v, 99), Quantile(v, 0.99), 1e-12);
  // Three windows of 1000, one with a stall: the median window wins.
  std::vector<double> w;
  for (int k = 0; k < 3; ++k) {
    for (int i = 0; i < 1000; ++i) w.push_back(k == 1 && i >= 950 ? 100.0 : 1.0);
  }
  EXPECT_NEAR(WindowedTail(w, 99), 1.0, 1e-12);
  // A remainder shorter than a window joins the last window.
  w.resize(3999, 1.0);
  EXPECT_NEAR(WindowedTail(w, 99), 1.0, 1e-12);
  // p75 windows are 40 samples long.
  std::vector<double> x;
  for (int i = 0; i < 80; ++i) x.push_back(i < 40 ? i : 1000 + i);
  EXPECT_NEAR(WindowedTail(x, 75),
              (Quantile(std::vector<double>(x.begin(), x.begin() + 40), 0.75) +
               Quantile(std::vector<double>(x.begin() + 40, x.end()), 0.75)) / 2,
              1e-9);
}

void TestOpenLoopTimedFromSchedule() {
  // Three requests due at t = 0, 1, 2. The generator stalls: the second
  // and third go out 0.5 late. Latency counts from the due time, so the
  // stall is charged to the requests it delayed.
  std::vector<OpenLoopSample> s = {
      {0.0, 0.0, 0.1, true},
      {1.0, 1.5, 1.6, true},
      {2.0, 2.5, 2.6, true},
  };
  OpenLoopSummary sum = SummarizeOpenLoop(s);
  EXPECT(sum.attempted == 3 && sum.failed == 0);
  EXPECT(sum.latency_s.size() == 3);
  EXPECT_NEAR(sum.latency_s[0], 0.1, 1e-12);
  EXPECT_NEAR(sum.latency_s[2], 0.6, 1e-12);
  EXPECT_NEAR(sum.p50_s, 0.6, 1e-12);
  // Lateness: 0, 0.5, 0.5 -> p99 interpolates to 0.5.
  EXPECT_NEAR(sum.late_p99_s, 0.5, 1e-12);
  // Last reply 0.6 after the last due send.
  EXPECT_NEAR(sum.backlog_s, 0.6, 1e-12);

  // A failed request counts as attempted and failed, and adds no latency;
  // a missing reply (received = 0) is a failure too.
  s.push_back({3.0, 3.0, 3.05, false});
  s.push_back({4.0, 4.0, 0.0, false});
  sum = SummarizeOpenLoop(s);
  EXPECT(sum.attempted == 5 && sum.failed == 2);
  EXPECT(sum.latency_s.size() == 3);
  EXPECT_NEAR(sum.backlog_s, 0.0, 1e-12);  // last ok reply before last due
}

void TestSpanSelfTimes() {
  // root [0, 100] with children [10, 30] and [20, 50] (overlapping: they
  // cover [10, 50] once) and [90, 120] (clipped to [90, 100]); a
  // grandchild under the first child does not count against the root.
  std::vector<Span> spans = {
      {1, 0, 7, "bench.request", 0, 100},
      {2, 1, 7, "net.send", 10, 30},
      {3, 1, 7, "net.wait", 20, 50},
      {4, 1, 7, "core.tail", 90, 120},
      {5, 2, 7, "encoding.crc", 12, 18},
  };
  const std::vector<std::int64_t> self = SelfTimesNs(spans);
  EXPECT(self[0] == 100 - 40 - 10);
  EXPECT(self[1] == 20 - 6);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 30);
  EXPECT(self[4] == 6);

  const auto layers = SelfMsByLayer(spans);
  EXPECT_NEAR(layers.at("bench"), 50e-6, 1e-12);
  EXPECT_NEAR(layers.at("net"), 44e-6, 1e-12);
  EXPECT_NEAR(layers.at("core"), 30e-6, 1e-12);
  EXPECT_NEAR(layers.at("encoding"), 6e-6, 1e-12);

  const auto totals = TotalsByName(spans);
  EXPECT(totals.at("bench.request").count == 1);
  EXPECT_NEAR(totals.at("bench.request").total_ms, 100e-6, 1e-12);
  EXPECT_NEAR(totals.at("bench.request").self_ms, 50e-6, 1e-12);
  EXPECT(LayerOf("core.kernel_us.right") == "core");
}

void TestTracerRecordsOnlyWhenEnabled() {
  Tracer off(false);
  EXPECT(off.Begin("core.right") == 0);
  EXPECT(off.Record("net.wait", 0, 1, 0, 5) == 0);
  EXPECT(off.Spans().empty());

  Tracer on(true);
  std::uint64_t root = 0;
  {
    ScopedSpan span(on, "bench.iter");
    root = span.id();
    ScopedSpan child(on, "core.right", root);
  }
  const std::vector<Span> spans = on.Spans();
  EXPECT(spans.size() == 2);
  EXPECT(spans[0].name == "core.right" && spans[0].parent == root);
  EXPECT(spans[1].name == "bench.iter" && spans[1].end_ns >= spans[1].start_ns);
}

void TestOraclesRejectOneUlp() {
  const std::vector<double> want = {1.0, -2.5, 0.0, 3e-300, 1e300};
  EXPECT(CheckBitwise(want, want).empty());
  // Every serving, cluster and lossless-store reply is compared bitwise:
  // one ulp in any entry is a failure.
  for (std::size_t i = 0; i < want.size(); ++i) {
    std::vector<double> got = want;
    got[i] = std::nextafter(got[i], std::numeric_limits<double>::infinity());
    EXPECT(!CheckBitwise(got, want).empty());
  }
  std::vector<double> signed_zero = want;
  signed_zero[2] = -0.0;
  EXPECT(!CheckBitwise(signed_zero, want).empty());
  EXPECT(!CheckBitwise(std::vector<double>(want.begin(), want.end() - 1), want)
              .empty());

  // The Eq. (4) oracle compares against CSR with a stated relative
  // tolerance: one ulp passes it, anything beyond the tolerance fails.
  const std::vector<double> x = {0.5, -1.0, 0.25};
  std::vector<double> ulp = x;
  ulp[1] = std::nextafter(ulp[1], 0.0);
  EXPECT(CheckRelative(ulp, x, 1e-9).empty());
  std::vector<double> off = x;
  off[0] += 2e-9;  // scale is max |x| = 1
  EXPECT(!CheckRelative(off, x, 1e-9).empty());
  std::vector<double> nan = x;
  nan[2] = std::nan("");
  EXPECT(!CheckRelative(nan, x, 1e-9).empty());
  EXPECT(!CheckRelative(std::vector<double>{0.5}, x, 1e-9).empty());
}

}  // namespace

int main() {
  TestHighestSupportedPercentile();
  TestQuantile();
  TestWindowedTail();
  TestOpenLoopTimedFromSchedule();
  TestSpanSelfTimes();
  TestTracerRecordsOnlyWhenEnabled();
  TestOraclesRejectOneUlp();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_tests: all passed\n");
  return 0;
}
