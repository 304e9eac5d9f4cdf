// Tail-latency load harness for the networked serving subsystem.
//
// Closed-loop generator: --connections client threads, each keeping
// --depth pipelined requests in flight on its own connection, for
// --requests requests per connection. Per-request latency is measured
// from send to reply-frame read; the run reports p50/p95/p99 and
// throughput, appended as tidy rows to --csv for the bench_gate artifact
// comparison (serve_latency.csv in CI).
//
// Query mixes (--mix): right | left | range | mixed (per-request
// round-robin over all three; range requests share one fixed row window).
//
// Topologies (--topology): local serves --spec directly; cluster serves
// the same matrix through a coordinator that scatters every request over
// --workers loopback worker servers (the src/net/cluster/ path: client ->
// coordinator -> per-range worker requests -> gather); both runs both and
// appends scatter_vs_local ratio rows (serve_cluster.csv in CI) so the
// scatter overhead is tracked run over run.

#include <algorithm>
#include <cstdio>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace gcm {
namespace {

struct LoadResult {
  double p50_sec = 0;
  double p95_sec = 0;
  double p99_sec = 0;
  double throughput_rps = 0;
};

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  double pos = q * static_cast<double>(sorted.size() - 1);
  std::size_t lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

/// One client thread: closed loop with a pipelined window.
void RunConnection(u16 port, const std::string& mix, std::size_t requests,
                   std::size_t depth, std::size_t conn_index,
                   const DenseMatrix& dense, std::vector<double>* latencies,
                   std::string* error) {
  try {
    Client client = Client::Connect("127.0.0.1", port);
    Rng rng(1000 + conn_index);
    std::vector<double> x(dense.cols());
    std::vector<double> y(dense.rows());
    for (auto& v : x) v = rng.NextDouble() * 2.0 - 1.0;
    for (auto& v : y) v = rng.NextDouble() * 2.0 - 1.0;
    const u64 range_begin = static_cast<u64>(dense.rows()) / 4;
    const u64 range_end = static_cast<u64>(dense.rows()) / 2;

    struct InFlight {
      u64 id;
      std::chrono::steady_clock::time_point sent;
    };
    std::deque<InFlight> window;
    std::size_t sent = 0;
    std::size_t done = 0;
    auto send_one = [&]() {
      std::string kind = mix;
      if (mix == "mixed") {
        switch ((conn_index + sent) % 3) {
          case 0: kind = "right"; break;
          case 1: kind = "left"; break;
          default: kind = "range"; break;
        }
      }
      auto before = std::chrono::steady_clock::now();
      u64 id = 0;
      if (kind == "right") {
        id = client.SendMvmRight(x);
      } else if (kind == "left") {
        id = client.SendMvmLeft(y);
      } else {
        id = client.SendMvmRight(x, range_begin, range_end);
      }
      window.push_back({id, before});
      ++sent;
    };

    while (done < requests) {
      while (sent < requests && window.size() < depth) send_one();
      InFlight head = window.front();
      window.pop_front();
      Client::Response reply = client.Await(head.id);
      GCM_CHECK_MSG(reply.type == MsgType::kMvmReply,
                    "connection " << conn_index << ": request " << head.id
                                  << " answered "
                                  << NetErrorName(reply.error) << " ("
                                  << reply.message << ")");
      latencies->push_back(
          std::chrono::duration<double>(reply.recv_time - head.sent)
              .count());
      ++done;
    }
    client.Close();
  } catch (const std::exception& e) {
    *error = e.what();
  }
}

LoadResult RunLoad(const DenseMatrix& dense, const AnyMatrix& matrix,
                   const CliParser& cli) {
  ServerConfig config;
  config.max_connections =
      static_cast<std::size_t>(cli.GetInt("connections")) + 8;
  Server server(matrix, config);
  server.Start();

  const std::size_t connections =
      static_cast<std::size_t>(cli.GetInt("connections"));
  const std::size_t requests =
      static_cast<std::size_t>(cli.GetInt("requests"));
  const std::size_t depth = static_cast<std::size_t>(cli.GetInt("depth"));
  const std::string mix = cli.GetString("mix");

  std::vector<std::vector<double>> latencies(connections);
  std::vector<std::string> errors(connections);
  std::vector<std::thread> threads;
  threads.reserve(connections);
  Timer wall;
  for (std::size_t c = 0; c < connections; ++c) {
    latencies[c].reserve(requests);
    threads.emplace_back(RunConnection, server.port(), mix, requests, depth,
                         c, std::cref(dense), &latencies[c], &errors[c]);
  }
  for (auto& t : threads) t.join();
  double wall_sec = wall.Seconds();
  server.Stop();

  for (const std::string& error : errors) {
    GCM_CHECK_MSG(error.empty(), "load thread failed: " << error);
  }

  std::vector<double> all;
  all.reserve(connections * requests);
  for (const auto& per_conn : latencies) {
    all.insert(all.end(), per_conn.begin(), per_conn.end());
  }
  std::sort(all.begin(), all.end());

  LoadResult result;
  result.p50_sec = Percentile(all, 0.50);
  result.p95_sec = Percentile(all, 0.95);
  result.p99_sec = Percentile(all, 0.99);
  result.throughput_rps = static_cast<double>(all.size()) / wall_sec;
  return result;
}

void Report(bench::CsvAppender* csv, const std::string& mix,
            const std::string& config, const LoadResult& r) {
  std::printf("%-8s %-16s p50 %9.3f us  p95 %9.3f us  p99 %9.3f us  "
              "%10.0f req/s\n",
              mix.c_str(), config.c_str(), r.p50_sec * 1e6, r.p95_sec * 1e6,
              r.p99_sec * 1e6, r.throughput_rps);
  csv->Row("serve_load", mix, config, "p50_sec", r.p50_sec);
  csv->Row("serve_load", mix, config, "p95_sec", r.p95_sec);
  csv->Row("serve_load", mix, config, "p99_sec", r.p99_sec);
  csv->Row("serve_load", mix, config, "throughput_rps", r.throughput_rps);
}

int Main(int argc, char** argv) {
  CliParser cli("serve_load",
                "closed-loop tail-latency load generator for the MVM "
                "serving subsystem");
  cli.AddFlag("connections", "8", "concurrent client connections");
  cli.AddFlag("requests", "200", "requests per connection");
  cli.AddFlag("depth", "4", "pipelined requests in flight per connection");
  cli.AddFlag("mix", "mixed", "query mix: right | left | range | mixed");
  cli.AddFlag("rows", "512", "served matrix rows");
  cli.AddFlag("cols", "96", "served matrix cols");
  cli.AddFlag("spec", "sharded?inner=csr&shards=4",
              "engine spec of the served matrix");
  cli.AddFlag("topology", "local",
              "serving topology: local | cluster | both (cluster scatters "
              "every request over loopback worker servers; both also "
              "appends scatter_vs_local ratio rows)");
  cli.AddFlag("workers", "2", "worker servers in the cluster topology");
  cli.AddFlag("replicas", "1",
              "replica endpoints per row range in the cluster topology");
  cli.AddFlag("csv", "",
              "append tidy result rows (bench,dataset,config,metric,value) "
              "to this CSV file");
  if (!cli.Parse(argc, argv)) return 0;

  const std::string mix = cli.GetString("mix");
  GCM_CHECK_MSG(mix == "right" || mix == "left" || mix == "range" ||
                    mix == "mixed",
                "unknown --mix: " << mix);
  const std::string topology = cli.GetString("topology");
  GCM_CHECK_MSG(topology == "local" || topology == "cluster" ||
                    topology == "both",
                "unknown --topology: " << topology);

  Rng rng(20260807);
  DenseMatrix dense =
      DenseMatrix::Random(static_cast<std::size_t>(cli.GetInt("rows")),
                          static_cast<std::size_t>(cli.GetInt("cols")), 0.3,
                          5, &rng);
  bench::CsvAppender csv(cli);
  const std::string conns = "c" + cli.GetString("connections");

  // One load run per topology; its CSV config key is the topology prefix
  // plus the connection count (e.g. c8, cluster_c8).
  auto run_topology = [&](const AnyMatrix& matrix,
                          const std::string& topo_prefix) -> LoadResult {
    bench::PrintHeader("serve_load: " + matrix.FormatTag() + ", " +
                       cli.GetString("connections") + " connections x " +
                       cli.GetString("requests") + " requests, mix=" + mix);
    LoadResult result = RunLoad(dense, matrix, cli);
    Report(&csv, mix, topo_prefix + conns, result);
    return result;
  };

  LoadResult local_result;
  LoadResult cluster_result;
  if (topology == "local" || topology == "both") {
    AnyMatrix matrix = AnyMatrix::Build(dense, cli.GetString("spec"));
    local_result = run_topology(matrix, "");
  }
  if (topology == "cluster" || topology == "both") {
    // The registry's loopback-cluster build: local sharded matrix behind
    // --workers real TCP worker servers, coordinator kernel in front. The
    // load generator then talks to a coordinator Server over that kernel,
    // so every request crosses the wire twice (client -> coordinator ->
    // workers).
    std::string cluster_spec = "cluster?inner=csr&workers=" +
                               cli.GetString("workers") +
                               "&replicas=" + cli.GetString("replicas");
    AnyMatrix matrix = AnyMatrix::Build(dense, cluster_spec);
    cluster_result = run_topology(matrix, "cluster_");
  }

  if (topology == "both") {
    // Informational ratio rows (not gated as timed metrics): how much the
    // extra hop + scatter/gather costs against serving the same matrix
    // from one process.
    double throughput_ratio =
        cluster_result.throughput_rps / local_result.throughput_rps;
    double p99_ratio = cluster_result.p99_sec / local_result.p99_sec;
    csv.Row("serve_load", mix, "scatter_vs_local_" + conns,
            "throughput_ratio", throughput_ratio);
    csv.Row("serve_load", mix, "scatter_vs_local_" + conns, "p99_ratio",
            p99_ratio);
    std::printf("scatter vs local: throughput x%.2f, p99 x%.2f\n",
                throughput_ratio, p99_ratio);
  }
  return 0;
}

}  // namespace
}  // namespace gcm

int main(int argc, char** argv) {
  try {
    return gcm::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_load: %s\n", e.what());
    return 1;
  }
}
