// The benchmark's four workloads (README.md explains why each exists).
//
//   solve    Eq. (4) iterations over a mapped gcm:re_ans?blocks=16 snapshot
//            of a Mnist2m replica, on a 4-thread pool
//   serve    open-loop Poisson load on a Server over a lazily mapped
//            4-shard gcm:re_iv?blocks=2 store of a Census replica
//   ingest   MatrixStore::Partition of that replica, reopened and checked
//   cluster  closed-loop load on a coordinator Server over a 2-worker
//            loopback cluster of the same store
//
// Every workload reports the same gated end-to-end metrics, each read in
// the workload's own unit of work, plus its own names for them and the
// figures that are printed but not gated (the `reported` list). A traced
// run additionally records spans around the library calls it times and
// reports the per-layer metrics; a layer the workload never calls reads 0.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;  ///< measured time (extended, up to 3x, until the
                          ///< workload's tail percentile has 10 samples
                          ///< beyond it)
  bool trace = false;
  std::string workdir;    ///< private, existing scratch directory
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;  ///< oracle-checked operations
  std::uint64_t failed = 0;     ///< error replies, refusals, missing
                                ///< replies and oracle mismatches
  std::vector<Metric> end_to_end;  ///< gated metrics (always measured)
  std::vector<Metric> per_layer;   ///< traced run only
  std::vector<Metric> reported;    ///< the workload's own metric names
  std::vector<std::string> notes;  ///< failures and run-validity remarks
  std::vector<Span> spans;         ///< traced run only
};

const std::vector<std::string>& WorkloadNames();

/// Runs one workload. Throws on set-up errors (the run then has no result).
RunResult RunWorkload(const RunOptions& options);

}  // namespace perfbench
