// The benchmark binary: runs one workload and prints its metrics.
//
//   perfbench --workload solve|serve|ingest|cluster --seed N --seconds S
//             --trace 0|1 --workdir DIR --outdir DIR
//
// DIR given to --workdir must not exist: the run creates it, keeps every
// file it writes there and removes it on exit. --outdir receives the run
// record (and, traced, the spans) as files named by workload, seed and pid.
// Human-readable lines come first; the last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"} with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "util/simd.hpp"
#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;
using perfbench::Metric;

struct Args {
  perfbench::RunOptions run;
  std::string outdir;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "solve|serve|ingest|cluster --seed N --seconds S --trace 0|1 "
               "--workdir DIR --outdir DIR\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have[6] = {};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.run.workload = value;
        have[0] = true;
      } else if (flag == "--seed") {
        args.run.seed = std::stoull(value);
        have[1] = true;
      } else if (flag == "--seconds") {
        args.run.seconds = std::stod(value);
        have[2] = args.run.seconds > 0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
        args.run.trace = value == "1";
        have[3] = true;
      } else if (flag == "--workdir") {
        args.run.workdir = value;
        have[4] = true;
      } else if (flag == "--outdir") {
        args.outdir = value;
        have[5] = true;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  for (bool h : have) {
    if (!h) Usage("every flag is required (and --seconds must be > 0)");
  }
  bool known = false;
  for (const auto& w : perfbench::WorkloadNames()) known |= w == args.run.workload;
  if (!known) Usage("unknown workload " + args.run.workload);
  return args;
}

/// Creates the run's private directory and removes it on every exit path.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& path) : path_(path) {
    if (!fs::create_directories(path_)) {
      throw std::runtime_error("work directory already exists: " + path_);
    }
  }
  ~ScratchDir() {
    std::error_code ignored;
    fs::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

 private:
  std::string path_;
};

std::string Num(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

double MiB(long bytes) { return static_cast<double>(bytes) / (1 << 20); }

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const perfbench::RunOptions& opt = args.run;
  try {
    fs::create_directories(args.outdir);
    const std::string stem = (fs::path(args.outdir) /
                              (opt.workload + "-seed" + std::to_string(opt.seed) +
                               "-pid" + std::to_string(getpid())))
                                 .string();
    perfbench::RunResult result;
    {
      ScratchDir scratch(opt.workdir);
      result = perfbench::RunWorkload(opt);
    }

    // Run record: the machine and build the numbers came from.
    const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
    const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
    std::ostringstream text;
    text << "workload " << opt.workload << "  seed " << opt.seed
         << "  seconds " << opt.seconds << "  trace " << opt.trace << "\n";
    text << "record  nproc " << std::thread::hardware_concurrency() << "  L2 "
         << Num(MiB(l2)) << " MiB  L3 " << Num(MiB(l3)) << " MiB  compiler "
         << PERFBENCH_CXX_COMPILER << "  simd " << gcm::simd::BackendName()
         << "\n";
    double stored_mb = 0.0;
    for (const Metric& m : result.reported) {
      text << "metric  " << m.name << " = " << Num(m.value) << " " << m.unit
           << "\n";
      if (m.name == "stored_bytes") stored_mb = m.value / (1 << 20);
    }
    const double fail_ratio =
        result.attempted == 0 ? 1.0
                              : static_cast<double>(result.failed) /
                                    static_cast<double>(result.attempted);
    text << "metric  fail_ratio = " << Num(fail_ratio) << " (" << result.failed
         << " of " << result.attempted << " checked operations failed)\n";
    text << "note    page cache is warm: setup_s reopens files this run "
            "wrote, so it measures map + checksum + parse, not disk reads\n";
    if (l3 > 0 && stored_mb < MiB(l3)) {
      text << "note    the stored matrix (" << Num(stored_mb)
           << " MiB) fits in the " << Num(MiB(l3))
           << " MiB L3: kernel times are cache-resident, not "
              "memory-bandwidth-bound\n";
    }
    for (const std::string& n : result.notes) text << "note    " << n << "\n";
    if (opt.trace) {
      for (const Metric& m : result.per_layer) {
        text << "layer   " << m.name << " = " << Num(m.value) << " " << m.unit
             << "\n";
      }
      perfbench::WriteJsonLines(result.spans, stem + ".trace.jsonl");
      text << "trace   " << result.spans.size() << " spans written to " << stem
           << ".trace.jsonl\n";
    }
    std::ofstream(stem + ".record.txt") << text.str();
    std::fputs(text.str().c_str(), stdout);

    const bool correct = result.failed == 0 && result.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed),
                MetricsJson(opt.trace ? result.per_layer : result.end_to_end)
                    .c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
}
