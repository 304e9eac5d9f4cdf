// Shared infrastructure for the table/figure reproduction benches.
//
// Every bench binary regenerates one table or figure of the paper on the
// synthetic dataset replicas. Datasets are scaled by --scale (rows =
// paper_rows / scale) so the default run finishes in minutes on a laptop;
// --scale 1 reproduces the full row counts given enough time and memory.
#pragma once

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/any_matrix.hpp"
#include "matrix/datasets.hpp"
#include "matrix/dense_matrix.hpp"
#include "util/cli.hpp"
#include "util/common.hpp"
#include "util/thread_pool.hpp"

namespace gcm::bench {

/// Registers the flags shared by all benches.
inline void AddCommonFlags(CliParser* cli) {
  cli->AddFlag("scale", "500",
               "row-count divisor applied to the paper's datasets");
  cli->AddFlag("datasets", "all",
               "comma-separated dataset names (default: all seven)");
  cli->AddFlag("snapshot_cache", "",
               "directory caching compressed operands as snapshots keyed by "
               "(dataset, scale, spec); empty = rebuild every run");
  cli->AddFlag("csv", "",
               "append tidy result rows (bench,dataset,config,metric,value) "
               "to this CSV file");
  cli->AddFlag("build_threads", "0",
               "construction worker threads for operand builds (0 = all "
               "hardware threads, 1 = sequential); builds are deterministic, "
               "so timed results are unaffected");
}

/// The shared construction pool of a bench run (per --build_threads;
/// nullptr when 1). Benches time multiplication, not construction, so
/// building operands on the pool only shortens the run -- determinism
/// guarantees the operands are bit-identical to a sequential build.
/// Spawned on the first call, so cache-hit-only runs never pay for it.
inline ThreadPool* BuildPool(const CliParser& cli) {
  static bool spawned = false;
  static std::unique_ptr<ThreadPool> pool;
  if (!spawned) {
    pool = MakePoolForThreads(
        static_cast<std::size_t>(cli.GetInt("build_threads")));
    spawned = true;
  }
  return pool.get();
}

/// Resolves --datasets into profile pointers.
inline std::vector<const DatasetProfile*> SelectDatasets(
    const CliParser& cli) {
  std::vector<const DatasetProfile*> selected;
  std::string spec = cli.GetString("datasets");
  if (spec == "all") {
    for (const DatasetProfile& profile : PaperDatasets()) {
      selected.push_back(&profile);
    }
    return selected;
  }
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t comma = spec.find(',', start);
    std::string name = spec.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!name.empty()) selected.push_back(&DatasetByName(name));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  GCM_CHECK_MSG(!selected.empty(), "no datasets selected");
  return selected;
}

inline DenseMatrix Generate(const DatasetProfile& profile,
                            const CliParser& cli) {
  return GenerateDataset(profile,
                         static_cast<std::size_t>(cli.GetInt("scale")));
}

/// Percentage of the dense footprint, printed as the paper does.
inline double Pct(u64 bytes, u64 dense_bytes) {
  return 100.0 * static_cast<double>(bytes) /
         static_cast<double>(dense_bytes);
}

/// Builds an engine matrix for a bench, serving it from the snapshot cache
/// when `--snapshot_cache DIR` is set: the first run compresses and saves,
/// later runs load the stored representation as-is (RePair never re-runs).
/// Cache keys are (dataset, scale, spec); stale entries whose dimensions no
/// longer match the generated operand are rebuilt and overwritten.
inline AnyMatrix BuildCached(const DenseMatrix& dense,
                             const std::string& spec,
                             const DatasetProfile& profile,
                             const CliParser& cli) {
  std::string dir = cli.GetString("snapshot_cache");
  if (dir.empty()) {
    return AnyMatrix::Build(dense, spec, {.pool = BuildPool(cli)});
  }

  std::string key = profile.name + "_s" + cli.GetString("scale") + "_" + spec;
  for (char& c : key) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '-') {
      c = '-';
    }
  }
  std::filesystem::create_directories(dir);
  std::filesystem::path path =
      std::filesystem::path(dir) / (key + ".gcsnap");
  if (std::filesystem::exists(path)) {
    try {
      AnyMatrix cached = AnyMatrix::Load(path.string());
      if (cached.rows() == dense.rows() && cached.cols() == dense.cols()) {
        return cached;
      }
      std::fprintf(stderr, "note: cache entry %s is stale, rebuilding\n",
                   path.string().c_str());
    } catch (const std::exception& e) {
      // An interrupted earlier run may have left a corrupt entry; the
      // cache is disposable, so rebuild rather than fail the bench.
      std::fprintf(stderr, "note: cache entry %s is unreadable (%s), "
                           "rebuilding\n",
                   path.string().c_str(), e.what());
    }
  }
  AnyMatrix built = AnyMatrix::Build(dense, spec, {.pool = BuildPool(cli)});
  built.Save(path.string());  // staged + renamed: never a truncated entry
  return built;
}

/// Appends tidy rows to the shared bench CSV (`--csv FILE`); disabled when
/// the flag is empty. The header is written once per file.
class CsvAppender {
 public:
  explicit CsvAppender(const CliParser& cli) {
    std::string path = cli.GetString("csv");
    if (path.empty()) return;
    bool fresh = !std::filesystem::exists(path) ||
                 std::filesystem::file_size(path) == 0;
    file_ = std::fopen(path.c_str(), "a");
    GCM_CHECK_MSG(file_ != nullptr, "cannot open csv file: " << path);
    if (fresh) {
      std::fprintf(file_, "bench,dataset,config,metric,value\n");
    }
  }
  ~CsvAppender() {
    if (file_ != nullptr) std::fclose(file_);
  }
  CsvAppender(const CsvAppender&) = delete;
  CsvAppender& operator=(const CsvAppender&) = delete;

  bool enabled() const { return file_ != nullptr; }

  void Row(const std::string& bench, const std::string& dataset,
           const std::string& config, const std::string& metric,
           double value) {
    if (file_ == nullptr) return;
    std::fprintf(file_, "%s,%s,%s,%s,%.6g\n", bench.c_str(), dataset.c_str(),
                 config.c_str(), metric.c_str(), value);
  }

 private:
  std::FILE* file_ = nullptr;
};

inline void PrintHeader(const std::string& title) {
  std::printf("==================================================="
              "=========================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==================================================="
              "=========================\n");
}

}  // namespace gcm::bench
