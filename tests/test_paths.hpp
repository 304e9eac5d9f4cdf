// Scratch paths for tests that write files.
//
// CTest runs every test case as its own process, often many at once
// (`ctest -j`, `--repeat`), so a fixed name under ::testing::TempDir() is
// shared by every case and every concurrent run that picks it. ScratchPath
// gives each test its own name instead: gtest suite + test name inside a
// per-process directory (pid), removed again when the process exits.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace gcm {

/// Returns "<TempDir>/gcm_test_<pid>/<suite>.<test>.<name>"; the same
/// name within one test returns the same path. Parameterized suite and
/// test names contain '/', which becomes '_'.
inline std::string ScratchPath(const std::string& name) {
  namespace fs = std::filesystem;
  struct ProcessDir {
    fs::path path = fs::path(::testing::TempDir()) /
                    ("gcm_test_" + std::to_string(getpid()));
    ProcessDir() { fs::create_directories(path); }
    ~ProcessDir() {
      std::error_code ignored;
      fs::remove_all(path, ignored);
    }
  };
  static const ProcessDir dir;

  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string stem = info == nullptr ? std::string("no_test")
                                     : std::string(info->test_suite_name()) +
                                           '.' + info->name();
  for (char& c : stem) {
    if (c == '/') c = '_';
  }
  return (dir.path / (stem + '.' + name)).string();
}

}  // namespace gcm
