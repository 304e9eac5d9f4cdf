// The conformance spec list: every registered engine spec plus variants
// exercising the parameter grammar. Shared by the suites that run an
// oracle over every spec, so a spec added here is covered by all of them.
#pragma once

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "core/any_matrix.hpp"

namespace gcm {

/// Every registered spec plus variants exercising the parameter grammar,
/// and a sharded wrapper of every registered spec (the serving layer must
/// be a drop-in kernel, so the whole suite runs against it too).
inline std::vector<std::string> ConformanceSpecs() {
  std::vector<std::string> specs = AnyMatrix::ListSpecs();
  for (const std::string& base : AnyMatrix::ListSpecs()) {
    // Nesting scatter/gather families is rejected by design.
    if (base == "sharded" || base == "cluster") continue;
    specs.push_back("sharded?inner=" + base + "&rows_per_shard=16");
  }
  specs.push_back("gcm:re_32?blocks=4");
  specs.push_back("gcm:re_ans?blocks=3&fold_bits=10");
  specs.push_back("gcm:re_iv?max_rules=8");
  specs.push_back("cla?co_code=0");
  specs.push_back("auto?budget=64MiB&blocks=2");
  // Inner specs escape '&' as '+'; the escaped form must conform too.
  specs.push_back("sharded?inner=gcm:re_ans?blocks=2+fold_bits=10&shards=3");
  // Multi-node serving: a loopback cluster (real TCP workers) must be a
  // drop-in kernel like everything else.
  specs.push_back("cluster?workers=2&shards=3&inner=csr");
  specs.push_back("cluster?workers=3&shards=3&replicas=2&inner=csrv");
  return specs;
}

inline std::string SpecTestName(
    const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

}  // namespace gcm
