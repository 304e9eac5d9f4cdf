// Output oracles. Each returns an empty string when the output is correct
// and otherwise a message naming the first mismatch, so a caller can count
// the failure and print why.
#pragma once

#include <span>
#include <string>

namespace perfbench {

/// Bitwise equality (the serving, cluster and lossless-store contracts:
/// batched = sequential, mapped = copied, cluster = local). Compares the
/// bit patterns, so -0.0 != 0.0 and equal NaN payloads match.
std::string CheckBitwise(std::span<const double> got,
                         std::span<const double> want);

/// Relative agreement: |got - want| <= rel_tol * max(|want|_inf, tiny) for
/// every entry (the Eq. (4) solve against a CSR run of the same iterations,
/// whose summation order differs from the grammar kernels').
std::string CheckRelative(std::span<const double> got,
                          std::span<const double> want, double rel_tol);

}  // namespace perfbench
