/// \file wrap_int.h
/// \brief The one int64 overflow rule: SUM wraps modulo 2^64. Every SUM
/// implementation (the row executor, the column kernels, the grouped
/// kernel) adds through these helpers, so any merge order of partials is
/// bit-identical and overflow is defined rather than signed-overflow UB.
#pragma once

#include <cstdint>

namespace ofi {

/// a + b modulo 2^64.
inline int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

/// a * b modulo 2^64 (a run-length-encoded value times its run length).
inline int64_t WrapMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}

}  // namespace ofi
