//===- support/Hash.h - FNV-1a-64 hashing -----------------------*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one FNV-1a-64 implementation. Its values are persisted and
/// compared across processes — on-disk JIT cache keys, the serve plan
/// cache's chain hash, the `result_fnv` bit-identity witness — so they
/// must never change: tests pin the published reference vectors.
///
//===----------------------------------------------------------------------===//

#ifndef LCDFG_SUPPORT_HASH_H
#define LCDFG_SUPPORT_HASH_H

#include <cstddef>
#include <cstdint>

namespace lcdfg {
namespace support {

inline constexpr std::uint64_t FnvOffsetBasis = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t FnvPrime = 0x100000001b3ull;

/// FNV-1a-64 over \p Len bytes at \p Data, continuing from \p Seed (the
/// offset basis starts a fresh hash; a previous result chains).
inline std::uint64_t fnv1a64(const void *Data, std::size_t Len,
                             std::uint64_t Seed = FnvOffsetBasis) {
  const auto *Bytes = static_cast<const unsigned char *>(Data);
  for (std::size_t I = 0; I < Len; ++I) {
    Seed ^= Bytes[I];
    Seed *= FnvPrime;
  }
  return Seed;
}

/// Folds the eight bytes of \p V into \p H in little-endian order, so the
/// result does not depend on the host's byte order.
inline std::uint64_t fnvMixU64(std::uint64_t H, std::uint64_t V) {
  for (int I = 0; I < 8; ++I) {
    H ^= static_cast<unsigned char>(V >> (I * 8));
    H *= FnvPrime;
  }
  return H;
}

} // namespace support
} // namespace lcdfg

#endif // LCDFG_SUPPORT_HASH_H
