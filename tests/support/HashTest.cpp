//===- tests/support/HashTest.cpp -----------------------------------------===//
//
// The one FNV-1a-64. Its values are persisted (on-disk JIT cache keys) and
// compared across processes (serve's result_fnv), so the published
// reference vectors are pinned here.
//
//===----------------------------------------------------------------------===//

#include "support/Hash.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

using namespace lcdfg;

namespace {

std::uint64_t fnvOf(std::string_view S) {
  return support::fnv1a64(S.data(), S.size());
}

} // namespace

TEST(Fnv1a, MatchesTheReferenceVectors) {
  EXPECT_EQ(fnvOf(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnvOf("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnvOf("foobar"), 0x85944171f73967e8ull);
}

TEST(Fnv1a, SeedChainsAcrossCalls) {
  // Hashing "foo" then "bar" from the first result equals hashing
  // "foobar" in one call — how multi-buffer checksums are built.
  EXPECT_EQ(support::fnv1a64("bar", 3, fnvOf("foo")), fnvOf("foobar"));
}

TEST(Fnv1a, MixU64FoldsLittleEndianBytes) {
  const std::uint64_t V = 0x0102030405060708ull;
  const unsigned char LittleEndian[8] = {8, 7, 6, 5, 4, 3, 2, 1};
  EXPECT_EQ(support::fnvMixU64(support::FnvOffsetBasis, V),
            support::fnv1a64(LittleEndian, sizeof(LittleEndian)));
  EXPECT_NE(support::fnvMixU64(support::FnvOffsetBasis, V),
            support::fnvMixU64(support::FnvOffsetBasis, V + 1));
}
