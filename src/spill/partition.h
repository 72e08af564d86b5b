#ifndef TMDB_SPILL_PARTITION_H_
#define TMDB_SPILL_PARTITION_H_

#include <cstddef>
#include <cstdint>

#include "base/hash.h"

namespace tmdb {

/// Partition fan-out per recursion level and the recursion bound, shared by
/// every operator that hash-partitions state to disk (hash/nest-join build
/// and probe, ν/ν* grouped materialisation). Fanout^depth partitions
/// suffice for any skew a rehash can resolve; a partition that still
/// overflows at the bound (single giant key or group) fails with
/// kResourceExhausted — bounded degradation, not an unbounded disk walk.
inline constexpr size_t kSpillFanout = 8;
inline constexpr int kMaxSpillDepth = 6;

/// The partition of a key hash at recursion level `level` (level 0 is the
/// first write-out). The mix decorrelates the choice across levels, so a
/// partition does not map onto itself one level down.
inline size_t SpillPartitionOf(uint64_t key_hash, int level) {
  return static_cast<size_t>(
      Mix64(key_hash +
            0x9e3779b97f4a7c15ull * static_cast<uint64_t>(level + 1)) %
      kSpillFanout);
}

}  // namespace tmdb

#endif  // TMDB_SPILL_PARTITION_H_
