// Cousin pair items (paper §2, Table 1) and mining options.

#ifndef COUSINS_CORE_COUSIN_PAIR_H_
#define COUSINS_CORE_COUSIN_PAIR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/cousin_distance.h"
#include "tree/label_table.h"

namespace cousins {

/// Wildcard occurrence count ("@" in the paper).
inline constexpr int64_t kAnyOccurrence = -1;

/// A cousin pair item (λ(u), λ(v), c_dist(u,v), occur(u,v)): an unordered
/// label pair, the cousin distance (as 2·d), and the number of node pairs
/// in the tree realizing it. Labels are canonicalized label1 <= label2.
struct CousinPairItem {
  LabelId label1 = kNoLabel;
  LabelId label2 = kNoLabel;
  int twice_distance = kUndefinedDistance;
  int64_t occurrences = 0;

  friend bool operator==(const CousinPairItem&,
                         const CousinPairItem&) = default;

  /// Orders by (label1, label2, distance, occurrences) — the canonical
  /// output order of every miner.
  friend auto operator<=>(const CousinPairItem&,
                          const CousinPairItem&) = default;
};

namespace internal {

/// Packs an unordered label pair canonically (min in the high word) —
/// the uint64 key of every pair-keyed tally table (tally_map.h).
/// Labels are non-negative, so the all-ones empty sentinel is safe.
inline uint64_t PackLabelPair(LabelId a, LabelId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint32_t>(b);
}

inline LabelId UnpackFirst(uint64_t key) {
  return static_cast<LabelId>(key >> 32);
}
inline LabelId UnpackSecond(uint64_t key) {
  return static_cast<LabelId>(key & 0xFFFFFFFFu);
}

}  // namespace internal

/// Key identifying a cousin pair at a distance (occurrence-agnostic).
struct CousinPairKey {
  LabelId label1 = kNoLabel;
  LabelId label2 = kNoLabel;
  int twice_distance = kUndefinedDistance;

  friend bool operator==(const CousinPairKey&,
                         const CousinPairKey&) = default;
  friend auto operator<=>(const CousinPairKey&,
                          const CousinPairKey&) = default;
};

struct CousinPairKeyHash {
  size_t operator()(const CousinPairKey& k) const {
    uint64_t h = static_cast<uint32_t>(k.label1);
    h = h * 0x9E3779B97F4A7C15ULL + static_cast<uint32_t>(k.label2);
    h = h * 0x9E3779B97F4A7C15ULL +
        static_cast<uint32_t>(k.twice_distance + 3);
    h ^= h >> 29;
    return static_cast<size_t>(h * 0xBF58476D1CE4E5B9ULL);
  }
};

/// Options shared by the single-tree miners (paper Table 2 defaults).
struct MiningOptions {
  /// maxdist, stored as 2·d. Default 3 == the paper's 1.5.
  int twice_maxdist = 3;
  /// minoccur: minimum occurrences of a pair within one tree.
  int64_t min_occur = 1;

  /// Memberwise; keeps shard-compatibility checks (MergeFrom) complete
  /// as fields are added.
  friend bool operator==(const MiningOptions&,
                         const MiningOptions&) = default;
};

/// "(a, b, 1.5, 2)" — Table 1 rendering of an item.
std::string FormatCousinPairItem(const LabelTable& labels,
                                 const CousinPairItem& item);

/// Canonicalizes and sorts items in place: ensures label1 <= label2 and
/// the canonical ordering used to compare miner outputs.
void CanonicalizeItems(std::vector<CousinPairItem>* items);

}  // namespace cousins

#endif  // COUSINS_CORE_COUSIN_PAIR_H_
