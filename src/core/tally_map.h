// Flat open-addressing tally tables — every pair-keyed counter of the
// miner, from the per-tree inclusion–exclusion accumulators to the
// forest-wide support tallies of Multiple_Tree_Mining. A node-based
// unordered_map pays a heap allocation per distinct pair plus a pointer
// chase per fold; this linear-probing table keeps its fields in
// parallel flat arrays (structure-of-arrays), so the probe stream
// touches one dense uint64 array and the counters it updates stay on
// their own cache lines.
//
// One class template serves every table, parameterized on
//   * the key: a packed label pair (PackLabelPair in cousin_pair.h —
//     labels are interned into dense uint32 ids forest-wide, so a
//     canonical unordered pair fits one uint64 and hashing is a single
//     integer mix), or a packed pair plus a uint32 aux word (PairAux);
//   * the value: one signed count (int64_t), or a Tally of support and
//     occurrences.
// The cousin distance is never part of the key: the miners keep one
// table per distance value (distances are small integers bounded by
// twice_maxdist), which keeps the key dense and makes per-distance
// iteration free.

#ifndef COUSINS_CORE_TALLY_MAP_H_
#define COUSINS_CORE_TALLY_MAP_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/fault_injection.h"
#include "util/hugepage.h"
#include "util/overflow.h"

namespace cousins {
namespace internal {

/// Key of the variant tables, whose item identity does not fit (table,
/// label pair) alone: the generalized miner packs (h, v) into the aux
/// word, the weighted miner its weight bucket. The aux word is mixed
/// into the probe hash so entries sharing a label pair spread apart.
struct PairAux {
  uint64_t pair = 0;
  uint32_t aux = 0;

  friend bool operator==(const PairAux&, const PairAux&) = default;
};

/// Value of a support table: the number of trees supporting an item
/// and its total occurrences across them.
struct Tally {
  int32_t support = 0;
  int64_t occurrences = 0;

  friend bool operator==(const Tally&, const Tally&) = default;
};

/// Key -> value with linear probing over power-of-two capacity.
///
/// Every update saturates (adversarial corpora clamp instead of
/// wrapping). A slot whose value nets to exactly zero — a signed count
/// cancelled by a negative delta (inclusion–exclusion), or a Tally
/// retracted by Subtract (the resident daemon's RETRACT) — keeps its
/// probe slot (erasing from a linear-probe chain would break lookups
/// for keys probing past it) but is invisible to ForEach and purged on
/// the next rehash. Growth is purge-before-grow: capacity only doubles
/// when the live entries alone would keep the table over half full, so
/// add/cancel churn cannot ratchet capacity upward.
template <typename Key, typename Value>
class TallyTable {
  static constexpr bool kAux = std::is_same_v<Key, PairAux>;
  static constexpr bool kTally = std::is_same_v<Value, Tally>;
  static_assert(kAux || std::is_same_v<Key, uint64_t>);
  static_assert(kTally || std::is_same_v<Value, int64_t>);

 public:
  /// Cumulative accounting of hash-table work. `grows` counts
  /// load-factor-triggered rehashes (initial allocation and presizing
  /// excluded) and is maintained unconditionally — it backs the
  /// regression tests that presizing and scratch reuse make growth a
  /// steady-state no-op; `probes` is telemetry-only (always zero when
  /// COUSINS_METRICS=OFF).
  struct Stats {
    int64_t probes = 0;  // slots inspected across all Add calls
    int64_t grows = 0;   // reactive (load-factor) rehashes
  };

  /// Default construction allocates nothing; the table materializes on
  /// the first Add or ReserveLive.
  TallyTable() = default;

  /// Ensures capacity for `live` entries without a reactive grow:
  /// capacity becomes the smallest power of two keeping the load
  /// factor under 0.7. Never shrinks. Rehashes in place when the table
  /// already holds entries; such presizes are not counted as `grows`.
  void ReserveLive(size_t live) {
    size_t capacity = kMinCapacity;
    while (live * 10 >= capacity * 7) capacity *= 2;
    if (capacity > cols_.keys.size()) Rehash(capacity);
  }

  /// Folds `delta` into `key`, inserting the key if new; a zero delta
  /// is a no-op. Returns the live-entry delta: +1 when the entry became
  /// visible (new key, or a zero-net slot revived), -1 when it netted
  /// out to zero, 0 otherwise — callers keep their live-tally
  /// accounting by summing the return values of Add and Subtract.
  int Add(const Key& key, const Value& delta) {
    if (IsZero(delta)) return 0;
    if (cols_.keys.empty()) [[unlikely]] Rehash(kMinCapacity);
    COUSINS_METRICS_ONLY(++stats_.probes;)
    size_t i = Slot(key);
    while (cols_.keys[i] != kEmpty) {
      if (cols_.Matches(i, key)) {
        const bool was_live = cols_.LiveAt(i);
        cols_.Accumulate(i, delta);
        return static_cast<int>(cols_.LiveAt(i)) - static_cast<int>(was_live);
      }
      COUSINS_METRICS_ONLY(++stats_.probes;)
      i = (i + 1) & mask_;
    }
    cols_.Store(i, key, delta);
    if (++size_ * 10 >= cols_.keys.size() * 7) Grow();
    return 1;
  }

  /// Counted deletion: subtracts `delta` from `key`, clamping both
  /// counters at zero (retracting more than was ever added cannot wrap
  /// into negative support). A key that was never added is a no-op.
  /// Returns -1 when the entry netted out to zero on this call, 0
  /// otherwise.
  int Subtract(const Key& key, const Tally& delta)
    requires kTally
  {
    if (cols_.keys.empty()) return 0;
    COUSINS_METRICS_ONLY(++stats_.probes;)
    size_t i = Slot(key);
    while (cols_.keys[i] != kEmpty) {
      if (cols_.Matches(i, key)) {
        const bool was_live = cols_.LiveAt(i);
        const int64_t s =
            static_cast<int64_t>(cols_.supports[i]) - delta.support;
        cols_.supports[i] = s < 0 ? 0 : static_cast<int32_t>(s);
        const int64_t o = SaturatingSub(cols_.counts[i], delta.occurrences);
        cols_.counts[i] = o < 0 ? 0 : o;
        return was_live && !cols_.LiveAt(i) ? -1 : 0;
      }
      COUSINS_METRICS_ONLY(++stats_.probes;)
      i = (i + 1) & mask_;
    }
    return 0;
  }

  /// Issues a software prefetch for `key`'s home slot so a later Add
  /// finds the probe line resident; fold loops run this a few keys
  /// ahead of the key they are folding. A count table (a per-tree
  /// accumulator, whose every Add writes its count) also pulls the
  /// count line.
  void PrefetchKey(const Key& key) const {
    if (cols_.keys.empty()) return;
#if defined(__GNUC__) || defined(__clang__)
    const size_t i = Slot(key);
    __builtin_prefetch(&cols_.keys[i], 1 /*write*/, 1);
    if constexpr (!kTally) __builtin_prefetch(&cols_.counts[i], 1, 1);
#endif
  }

  /// Empties the table keeping its capacity — per-tree scratch tables
  /// are cleared between trees so steady-state mining stays
  /// allocation-free.
  void Clear() {
    size_ = 0;
    cols_.keys.assign(cols_.keys.size(), kEmpty);
  }

  /// Occupied slots, including zero-net ones awaiting purge (drives
  /// the load factor); an upper bound on the entries ForEach visits.
  size_t size() const { return size_; }

  /// Current slot count (zero before first use, else a power of two).
  size_t capacity() const { return cols_.keys.size(); }

  const Stats& stats() const { return stats_; }

  /// Invokes fn(key, value) for every live entry (unspecified order);
  /// zero-net slots are skipped.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < cols_.keys.size(); ++i) {
      if (cols_.keys[i] != kEmpty && cols_.LiveAt(i)) {
        fn(cols_.KeyAt(i), cols_.ValueAt(i));
      }
    }
  }

 private:
  static constexpr uint64_t kEmpty = ~uint64_t{0};
  static constexpr size_t kMinCapacity = 64;

  /// Structure-of-arrays storage, one column per field. A column the
  /// instantiation does not use stays empty, so each instantiation's
  /// memory layout is exactly its own fields.
  struct Columns {
    std::vector<uint64_t> keys;      // packed label pair; kEmpty = free
    std::vector<uint32_t> aux;       // PairAux keys only
    std::vector<int32_t> supports;   // Tally values only
    std::vector<int64_t> counts;     // the count, or a Tally's occurrences

    bool Matches(size_t i, const Key& key) const {
      if constexpr (kAux) {
        return keys[i] == key.pair && aux[i] == key.aux;
      } else {
        return keys[i] == key;
      }
    }
    Key KeyAt(size_t i) const {
      if constexpr (kAux) {
        return PairAux{keys[i], aux[i]};
      } else {
        return keys[i];
      }
    }
    Value ValueAt(size_t i) const {
      if constexpr (kTally) {
        return Tally{supports[i], counts[i]};
      } else {
        return counts[i];
      }
    }
    bool LiveAt(size_t i) const {
      if constexpr (kTally) {
        return supports[i] != 0 || counts[i] != 0;
      } else {
        return counts[i] != 0;
      }
    }
    void Store(size_t i, const Key& key, const Value& value) {
      if constexpr (kAux) {
        keys[i] = key.pair;
        aux[i] = key.aux;
      } else {
        keys[i] = key;
      }
      if constexpr (kTally) {
        supports[i] = value.support;
        counts[i] = value.occurrences;
      } else {
        counts[i] = value;
      }
    }
    void Accumulate(size_t i, const Value& delta) {
      if constexpr (kTally) {
        supports[i] = SaturatingAddInt(supports[i], delta.support);
        counts[i] = SaturatingAdd(counts[i], delta.occurrences);
      } else {
        counts[i] = SaturatingAdd(counts[i], delta);
      }
    }
  };

  static bool IsZero(const Value& value) {
    if constexpr (kTally) {
      return value.support == 0 && value.occurrences == 0;
    } else {
      return value == 0;
    }
  }

  size_t Slot(const Key& key) const {
    uint64_t h;
    if constexpr (kAux) {
      h = key.pair ^ (static_cast<uint64_t>(key.aux) << 16);
    } else {
      h = key;
    }
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
    return static_cast<size_t>(h ^ (h >> 31)) & mask_;
  }

  /// Load factor hit 0.7. Rehashing purges zero-net slots, so double
  /// the capacity only when the live entries alone would keep the
  /// table more than half full after the purge.
  void Grow() {
    // A count table is a per-tree accumulator, fully drained before
    // anything reaches the forest tallies: its growth is where a real
    // std::bad_alloc surfaces on adversarial corpora without leaving a
    // half-folded tree behind. A support table grows mid-fold, so it
    // is not a fault site.
    if constexpr (!kTally) COUSINS_FAULT_POINT("paircount.grow");
    ++stats_.grows;
    size_t live = 0;
    for (size_t i = 0; i < cols_.keys.size(); ++i) {
      if (cols_.keys[i] != kEmpty && cols_.LiveAt(i)) ++live;
    }
    const size_t capacity = cols_.keys.size();
    Rehash(live * 2 >= capacity ? capacity * 2 : capacity);
  }

  void Rehash(size_t capacity) {
    Columns old = std::move(cols_);
    cols_.keys.assign(capacity, kEmpty);
    if constexpr (kAux) cols_.aux.assign(capacity, 0);
    if constexpr (kTally) cols_.supports.assign(capacity, 0);
    cols_.counts.assign(capacity, 0);
    // Hint huge-page backing for large tables (policy-gated, no-op
    // below the threshold): random probes over 4 KiB pages make every
    // fold a likely dTLB miss. Unused columns are empty and advise
    // nothing.
    const auto advise = [](const auto& column) {
      return AdviseHugePages(column.data(),
                             column.size() * sizeof(column[0]));
    };
    const size_t advised = advise(cols_.keys) + advise(cols_.aux) +
                           advise(cols_.supports) + advise(cols_.counts);
    if (advised != 0) COUSINS_METRIC_COUNTER_ADD("mem.thp_bytes", advised);
    mask_ = capacity - 1;
    size_ = 0;
    for (size_t i = 0; i < old.keys.size(); ++i) {
      if (old.keys[i] == kEmpty || !old.LiveAt(i)) continue;
      const Key key = old.KeyAt(i);
      size_t j = Slot(key);
      while (cols_.keys[j] != kEmpty) j = (j + 1) & mask_;
      cols_.Store(j, key, old.ValueAt(i));
      ++size_;
    }
  }

  Columns cols_;
  size_t mask_ = 0;
  size_t size_ = 0;
  Stats stats_;
};

/// Per-tree signed pair counts: the inclusion–exclusion accumulators of
/// the single-tree and free-tree folds.
using CountMap = TallyTable<uint64_t, int64_t>;
/// Forest support tallies of the cousin and free-tree variants.
using TallyMap = TallyTable<uint64_t, Tally>;
/// Support tallies keyed (pair, aux) of the generalized and weighted
/// variants, per tree and forest-wide.
using AuxTallyMap = TallyTable<PairAux, Tally>;

}  // namespace internal
}  // namespace cousins

#endif  // COUSINS_CORE_TALLY_MAP_H_
