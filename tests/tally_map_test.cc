// TallyTable unit tests plus the accumulator regression suite: the
// forest-wide tables must never grow reactively on a Table 3-shaped
// workload (label-cardinality presizing), and the reusable per-tree
// scratch must stop rehashing once warm (steady-state allocation-free
// mining).
//
// The table behaviours shared by every instantiation are written once
// (TABLE_TEST) and run on both the signed-count table (suite
// PairCountMapTest, the per-tree accumulator) and the pair-keyed
// support table (suite TallyMap). The (pair, aux)-keyed table's own
// cases run in the WideTallyMap / WideTallyMapTest suites.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <type_traits>
#include <vector>

#include "core/cousin_pair.h"
#include "core/multi_tree_mining.h"
#include "core/tally_map.h"
#include "gen/fanout_generator.h"
#include "tree/label_table.h"
#include "util/overflow.h"
#include "util/rng.h"

namespace cousins {
namespace internal {

void PrintTo(const Tally& tally, std::ostream* os) {
  *os << "{support=" << tally.support << ", occ=" << tally.occurrences
      << "}";
}

}  // namespace internal

namespace {

using internal::AuxTallyMap;
using internal::CountMap;
using internal::PackLabelPair;
using internal::PairAux;
using internal::Tally;
using internal::TallyMap;
using internal::UnpackFirst;
using internal::UnpackSecond;

constexpr int64_t kMax64 = std::numeric_limits<int64_t>::max();
constexpr int64_t kMin64 = std::numeric_limits<int64_t>::min();
constexpr int32_t kMax32 = std::numeric_limits<int32_t>::max();

template <typename Map>
constexpr bool kIsCount = std::is_same_v<Map, CountMap>;

/// A value of weight n: the count n, or the tally {n, n}.
template <typename Map>
auto Weight(int64_t n) {
  if constexpr (kIsCount<Map>) {
    return n;
  } else {
    return Tally{static_cast<int32_t>(n), n};
  }
}

/// Takes weight n back out of `key`: a negative Add on a count table,
/// a Subtract on a support table. Returns the live-entry delta.
template <typename Map>
int Retract(Map& map, uint64_t key, int64_t n) {
  if constexpr (kIsCount<Map>) {
    return map.Add(key, -n);
  } else {
    return map.Subtract(key, Weight<Map>(n));
  }
}

/// Live entries, keyed by packed pair.
template <typename Map>
auto Contents(const Map& map) {
  std::map<uint64_t, decltype(Weight<Map>(0))> out;
  map.ForEach([&](uint64_t key, auto value) {
    EXPECT_TRUE(out.emplace(key, value).second) << "duplicate key " << key;
  });
  return out;
}

/// Number of entries ForEach visits.
template <typename Map>
size_t Live(const Map& map) {
  size_t n = 0;
  map.ForEach([&](const auto&, const auto&) { ++n; });
  return n;
}

/// Defines one test body and runs it on both pair-keyed instantiations,
/// under `count_name` in the count-table suite and `tally_name` in the
/// support-table suite.
#define TABLE_TEST(count_name, tally_name)                              \
  template <typename Map>                                               \
  void count_name##Body();                                              \
  TEST(PairCountMapTest, count_name) { count_name##Body<CountMap>(); }  \
  TEST(TallyMap, tally_name) { count_name##Body<TallyMap>(); }          \
  template <typename Map>                                               \
  void count_name##Body()

TEST(PackLabelPairTest, CanonicalizesOrder) {
  EXPECT_EQ(PackLabelPair(3, 7), PackLabelPair(7, 3));
  EXPECT_NE(PackLabelPair(3, 7), PackLabelPair(3, 8));
}

TEST(PackLabelPairTest, RoundTrips) {
  const uint64_t key = PackLabelPair(12345, 678);
  EXPECT_EQ(UnpackFirst(key), 678);  // min in the high word
  EXPECT_EQ(UnpackSecond(key), 12345);
  const uint64_t same = PackLabelPair(42, 42);
  EXPECT_EQ(UnpackFirst(same), 42);
  EXPECT_EQ(UnpackSecond(same), 42);
}

TABLE_TEST(DefaultConstructionAllocatesNothing,
           DefaultConstructionAllocatesNothing) {
  Map map;
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.capacity(), 0u);
}

TABLE_TEST(AddAndIterate, AddInsertsAndAccumulates) {
  Map map;
  EXPECT_EQ(map.Add(PackLabelPair(1, 2), Weight<Map>(5)), 1);
  EXPECT_EQ(map.Add(PackLabelPair(2, 1), Weight<Map>(3)), 0);  // same key
  EXPECT_EQ(map.Add(PackLabelPair(1, 3), Weight<Map>(7)), 1);
  EXPECT_EQ(map.size(), 2u);
  const auto seen = Contents(map);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen.at(PackLabelPair(1, 2)), Weight<Map>(8));
  EXPECT_EQ(seen.at(PackLabelPair(1, 3)), Weight<Map>(7));
}

TABLE_TEST(ZeroDeltaIsNoop, ZeroDeltaIsNoop) {
  Map map;
  EXPECT_EQ(map.Add(PackLabelPair(1, 2), Weight<Map>(0)), 0);
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.capacity(), 0u) << "a zero delta must not allocate";
}

TABLE_TEST(NegativeDeltasSupported, SubtractToZeroHidesEntryAndShrinksLive) {
  Map map;
  const uint64_t k42 = PackLabelPair(4, 2);
  const uint64_t k7 = PackLabelPair(7, 0);
  map.Add(k42, Weight<Map>(10));
  map.Add(k7, Weight<Map>(1));
  EXPECT_EQ(Live(map), 2u);
  // Partial retraction: entry stays visible, no live change.
  EXPECT_EQ(Retract(map, k42, 4), 0);
  EXPECT_EQ(Contents(map).at(k42), Weight<Map>(6));
  EXPECT_EQ(Live(map), 2u);
  // Retraction to zero-net: hidden from ForEach, one live entry fewer,
  // the slot itself stays occupied until the next rehash purges it.
  EXPECT_EQ(Retract(map, k42, 6), -1);
  EXPECT_EQ(map.size(), 2u);
  const auto seen = Contents(map);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen.begin()->first, k7);
}

TABLE_TEST(ForEachSkipsZeroNetEntries, ReAddRevivesZeroNetEntry) {
  Map map;
  const uint64_t k12 = PackLabelPair(1, 2);
  const uint64_t k34 = PackLabelPair(3, 4);
  map.Add(k12, Weight<Map>(5));
  map.Add(k34, Weight<Map>(2));
  Retract(map, k12, 5);  // nets to zero
  auto seen = Contents(map);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen.at(k34), Weight<Map>(2));
  // Reviving a dead slot is a fresh insert from the caller's
  // perspective: counts restart, the entry is live again.
  EXPECT_EQ(map.Add(k12, Weight<Map>(3)), 1);
  seen = Contents(map);
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen.at(k12), Weight<Map>(3));
}

TABLE_TEST(ClearResets, ClearResets) {
  Map map;
  for (int i = 0; i < 100; ++i) map.Add(PackLabelPair(i, i + 1), Weight<Map>(1));
  EXPECT_EQ(map.size(), 100u);
  const size_t capacity = map.capacity();
  map.Clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(Live(map), 0u);
  EXPECT_EQ(map.capacity(), capacity) << "Clear must keep capacity";
  // Refilling the same keys must not grow again.
  const int64_t grows = map.stats().grows;
  for (int i = 0; i < 100; ++i) map.Add(PackLabelPair(i, i + 1), Weight<Map>(1));
  EXPECT_EQ(map.stats().grows, grows);
}

TABLE_TEST(AddCancelCyclesKeepCapacityBounded,
           PurgeBeforeGrowDropsZeroNetSlots) {
  // Inclusion–exclusion emits +delta then -delta for the same pair; a
  // long stream over DISTINCT pairs must not grow the table, because no
  // point-in-time census ever holds more than one live entry. Without
  // zero-net purging, every cancelled pair would still occupy a slot,
  // the load factor would ratchet up and capacity double without bound.
  Map cancelled;
  for (int i = 0; i < 100000; ++i) {
    const uint64_t key = PackLabelPair(i, i + 1);
    cancelled.Add(key, Weight<Map>(3));
    Retract(cancelled, key, 3);
  }
  EXPECT_LE(cancelled.capacity(), 256u);
  EXPECT_EQ(Live(cancelled), 0u);

  // A sliding 16-entry live window: capacity stays bounded by the live
  // set, not the churn volume (20000 entries at 0.7 load would need
  // 32Ki slots without purging).
  Map window;
  constexpr int kChurn = 20000;
  for (int i = 0; i < kChurn; ++i) {
    window.Add(PackLabelPair(i, i + 1), Weight<Map>(1));
    if (i >= 16) Retract(window, PackLabelPair(i - 16, i - 15), 1);
  }
  EXPECT_LE(window.capacity(), 4096u);
  const auto seen = Contents(window);
  EXPECT_EQ(seen.size(), 16u);
  for (const auto& [key, value] : seen) EXPECT_EQ(value, Weight<Map>(1));
}

TABLE_TEST(GrowsWhenLiveEntriesDemandIt, GrowthPreservesEveryEntry) {
  // Genuine growth still happens: 10000 live entries need >= 16Ki
  // slots at the 0.7 load ceiling, and every entry survives the
  // rehashes exactly once.
  Map map;
  constexpr int kEntries = 10000;
  for (int i = 0; i < kEntries; ++i) {
    map.Add(PackLabelPair(i, i + 1), Weight<Map>(i + 1));
  }
  EXPECT_EQ(map.size(), static_cast<size_t>(kEntries));
  EXPECT_GT(map.stats().grows, 0);
  EXPECT_GE(map.capacity(), 16384u);
  const auto seen = Contents(map);
  ASSERT_EQ(seen.size(), static_cast<size_t>(kEntries));
  for (int i = 0; i < kEntries; ++i) {
    EXPECT_EQ(seen.at(PackLabelPair(i, i + 1)), Weight<Map>(i + 1)) << i;
  }
}

TABLE_TEST(AdditionSaturatesAtInt64Boundaries, SaturatesInsteadOfWrapping) {
  // Adversarial corpora can push counts toward the integer edge; the
  // tables must clamp there, never wrap into negative counts that
  // ForEach would drop as zero-net.
  const uint64_t key = PackLabelPair(1, 2);
  Map map;
  if constexpr (kIsCount<Map>) {
    map.Add(key, kMax64 - 1);
    map.Add(key, 5);  // would overflow; clamps
    EXPECT_EQ(Contents(map).at(key), kMax64);
    map.Add(key, 1);  // already saturated: stays put
    EXPECT_EQ(Contents(map).at(key), kMax64);

    Map low;
    const uint64_t key2 = PackLabelPair(3, 4);
    low.Add(key2, kMin64 + 1);
    low.Add(key2, -5);  // would underflow; clamps
    EXPECT_EQ(Contents(low).at(key2), kMin64);
  } else {
    map.Add(key, Tally{kMax32, kMax64});
    map.Add(key, Tally{1, 1});
    EXPECT_EQ(Contents(map).at(key), (Tally{kMax32, kMax64}));
  }
  // SaturatingAddInt guards the 32-bit support counters.
  EXPECT_EQ(SaturatingAddInt(kMax32, 1), kMax32);
  EXPECT_EQ(SaturatingAddInt(kMax32 - 1, 1), kMax32);
  EXPECT_EQ(SaturatingAddInt(std::numeric_limits<int>::min(), -1),
            std::numeric_limits<int>::min());
  EXPECT_EQ(SaturatingAddInt(2, 3), 5);
}

TABLE_TEST(GrowsPastInitialCapacityCorrectly,
           GrowsPastInitialCapacityCorrectly) {
  // Stress rehash against std::map on tens of thousands of random
  // updates. Negative updates retract: a count table sums them, a
  // support table clamps at zero.
  Map map;
  std::map<uint64_t, int64_t> reference;
  Rng rng(17);
  for (int i = 0; i < 50000; ++i) {
    const auto a = static_cast<LabelId>(rng.Uniform(500));
    const auto b = static_cast<LabelId>(rng.Uniform(500));
    const auto delta = static_cast<int64_t>(rng.UniformInt(-3, 5));
    if (delta == 0) continue;
    const uint64_t key = PackLabelPair(a, b);
    int64_t& expected = reference[key];
    if (delta > 0) {
      map.Add(key, Weight<Map>(delta));
      expected += delta;
    } else {
      Retract(map, key, -delta);
      expected += delta;
      if (!kIsCount<Map> && expected < 0) expected = 0;
    }
  }
  std::erase_if(reference, [](const auto& kv) { return kv.second == 0; });
  const auto actual = Contents(map);
  ASSERT_EQ(actual.size(), reference.size());
  for (const auto& [key, weight] : reference) {
    EXPECT_EQ(actual.at(key), Weight<Map>(weight));
  }
}

TABLE_TEST(ReserveLivePreventsReactiveGrowth,
           ReserveLivePreventsReactiveGrowth) {
  Map map;
  constexpr int kEntries = 5000;
  map.ReserveLive(kEntries);
  const size_t presized = map.capacity();
  for (int i = 0; i < kEntries; ++i) {
    map.Add(PackLabelPair(i, i), Weight<Map>(1));
  }
  EXPECT_EQ(map.stats().grows, 0);
  EXPECT_EQ(map.capacity(), presized);
  // The promised load factor: live entries stay under 0.7 of capacity.
  EXPECT_LT(map.size() * 10, map.capacity() * 7);
}

TABLE_TEST(ReserveLiveOnWarmTableKeepsEntries,
           ReserveLiveOnWarmTableKeepsEntries) {
  Map map;
  for (int i = 0; i < 100; ++i) map.Add(PackLabelPair(i, i), Weight<Map>(3));
  const int64_t grows_before = map.stats().grows;
  map.ReserveLive(100000);
  EXPECT_EQ(map.stats().grows, grows_before) << "presize counted as grow";
  EXPECT_EQ(map.size(), 100u);
  const auto seen = Contents(map);
  EXPECT_EQ(seen.size(), 100u);
  for (const auto& [key, value] : seen) EXPECT_EQ(value, Weight<Map>(3));
}

TEST(TallyMap, SubtractClampsAndIgnoresMissingKeys) {
  TallyMap map;
  map.Add(42, Tally{1, 3});
  // Over-subtraction clamps at zero and reports the single transition.
  EXPECT_EQ(map.Subtract(42, Tally{100, 100}), -1);
  // Subtracting an already-dead entry is a no-op, not a second -1.
  EXPECT_EQ(map.Subtract(42, Tally{1, 1}), 0);
  // A key that was never added is a no-op (and must not insert).
  EXPECT_EQ(map.Subtract(999, Tally{1, 1}), 0);
  EXPECT_EQ(Live(map), 0u);
  EXPECT_EQ(map.size(), 1u);
}

TEST(WideTallyMap, SubtractMirrorsTallyMapSemantics) {
  AuxTallyMap map;
  EXPECT_EQ(map.Add(PairAux{42, 9}, Tally{2, 10}), 1);
  EXPECT_EQ(map.Subtract(PairAux{42, 9}, Tally{1, 4}), 0);
  EXPECT_EQ(map.Subtract(PairAux{42, 9}, Tally{1, 6}), -1);
  EXPECT_EQ(Live(map), 0u);
  // Distinct aux under the same key is a distinct entry.
  EXPECT_EQ(map.Add(PairAux{42, 8}, Tally{1, 1}), 1);
  EXPECT_EQ(map.Subtract(PairAux{42, 9}, Tally{1, 1}), 0)
      << "wrong aux must not match";
  EXPECT_EQ(Live(map), 1u);
}

TEST(WideTallyMapTest, AuxWordSeparatesEntries) {
  AuxTallyMap map;
  EXPECT_EQ(map.Add(PairAux{42, 1}, Tally{1, 10}), 1);
  EXPECT_EQ(map.Add(PairAux{42, 2}, Tally{1, 20}), 1);  // new aux: fresh
  EXPECT_EQ(map.Add(PairAux{42, 1}, Tally{1, 5}), 0);   // folded
  EXPECT_EQ(map.size(), 2u);
  std::map<uint32_t, Tally> by_aux;
  map.ForEach([&](PairAux key, Tally tally) {
    EXPECT_EQ(key.pair, 42u);
    by_aux[key.aux] = tally;
  });
  ASSERT_EQ(by_aux.size(), 2u);
  EXPECT_EQ(by_aux[1], (Tally{2, 15}));
  EXPECT_EQ(by_aux[2], (Tally{1, 20}));
}

TEST(WideTallyMapTest, AddSaturates) {
  AuxTallyMap map;
  map.Add(PairAux{7, 0}, Tally{kMax32, kMax64});
  map.Add(PairAux{7, 0}, Tally{1, 1});
  map.ForEach([&](PairAux, Tally tally) {
    EXPECT_EQ(tally, (Tally{kMax32, kMax64}));
  });
}

TEST(WideTallyMapTest, ClearKeepsCapacity) {
  AuxTallyMap map;
  for (uint64_t k = 0; k < 200; ++k) map.Add(PairAux{k, 0}, Tally{1, 1});
  const size_t capacity = map.capacity();
  EXPECT_GT(capacity, 64u);
  map.Clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.capacity(), capacity);
  // Refilling the same keys must not grow again.
  const int64_t grows = map.stats().grows;
  for (uint64_t k = 0; k < 200; ++k) map.Add(PairAux{k, 0}, Tally{1, 1});
  EXPECT_EQ(map.stats().grows, grows);
}

TEST(WideTallyMapTest, GrowPreservesEntries) {
  AuxTallyMap map;
  for (uint64_t k = 0; k < 1000; ++k) {
    map.Add(PairAux{k, static_cast<uint32_t>(k)},
            Tally{1, static_cast<int64_t>(2 * k)});
  }
  EXPECT_EQ(map.size(), 1000u);
  size_t seen = 0;
  map.ForEach([&](PairAux key, Tally tally) {
    ++seen;
    EXPECT_EQ(key.aux, static_cast<uint32_t>(key.pair));
    EXPECT_EQ(tally, (Tally{1, static_cast<int64_t>(2 * key.pair)}));
  });
  EXPECT_EQ(seen, 1000u);
}

/// Streams `num_trees` of a Table 3-shaped corpus (200-node fanout-5
/// trees over a 200-label alphabet — the Figure 6 workload) into the
/// miner; rng/labels carry across calls so the stream is one corpus.
void StreamFig6Forest(MultiTreeMiner* miner, int num_trees, Rng* rng,
                      const std::shared_ptr<LabelTable>& labels) {
  const FanoutTreeOptions gen;  // defaults are the Table 3 values
  for (int i = 0; i < num_trees; ++i) {
    miner->AddTree(GenerateFanoutTree(gen, *rng, labels));
  }
}

TEST(AccumulatorRegression, NoTallyGrowthOnFig6Workload) {
  // The 200-label alphabet bounds distinct pairs at 20,100 — well under
  // the presize cap — so EnsureTallyCapacity must make every reactive
  // grow unnecessary, however many trees stream through.
  MultiTreeMiner miner;
  Rng rng(6000);
  auto labels = std::make_shared<LabelTable>();
  StreamFig6Forest(&miner, 200, &rng, labels);
  const MultiTreeMiner::AccumulatorStats stats = miner.accumulator_stats();
  EXPECT_EQ(stats.tally_grows, 0)
      << "forest tally tables grew reactively despite presizing";
  EXPECT_GT(stats.tally_entries, 0);
}

TEST(AccumulatorRegression, ScratchRehashesStopOnceWarm) {
  // The per-tree scratch accumulators grow only while discovering the
  // workload's working-set size; identically-shaped trees afterwards
  // must mine allocation-free.
  MultiTreeMiner miner;
  Rng rng(6000);
  auto labels = std::make_shared<LabelTable>();
  StreamFig6Forest(&miner, 50, &rng, labels);
  const int64_t warm = miner.accumulator_stats().scratch_rehashes;
  StreamFig6Forest(&miner, 50, &rng, labels);  // 50 more, same shape
  EXPECT_EQ(miner.accumulator_stats().scratch_rehashes, warm)
      << "warm scratch kept rehashing on a steady-state workload";
}

TEST(LabelTable, HeterogeneousLookupFindsInternedNames) {
  LabelTable table;
  const LabelId id = table.Intern("Homo sapiens");
  // Probe with a string_view into a larger buffer — no std::string may
  // be required (and none is constructed by the transparent index).
  const std::string text = "xxHomo sapiensyy";
  const std::string_view probe(text.data() + 2, 12);
  EXPECT_EQ(table.Find(probe), id);
  EXPECT_EQ(table.Intern(probe), id) << "re-intern must dedupe";
  EXPECT_EQ(table.Find("Pan troglodytes"), kNoLabel);
  EXPECT_EQ(table.size(), 1u);
}

TEST(LabelTable, ReserveKeepsIdsAndNamesStable) {
  LabelTable table;
  const LabelId a = table.Intern("a");
  table.Reserve(10000);
  EXPECT_EQ(table.Find("a"), a);
  EXPECT_EQ(table.Name(a), "a");
  const LabelId b = table.Intern("b");
  EXPECT_EQ(b, a + 1);
}

}  // namespace
}  // namespace cousins
