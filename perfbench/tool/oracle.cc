// Output oracles that share no code with the paths they check.
//
//   oracle-frequent <forest> --out=PATH [--threads=N]
//       The `frequent --csv` answer for a forest (default flags:
//       maxdist 1.5, minoccur 1, minsup 2), built from the
//       quadratic reference miner (MineSingleTreeNaive) and a plain
//       hash-map support count, rendered with this file's own CSV
//       writer. Sorted like the CLI: support descending, then
//       (label1, label2, distance) in forest intern order.
//   check-consensus <forest> --method=FILE... [--strict=FILE]
//       Checks `consensus` outputs against this file's own count of
//       TreeClusters over the input: majority and strict must equal
//       the counted cluster sets, strict ⊆ semi ⊆ majority ⊆ greedy
//       must hold, and every output must span the input's taxa. Prints
//       one JSON line {"ok": 0|1, "failures": [...], ...}; each failure
//       starts with the method it blames ("semi: ...").
#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "core/naive_mining.h"
#include "phylo/clusters.h"
#include "tree/newick.h"

namespace perfbench {
namespace {

using cousins::Bitset;
using cousins::LabelTable;
using cousins::Tree;

std::vector<Tree> ParseForestOrThrow(const std::string& text,
                                     std::shared_ptr<LabelTable> labels) {
  cousins::Result<std::vector<Tree>> trees =
      cousins::ParseNewickForest(text, std::move(labels));
  if (!trees.ok()) throw std::runtime_error(trees.status().ToString());
  return std::move(trees).value();
}

void AppendCsvField(const std::string& field, std::string* out) {
  if (field.find_first_of(",\"\n") == std::string::npos) {
    *out += field;
    return;
  }
  *out += '"';
  for (char c : field) {
    if (c == '"') *out += '"';
    *out += c;
  }
  *out += '"';
}

std::string HalfDistance(int twice) {
  return std::to_string(twice / 2) + (twice % 2 != 0 ? ".5" : "");
}

struct Tally {
  int32_t support = 0;
  int64_t occurrences = 0;
};

}  // namespace

int RunOracleFrequent(const Args& args) {
  if (args.empty()) throw std::runtime_error("oracle-frequent needs a forest");
  // The CLI's defaults (Table 2): maxdist 1.5, minoccur 1, minsup 2.
  const cousins::MiningOptions options;
  constexpr int min_support = 2;
  auto labels = std::make_shared<LabelTable>();
  const std::vector<Tree> trees = ParseForestOrThrow(ReadFile(args[0]), labels);
  if (labels->size() >= (size_t{1} << 27)) {
    throw std::runtime_error("oracle key packing supports < 2^27 labels");
  }

  // The reference miner is quadratic per tree, so trees are mined on
  // --threads threads (strided); the support count stays sequential.
  // key = label1 << 36 | label2 << 8 | twice_distance.
  const auto threads = static_cast<size_t>(std::clamp<int64_t>(
      IntFlag(args, "threads", std::thread::hardware_concurrency()), 1, 64));
  std::vector<std::vector<std::pair<uint64_t, int64_t>>> mined(threads);
  {
    std::vector<std::thread> pool;
    for (size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        for (size_t i = t; i < trees.size(); i += threads) {
          for (const cousins::CousinPairItem& item :
               cousins::MineSingleTreeNaive(trees[i], options)) {
            if (item.occurrences < options.min_occur) continue;
            const auto lo =
                static_cast<uint64_t>(std::min(item.label1, item.label2));
            const auto hi =
                static_cast<uint64_t>(std::max(item.label1, item.label2));
            mined[t].emplace_back(
                lo << 36 | hi << 8 | static_cast<uint64_t>(item.twice_distance),
                item.occurrences);
          }
        }
      });
    }
    for (std::thread& thread : pool) thread.join();
  }
  std::unordered_map<uint64_t, Tally> tallies;
  for (const auto& part : mined) {
    for (const auto& [key, occurrences] : part) {
      Tally& tally = tallies[key];
      tally.support += 1;
      tally.occurrences += occurrences;
    }
  }
  std::vector<std::pair<uint64_t, Tally>> frequent;
  for (const auto& [key, tally] : tallies) {
    if (tally.support >= min_support) frequent.emplace_back(key, tally);
  }
  std::sort(frequent.begin(), frequent.end(), [](const auto& a, const auto& b) {
    if (a.second.support != b.second.support) {
      return a.second.support > b.second.support;
    }
    return a.first < b.first;
  });
  std::string csv = "label1,label2,distance,support,occurrences\n";
  for (const auto& [key, tally] : frequent) {
    const auto label1 = static_cast<cousins::LabelId>(key >> 36);
    const auto label2 = static_cast<cousins::LabelId>((key >> 8) & 0xFFFFFFF);
    AppendCsvField(labels->Name(label1), &csv);
    csv += ',';
    AppendCsvField(labels->Name(label2), &csv);
    csv += ',' + HalfDistance(static_cast<int>(key & 0xFF)) + ',' +
           std::to_string(tally.support) + ',' +
           std::to_string(tally.occurrences) + '\n';
  }
  WriteFile(RequiredFlag(args, "out"), csv);
  JsonLine summary;
  summary.Num("trees", trees.size());
  summary.Num("tallies", tallies.size());
  summary.Num("frequent", frequent.size());
  std::printf("%s\n", summary.str().c_str());
  return 0;
}

namespace {

using ClusterSet = std::set<Bitset>;

std::string Join(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + items[i] + "\"";
  }
  return out + "]";
}

}  // namespace

int RunCheckConsensus(const Args& args) {
  if (args.empty()) throw std::runtime_error("check-consensus needs a forest");
  auto labels = std::make_shared<LabelTable>();
  const std::vector<Tree> trees = ParseForestOrThrow(ReadFile(args[0]), labels);
  cousins::Result<cousins::TaxonIndex> taxa =
      cousins::TaxonIndex::FromTrees(trees);
  if (!taxa.ok()) throw std::runtime_error(taxa.status().ToString());

  std::map<Bitset, int64_t> counts;
  for (const Tree& tree : trees) {
    auto clusters = cousins::TreeClusters(tree, *taxa);
    if (!clusters.ok()) throw std::runtime_error(clusters.status().ToString());
    for (const Bitset& cluster : *clusters) ++counts[cluster];
  }
  const auto n = static_cast<int64_t>(trees.size());
  ClusterSet expect_majority;
  ClusterSet expect_strict;
  for (const auto& [cluster, count] : counts) {
    if (2 * count > n) expect_majority.insert(cluster);
    if (count == n) expect_strict.insert(cluster);
  }

  std::vector<std::string> failures;
  std::map<std::string, ClusterSet> got;
  for (const char* method : {"majority", "strict", "semi", "greedy", "adams"}) {
    const std::string path = Flag(args, method);
    if (path.empty()) continue;
    // Consensus outputs name the same taxa, so they parse into the
    // input's label table and share its TaxonIndex.
    cousins::Result<std::vector<Tree>> parsed =
        cousins::ParseNewickForest(ReadFile(path), labels);
    if (!parsed.ok() || parsed->size() != 1) {
      failures.push_back(std::string(method) + ": output is not one tree");
      continue;
    }
    const Tree& tree = parsed->front();
    cousins::Result<cousins::TaxonIndex> own =
        cousins::TaxonIndex::FromTree(tree);
    if (!own.ok() || own->size() != taxa->size()) {
      failures.push_back(std::string(method) + ": taxon set differs");
      continue;
    }
    auto clusters = cousins::TreeClusters(tree, *taxa);
    if (!clusters.ok()) {
      failures.push_back(std::string(method) + ": unknown taxa");
      continue;
    }
    got[method] = ClusterSet(clusters->begin(), clusters->end());
  }
  // Each failure names the method it blames first.
  auto subset = [&](const char* a, const char* b, const char* blamed) {
    if (!got.count(a) || !got.count(b)) return;
    if (!std::includes(got[b].begin(), got[b].end(), got[a].begin(),
                       got[a].end())) {
      failures.push_back(std::string(blamed) + ": " + a +
                         " not a subset of " + b);
    }
  };
  if (got.count("majority") && got["majority"] != expect_majority) {
    failures.push_back("majority: differs from counted clusters");
  }
  if (got.count("strict") && got["strict"] != expect_strict) {
    failures.push_back("strict: differs from counted clusters");
  }
  subset("strict", "semi", "semi");
  subset("semi", "majority", "semi");
  subset("majority", "greedy", "greedy");

  JsonLine out;
  out.Num("ok", failures.empty() ? 1 : 0);
  out.Num("trees", n);
  out.Num("distinct_clusters", counts.size());
  out.Num("majority_clusters", expect_majority.size());
  out.Raw("failures", Join(failures));
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace perfbench
