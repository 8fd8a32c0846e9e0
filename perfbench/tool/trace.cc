// `perfbench_tool trace`: the traced re-drive of one workload, in
// process. Every call into a layer's public function is wrapped in a
// span (name, start, end, parent, request id). Spans stay in memory and
// are written to --spans as JSON lines at exit; the last stdout line is
// one JSON object of per-layer metrics, each layer's self time, and
// per-span self times.
//
//   trace --forest=F --ref=CSV --phylo=P --work=DIR --threads=N
//         --spans=PATH [--warm-wal=DIR] [--feed=FILE] [--svc-warm=N]
//         [--svc-batches=K]
//
//   --forest     the workload's main input (tree, core and proc layers)
//   --ref        the oracle's `frequent --csv` answer for F; the core
//                and proc results are checked against it
//   --phylo      a forest over one taxon set (phylo layer)
//   --svc-warm   the svc layer's warm state: the first N trees of F
//   --warm-wal   a cousinsd WAL holding that warm state, to recover;
//                without it one is first built from those N trees
//   --feed       INGEST batches for the svc layer (default: the trees of
//                F after the warm ones)
//
// Every result checked (core sequential and parallel, proc, the phylo
// majority tree) counts as one attempted operation, and a wrong one as
// failed. Self time of a span is its duration minus the time its child
// spans cover. trace_overhead_frac is traced total minus untraced total,
// over untraced total, where traced minus untraced is the number of spans
// recorded times the cost of one span. That cost is timed after the
// re-drive by appending as many empty spans again to the same recorder
// (median of kCalibrationRounds rounds). Timing the same work with and
// without spans cannot show it: the spans cost well under 1% of the
// fold loop, and repeats of the same fold loop vary by far more.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/item_io.h"
#include "core/kernel_dispatch.h"
#include "core/multi_tree_mining.h"
#include "core/parallel_mining.h"
#include "obs/metrics.h"
#include "phylo/clusters.h"
#include "phylo/consensus.h"
#include "proc/supervisor.h"
#include "svc/daemon.h"
#include "svc/protocol.h"
#include "svc/wal.h"
#include "svc/wal_store.h"
#include "tree/newick.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using cousins::LabelTable;
using cousins::MultiTreeMiner;
using cousins::MultiTreeMiningOptions;
using cousins::Tree;

// --- Span recording ----------------------------------------------------

struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
  int64_t request = 0;
};

class Tracer {
 public:
  int Begin(const std::string& name, int64_t request) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, NowSeconds(), 0, parent, request});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void End(int id) {
    spans_[id].end = NowSeconds();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }
  /// Drops the spans recorded after the first `count`.
  void Truncate(size_t count) { spans_.resize(count); }

  /// Summed self time per span name.
  std::map<std::string, double> SelfTimes() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) child[span.parent] += span.end - span.start;
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += spans_[i].end - spans_[i].start - child[i];
    }
    return out;
  }

  void Write(const std::string& path) const {
    std::string out;
    for (const Span& span : spans_) {
      JsonLine line;
      line.Str("name", span.name);
      line.Num("start", span.start);
      line.Num("end", span.end);
      line.Num("parent", span.parent);
      line.Num("request", span.request);
      out += line.str() + "\n";
    }
    WriteFile(path, out);
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Tracer g_tracer;

/// Trees per INGEST batch, as cousinsd clients send them.
constexpr size_t kBatchTrees = 16;

/// Times one call into a layer; returns its result.
template <typename Fn>
auto Traced(const std::string& name, int64_t request, Fn&& fn) {
  const int id = g_tracer.Begin(name, request);
  struct Closer {
    int id;
    ~Closer() { g_tracer.End(id); }
  } closer{id};
  return fn();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Durations (s) of every span with this name, in record order.
std::vector<double> SpanDurations(const std::string& name) {
  std::vector<double> out;
  for (const Span& span : g_tracer.spans()) {
    if (span.name == name) out.push_back(span.end - span.start);
  }
  return out;
}

double SpanSeconds(const std::string& name) {
  double total = 0;
  for (double seconds : SpanDurations(name)) total += seconds;
  return total;
}

template <typename T>
T OrThrow(cousins::Result<T> result) {
  if (!result.ok()) throw std::runtime_error(result.status().ToString());
  return std::move(result).value();
}

void OkOrThrow(const cousins::Status& status) {
  if (!status.ok()) throw std::runtime_error(status.ToString());
}

struct MetricsDelta {
  cousins::obs::MetricsSnapshot before =
      cousins::obs::MetricsRegistry::Global().Snapshot();
  int64_t Counter(const std::string& name) const {
    const auto after = cousins::obs::MetricsRegistry::Global().Snapshot();
    auto get = [&](const cousins::obs::MetricsSnapshot& s) -> int64_t {
      auto it = s.counters.find(name);
      return it == s.counters.end() ? 0 : it->second;
    };
    return get(after) - get(before);
  }
  /// Mean of the samples a histogram gained, or 0.
  double HistogramMean(const std::string& name) const {
    const auto after = cousins::obs::MetricsRegistry::Global().Snapshot();
    auto get = [&](const cousins::obs::MetricsSnapshot& s) {
      auto it = s.histograms.find(name);
      using CountSum = std::pair<int64_t, int64_t>;
      return it == s.histograms.end()
                 ? CountSum{0, 0}
                 : CountSum{it->second.count, it->second.sum};
    };
    const auto [c0, s0] = get(before);
    const auto [c1, s1] = get(after);
    return c1 > c0 ? static_cast<double>(s1 - s0) / static_cast<double>(c1 - c0)
                   : 0.0;
  }
};

// --- Layers --------------------------------------------------------------

struct Context {
  Args args;
  std::string work;
  int threads = 1;
  JsonLine metrics;
  std::string ref_csv;
  int64_t attempted = 0;
  int64_t failed = 0;

  /// One oracle-checked result.
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    std::fprintf(stderr, "trace: %s differs from the oracle\n", what.c_str());
  }
};

std::vector<Tree> TreeLayer(Context& ctx, const std::string& text,
                            std::shared_ptr<LabelTable> labels) {
  std::vector<Tree> trees =
      Traced("tree.ParseNewickForest", 0, [&] {
        return OrThrow(cousins::ParseNewickForest(text, labels));
      });
  const double parse_s = SpanSeconds("tree.ParseNewickForest");
  ctx.metrics.Num("tree.parse_s", parse_s);
  ctx.metrics.Num("tree.parse_mb_per_s",
                  static_cast<double>(text.size()) / 1e6 / parse_s);
  ctx.metrics.Num("tree.labels_interned", labels->size());
  return trees;
}

void CoreLayer(Context& ctx, const std::vector<Tree>& trees) {
  const MultiTreeMiningOptions options;
  MultiTreeMiner miner(options);
  MetricsDelta fold_metrics;
  Traced("core.fold_loop", 0, [&] {
    for (size_t i = 0; i < trees.size(); ++i) {
      Traced("core.MultiTreeMiner::AddTree", static_cast<int64_t>(i),
             [&] { miner.AddTree(trees[i]); });
    }
  });
  const int64_t simd_batches = fold_metrics.Counter("accum.simd_batches");

  const auto n = static_cast<double>(trees.size());
  ctx.metrics.Num("core.fold_us_per_tree",
                  SpanSeconds("core.MultiTreeMiner::AddTree") / n * 1e6);
  const MultiTreeMiner::AccumulatorStats stats = miner.accumulator_stats();
  ctx.metrics.Num("core.simd_batches", simd_batches);
  ctx.metrics.Num("core.probes_per_add",
                  static_cast<double>(stats.tally_probes) / n);
  ctx.metrics.Num("core.tally_entries", stats.tally_entries);
  ctx.metrics.Num("core.tally_grows", stats.tally_grows);

  const std::vector<cousins::FrequentCousinPair> frequent =
      Traced("core.MultiTreeMiner::FrequentPairs", 0,
             [&] { return miner.FrequentPairs(); });
  ctx.metrics.Num("core.extract_s",
                  SpanSeconds("core.MultiTreeMiner::FrequentPairs"));
  const std::string csv = Traced("core.FrequentPairsToCsv", 0, [&] {
    return cousins::FrequentPairsToCsv(trees.front().labels(), frequent);
  });
  ctx.metrics.Num("core.render_s", SpanSeconds("core.FrequentPairsToCsv"));
  ctx.metrics.Num("core.frequent_over_tallies",
                  static_cast<double>(frequent.size()) /
                      std::max<int64_t>(1, stats.tally_entries));

  MetricsDelta parallel_metrics;
  const cousins::MultiTreeMiningRun run =
      Traced("core.MineMultipleTreesParallelGoverned", 0, [&] {
        return OrThrow(cousins::MineMultipleTreesParallelGoverned(
            trees, options, cousins::MiningContext::Unlimited(), ctx.threads));
      });
  ctx.Check(csv == ctx.ref_csv, "AddTree-loop frequent CSV");
  ctx.Check(cousins::FrequentPairsToCsv(trees.front().labels(), run.pairs) ==
                ctx.ref_csv,
            "MineMultipleTreesParallelGoverned CSV");
  ctx.metrics.Num("core.mine_parallel_s",
                  SpanSeconds("core.MineMultipleTreesParallelGoverned"));
  ctx.metrics.Num("core.merge_s",
                  static_cast<double>(parallel_metrics.Counter(
                      "mine.parallel.merge_us")) / 1e6);
  ctx.metrics.Num("core.sched_steals",
                  parallel_metrics.Counter("sched.steals"));
  ctx.metrics.Num("core.sched_idle_s",
                  parallel_metrics.Counter("sched.idle_ns") / 1e9);
}

void ProcLayer(Context& ctx, const std::string& forest_path) {
  const std::string dir = ctx.work + "/proc";
  fs::remove_all(dir);
  fs::create_directories(dir);
  cousins::proc::MultiProcessOptions options;
  options.workers = ctx.threads;
  options.checkpoint_path = dir + "/final.ckpt";
  options.source_name = forest_path;
  cousins::QuarantineLedger ledger;
  MetricsDelta metrics;
  const cousins::Result<cousins::proc::MultiProcessRun> result =
      Traced("proc.MineForestMultiProcess", 0, [&] {
        return cousins::proc::MineForestMultiProcess(
            forest_path, MultiTreeMiningOptions(), options, &ledger);
      });
  int64_t shards = 0;
  bool correct = false;
  if (result.ok()) {
    for (const auto& worker : result->workers) {
      shards += static_cast<int64_t>(worker.shards_mined.size());
    }
    correct = cousins::FrequentPairsToCsv(*result->labels,
                                          result->mining.pairs) == ctx.ref_csv;
  }
  // A failed run is a failed operation, not the end of the trace.
  ctx.Check(correct, result.ok() ? "MineForestMultiProcess CSV"
                                 : "MineForestMultiProcess (" +
                                       result.status().ToString() + ")");
  ctx.metrics.Num("proc.mine_s", SpanSeconds("proc.MineForestMultiProcess"));
  ctx.metrics.Num("proc.workers_spawned",
                  metrics.Counter("proc.workers_spawned"));
  ctx.metrics.Num("proc.shards_mined", shards);
  ctx.metrics.Num("proc.journal_appends",
                  metrics.Counter("proc.journal_appends"));
  fs::remove_all(dir);
}

cousins::svc::Response HandleOrThrow(cousins::svc::CousinService& service,
                                     const cousins::svc::Request& request) {
  cousins::svc::Response response = service.Handle(request);
  OkOrThrow(response.status);
  return response;
}

void SvcLayer(Context& ctx, const std::string& forest_text,
              const std::vector<Tree>& trees, const LabelTable& labels) {
  const auto warm_trees = static_cast<size_t>(IntFlag(ctx.args, "svc-warm", 0));
  const size_t batch_count =
      static_cast<size_t>(IntFlag(ctx.args, "svc-batches", 32));
  const std::string wal = ctx.work + "/svc-wal";
  fs::remove_all(wal);
  cousins::svc::ServiceConfig config;
  config.wal_path = wal;
  const std::string warm_wal = Flag(ctx.args, "warm-wal");
  if (!warm_wal.empty()) {
    fs::copy(warm_wal, wal, fs::copy_options::recursive);
  } else {
    // Build the WAL to recover from (untraced).
    auto seeding = OrThrow(cousins::svc::CousinService::Start(config));
    for (const std::string& batch :
         SplitBatches(forest_text, 0, kBatchTrees, warm_trees / kBatchTrees)) {
      HandleOrThrow(*seeding, {"INGEST", {}, batch});
    }
    seeding.reset();
  }
  const std::string feed_path = Flag(ctx.args, "feed");
  const std::vector<std::string> batches =
      feed_path.empty()
          ? SplitBatches(forest_text, warm_trees, kBatchTrees, batch_count)
          : SplitBatches(ReadFile(feed_path), 0, kBatchTrees, batch_count);
  if (batches.empty()) throw std::runtime_error("no svc batches");

  MetricsDelta metrics;
  std::unique_ptr<cousins::svc::CousinService> service =
      Traced("svc.CousinService::Start", 0, [&] {
        return OrThrow(cousins::svc::CousinService::Start(config));
      });
  ctx.metrics.Num("svc.recover_s", SpanSeconds("svc.CousinService::Start"));

  for (size_t i = 0; i < batches.size(); ++i) {
    Traced("svc.Handle.INGEST", static_cast<int64_t>(i), [&] {
      HandleOrThrow(*service, {"INGEST", {}, batches[i]});
    });
  }
  ctx.metrics.Num("svc.handle_ingest_ms",
                  Median(SpanDurations("svc.Handle.INGEST")) * 1e3);
  ctx.metrics.Num("svc.swap_ns", metrics.HistogramMean("svc.swap_ns"));

  std::vector<std::string> keys;
  {
    const std::string all = service->snapshot()->all_csv;
    size_t pos = all.find('\n') + 1;
    while (pos < all.size() && keys.size() < 64) {
      const size_t nl = all.find('\n', pos);
      const std::string row = all.substr(pos, nl - pos);
      const size_t c1 = row.find(',');
      const size_t c2 = row.find(',', c1 + 1);
      const size_t c3 = row.find(',', c2 + 1);
      keys.push_back(row.substr(0, c1) + " " + row.substr(c1 + 1, c2 - c1 - 1) +
                     " " + row.substr(c2 + 1, c3 - c2 - 1));
      pos = nl + 1;
      // Spread the probes over the tally CSV.
      for (int skip = 0; skip < 97 && pos < all.size(); ++skip) {
        pos = all.find('\n', pos) + 1;
      }
    }
  }
  for (int i = 0; i < 256 && !keys.empty(); ++i) {
    const std::string& key = keys[static_cast<size_t>(i) % keys.size()];
    cousins::svc::Request request{"QUERY", {"support"}, ""};
    size_t a = key.find(' ');
    size_t b = key.find(' ', a + 1);
    request.args.push_back(key.substr(0, a));
    request.args.push_back(key.substr(a + 1, b - a - 1));
    request.args.push_back(key.substr(b + 1));
    Traced("svc.Handle.QUERY", i, [&] { HandleOrThrow(*service, request); });
  }
  ctx.metrics.Num("svc.handle_query_us",
                  Median(SpanDurations("svc.Handle.QUERY")) * 1e6);
  ctx.metrics.Num("svc.shed", metrics.Counter("svc.shed"));
  service.reset();
  fs::remove_all(wal);

  // One batch, parsed and folded into a fresh staging miner.
  for (size_t i = 0; i < batches.size(); ++i) {
    Traced("svc.stage_mine", static_cast<int64_t>(i), [&] {
      auto labels = std::make_shared<LabelTable>();
      const std::vector<Tree> trees = Traced("tree.ParseNewickForest", -1, [&] {
        return OrThrow(cousins::ParseNewickForest(batches[i], labels));
      });
      MultiTreeMiner staging;
      for (const Tree& tree : trees) {
        Traced("core.MultiTreeMiner::AddTree", -1,
               [&] { staging.AddTree(tree); });
      }
    });
  }
  ctx.metrics.Num("svc.stage_mine_ms",
                  Median(SpanDurations("svc.stage_mine")) * 1e3);

  // The eager publish of the warm state: both CSV renders.
  {
    MultiTreeMiner warm;
    for (size_t i = 0; i < std::min(warm_trees, trees.size()); ++i) {
      warm.AddTree(trees[i]);
    }
    size_t rendered = 0;
    for (int i = 0; i < 3; ++i) {
      Traced("svc.publish_render", i, [&] {
        rendered +=
            cousins::FrequentPairsToCsv(labels, warm.FrequentPairs()).size();
        rendered +=
            cousins::FrequentPairsToCsv(labels, warm.AllTallies()).size();
      });
    }
    ctx.metrics.Num("svc.publish_render_ms",
                    Median(SpanDurations("svc.publish_render")) * 1e3);
    ctx.metrics.Num("svc.publish_bytes", rendered / 3);
  }

  // WAL appends with fsync, into a fresh store.
  {
    const std::string dir = ctx.work + "/svc-wal-append";
    fs::remove_all(dir);
    cousins::svc::WalRecovery recovery;
    cousins::svc::WalStore store = OrThrow(cousins::svc::WalStore::Open(
        dir, cousins::svc::MiningOptionsFingerprint(MultiTreeMiningOptions()),
        cousins::svc::WalStoreConfig(), &recovery));
    const int64_t before = store.total_bytes();
    for (size_t i = 0; i < batches.size(); ++i) {
      Traced("svc.WalStore::AppendBatch", static_cast<int64_t>(i), [&] {
        OkOrThrow(store.AppendBatch(static_cast<int64_t>(i) + 1, batches[i]));
      });
    }
    ctx.metrics.Num("svc.wal_append_ms",
                    Median(SpanDurations("svc.WalStore::AppendBatch")) * 1e3);
    ctx.metrics.Num("svc.wal_bytes_per_tree",
                    static_cast<double>(store.total_bytes() - before) /
                        static_cast<double>(batches.size() * kBatchTrees));
    fs::remove_all(dir);
  }

  // Frame codec round trips over a socketpair.
  {
    int fds[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      throw std::runtime_error("socketpair failed");
    }
    std::string body;
    for (size_t i = 0; i < batches.size(); ++i) {
      const std::string request = "INGEST\n" + batches[i];
      Traced("svc.frame", static_cast<int64_t>(i), [&] {
        // The writer runs beside the reader so a frame larger than the
        // socket buffer cannot block it.
        cousins::Status written;
        std::thread writer(
            [&] { written = cousins::svc::WriteFrame(fds[0], request); });
        const cousins::Result<bool> read =
            cousins::svc::ReadFrame(fds[1], &body);
        writer.join();
        OkOrThrow(written);
        OrThrow(read);
      });
    }
    close(fds[0]);
    close(fds[1]);
    ctx.metrics.Num("svc.frame_us", Median(SpanDurations("svc.frame")) * 1e6);
  }
}

void PhyloLayer(Context& ctx, const std::string& phylo_path) {
  auto labels = std::make_shared<LabelTable>();
  const std::vector<Tree> trees =
      OrThrow(cousins::ParseNewickForest(ReadFile(phylo_path), labels));
  const cousins::TaxonIndex taxa =
      OrThrow(cousins::TaxonIndex::FromTrees(trees));
  std::map<cousins::Bitset, int64_t> counts;
  for (size_t i = 0; i < trees.size(); ++i) {
    const std::vector<cousins::Bitset> clusters =
        Traced("phylo.TreeClusters", static_cast<int64_t>(i), [&] {
          return OrThrow(cousins::TreeClusters(trees[i], taxa));
        });
    for (const cousins::Bitset& cluster : clusters) ++counts[cluster];
  }
  ctx.metrics.Num("phylo.clusters_s", SpanSeconds("phylo.TreeClusters"));
  ctx.metrics.Num("phylo.distinct_clusters", counts.size());
  const std::pair<const char*, cousins::ConsensusMethod> methods[] = {
      {"majority", cousins::ConsensusMethod::kMajority},
      {"greedy", cousins::ConsensusMethod::kGreedy},
      {"semi", cousins::ConsensusMethod::kSemiStrict},
      {"adams", cousins::ConsensusMethod::kAdams},
  };
  for (const auto& [name, method] : methods) {
    const std::string span = std::string("phylo.ConsensusTree.") + name;
    const Tree consensus = Traced(span, 0, [&, method = method] {
      return OrThrow(cousins::ConsensusTree(trees, method));
    });
    ctx.metrics.Num(std::string("phylo.consensus_s.") + name,
                    SpanSeconds(span));
    if (method == cousins::ConsensusMethod::kMajority) {
      std::vector<cousins::Bitset> got =
          OrThrow(cousins::TreeClusters(consensus, taxa));
      std::sort(got.begin(), got.end());
      std::vector<cousins::Bitset> expect;
      for (const auto& [cluster, count] : counts) {
        if (2 * count > static_cast<int64_t>(trees.size())) {
          expect.push_back(cluster);
        }
      }
      ctx.Check(got == expect, "majority consensus clusters");
      const auto kept = got.size();
      ctx.metrics.Num("phylo.kept_over_distinct",
                      static_cast<double>(kept) /
                          std::max<size_t>(1, counts.size()));
    }
  }
}

/// Rounds behind the per-span cost of trace_overhead_frac.
constexpr int kCalibrationRounds = 5;

/// Seconds one span costs: each round appends as many empty spans as the
/// re-drive recorded, named like the fold-loop span, then drops them.
double SpanCost() {
  const size_t recorded = g_tracer.spans().size();
  if (recorded == 0) return 0;
  std::vector<double> per_span;
  for (int round = 0; round < kCalibrationRounds; ++round) {
    const double start = NowSeconds();
    for (size_t i = 0; i < recorded; ++i) {
      Traced("core.MultiTreeMiner::AddTree", static_cast<int64_t>(i), [] {});
    }
    per_span.push_back((NowSeconds() - start) / static_cast<double>(recorded));
    g_tracer.Truncate(recorded);
  }
  return Median(per_span);
}

}  // namespace

int RunTrace(const Args& args) {
  Context ctx;
  ctx.args = args;
  ctx.work = RequiredFlag(args, "work");
  ctx.threads = static_cast<int>(IntFlag(
      args, "threads", std::max(1u, std::thread::hardware_concurrency())));
  fs::create_directories(ctx.work);
  const std::string forest_path = RequiredFlag(args, "forest");
  const std::string forest_text = ReadFile(forest_path);
  ctx.ref_csv = ReadFile(RequiredFlag(args, "ref"));

  const double start = NowSeconds();
  auto labels = std::make_shared<LabelTable>();
  const std::vector<Tree> trees = TreeLayer(ctx, forest_text, labels);
  CoreLayer(ctx, trees);
  ProcLayer(ctx, forest_path);
  SvcLayer(ctx, forest_text, trees, *labels);
  PhyloLayer(ctx, RequiredFlag(args, "phylo"));
  const double total = NowSeconds() - start;
  ctx.metrics.Num("trace.total_s", total);
  const double overhead =
      SpanCost() * static_cast<double>(g_tracer.spans().size());
  ctx.metrics.Num("trace_overhead_frac", overhead / (total - overhead));

  std::map<std::string, double> layer_self;
  std::string self_json = "{";
  for (const auto& [name, self] : g_tracer.SelfTimes()) {
    layer_self[name.substr(0, name.find('.'))] += self;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", self);
    self_json += (self_json.size() > 1 ? ", \"" : "\"") + name + "\": " + buf;
  }
  for (const char* layer : {"tree", "core", "proc", "svc", "phylo"}) {
    ctx.metrics.Num(std::string(layer) + ".self_s", layer_self[layer]);
  }
  ctx.metrics.Raw("span_self_s", self_json + "}");
  ctx.metrics.Num("spans", g_tracer.spans().size());
  ctx.metrics.Num("attempted", ctx.attempted);
  ctx.metrics.Num("failed", ctx.failed);
  ctx.metrics.Str("simd_tier",
                  cousins::SimdTierName(cousins::ActiveSimdTier()));
  g_tracer.Write(RequiredFlag(args, "spans"));
  std::printf("%s\n", ctx.metrics.str().c_str());
  return 0;
}

}  // namespace perfbench
