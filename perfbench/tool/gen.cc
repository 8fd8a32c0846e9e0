// `perfbench_tool gen`: seeded input forests, one Newick tree per line.
//
//   gen yule --seed=S --trees=N --alphabet=A --out=PATH
//       TreeBASE-shaped Yule phylogenies (gen/yule_generator.h: 50-200
//       nodes, 2-9 children) with leaf labels from an A-taxon alphabet.
//   gen bootstrap --seed=S --trees=N --taxa=T --spr=K --out=PATH
//       Bootstrap-style replicates: one random coalescent model tree over
//       T taxa, each replicate 1..K random SPR moves away from it. The
//       model tree depends only on T, and the seed varies the replicates:
//       the model's shape alone moved one 2000-replicate forest's
//       semi-strict consensus time between 1.33 and 1.83 s.
//
// The same flags always give the same bytes.
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "gen/yule_generator.h"
#include "tree/edit.h"
#include "tree/newick.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using cousins::LabelTable;
using cousins::NewickWriteOptions;
using cousins::Rng;
using cousins::Tree;

/// Separates the generator streams of different input kinds that share
/// one benchmark seed.
uint64_t StreamSeed(uint64_t seed, const std::string& kind) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : kind) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return seed * 0x9E3779B97F4A7C15ULL ^ h;
}

std::string GenYule(const Args& args, Rng& rng) {
  cousins::YulePhylogenyOptions options;
  options.alphabet_size = static_cast<int32_t>(IntFlag(args, "alphabet", 200));
  const int64_t trees = IntFlag(args, "trees", 1000);
  auto labels = std::make_shared<LabelTable>();
  std::string out;
  for (int64_t i = 0; i < trees; ++i) {
    out += cousins::ToNewick(
        cousins::GenerateYulePhylogeny(options, rng, labels));
    out += '\n';
  }
  return out;
}

Tree SprReplicate(const Tree& model, int32_t moves, Rng& rng) {
  Tree tree = model;
  for (int32_t done = 0; done < moves;) {
    const auto prune = static_cast<cousins::NodeId>(rng.Uniform(tree.size()));
    const auto regraft = static_cast<cousins::NodeId>(rng.Uniform(tree.size()));
    cousins::Result<Tree> moved = cousins::SprMove(tree, prune, regraft);
    if (!moved.ok()) continue;
    tree = std::move(moved).value();
    ++done;
  }
  return tree;
}

std::string GenBootstrap(const Args& args, Rng& rng) {
  Rng model_rng(StreamSeed(0, "bootstrap-model"));
  const int32_t taxa = static_cast<int32_t>(IntFlag(args, "taxa", 400));
  const int32_t spr = static_cast<int32_t>(IntFlag(args, "spr", 3));
  const int64_t trees = IntFlag(args, "trees", 2000);
  auto labels = std::make_shared<LabelTable>();
  const Tree model =
      cousins::RandomCoalescentTree(cousins::MakeTaxa(taxa), model_rng, labels);
  NewickWriteOptions write;
  write.write_internal_labels = false;
  std::string out;
  for (int64_t i = 0; i < trees; ++i) {
    const auto moves = static_cast<int32_t>(rng.UniformInt(1, spr));
    out += cousins::ToNewick(SprReplicate(model, moves, rng), write);
    out += '\n';
  }
  return out;
}

}  // namespace

int RunGen(const Args& args) {
  if (args.empty()) {
    throw std::runtime_error("gen needs a kind: yule|bootstrap");
  }
  const std::string& kind = args[0];
  Rng rng(StreamSeed(static_cast<uint64_t>(IntFlag(args, "seed", 1)), kind));
  std::string text;
  if (kind == "yule") {
    text = GenYule(args, rng);
  } else if (kind == "bootstrap") {
    text = GenBootstrap(args, rng);
  } else {
    throw std::runtime_error("unknown gen kind '" + kind + "'");
  }
  WriteFile(RequiredFlag(args, "out"), text);
  return 0;
}

}  // namespace perfbench
