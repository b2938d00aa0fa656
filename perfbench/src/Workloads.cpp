//===--- Workloads.cpp ----------------------------------------------------===//
//
// Part of the spa project (see src/support/IdTypes.h for the reference).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "pta/Frontend.h"
#include "workload/Corpus.h"
#include "workload/Generator.h"

#include <fstream>
#include <sstream>

using namespace spa;
using namespace spa::perfbench;

namespace {

constexpr ModelKind AllModels[] = {
    ModelKind::CollapseAlways, ModelKind::CollapseOnCast,
    ModelKind::CommonInitialSeq, ModelKind::Offsets};

/// The ROADMAP's g128 shape: scaling-bench size class 128 with longer
/// functions, function pointers and a few free/branch shapes.
GeneratorConfig genFieldsConfig(bool Quick) {
  unsigned Size = Quick ? 4 : 128;
  GeneratorConfig C;
  C.Seed = 42;
  C.NumStructs = 4 + Size;
  C.NumStructVars = 6 * Size;
  C.NumInts = 4 * Size;
  C.NumPtrVars = 4 * Size;
  C.NumFunctions = 2 * Size;
  C.StmtsPerFunction = 48;
  C.UseHeap = true;
  C.UseFunctionPointers = true;
  C.FreePercent = 5;
  C.BranchPercent = 5;
  return C;
}

/// Small global pools and many heap sites: wide sets over heap objects,
/// with frees in straight-line, branch and loop shapes.
GeneratorConfig genDeallocConfig(bool Quick) {
  GeneratorConfig C;
  C.Seed = 17;
  C.NumStructs = 4;
  C.NumInts = Quick ? 8 : 48;
  C.NumPtrVars = Quick ? 8 : 48;
  C.NumStructVars = Quick ? 8 : 48;
  C.NumFunctions = Quick ? 8 : 96;
  C.StmtsPerFunction = 40;
  C.UseHeap = true;
  C.FreePercent = 20;
  C.BranchPercent = 25;
  C.LoopFreePercent = 10;
  return C;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Out = Buf.str();
  return true;
}

/// splitmix64: a small, portable generator so the job order for a seed is
/// the same with every standard library.
uint64_t splitmix(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

} // namespace

const std::vector<std::string> &spa::perfbench::workloadNames() {
  static const std::vector<std::string> Names = {"corpus", "gen-fields",
                                                 "gen-dealloc"};
  return Names;
}

std::optional<Workload>
spa::perfbench::makeWorkload(const std::string &Name,
                             const std::string &CorpusDir, bool Quick,
                             std::string &Error) {
  Workload W;
  if (Name == "corpus") {
    const std::vector<CorpusEntry> &Manifest = corpusManifest();
    size_t Count = Quick ? 2 : Manifest.size();
    for (size_t I = 0; I < Count; ++I) {
      std::string Text;
      std::string Path = CorpusDir + "/" + Manifest[I].FileName;
      if (!readFile(Path, Text)) {
        Error = "cannot read " + Path;
        return std::nullopt;
      }
      W.Labels.push_back("corpus/" + Manifest[I].FileName);
      W.Sources.push_back(std::move(Text));
      for (ModelKind M : AllModels)
        W.Jobs.push_back({I, M});
    }
    return W;
  }
  GeneratorConfig Config;
  if (Name == "gen-fields")
    Config = genFieldsConfig(Quick);
  else if (Name == "gen-dealloc")
    Config = genDeallocConfig(Quick);
  else {
    Error = "unknown workload '" + Name + "'";
    return std::nullopt;
  }
  W.Labels.push_back(Name + ".c");
  W.Sources.push_back(generateProgram(Config));
  W.Jobs.push_back({0, AnalysisOptions().Model}); // the default model
  return W;
}

void spa::perfbench::shuffleJobs(Workload &W, uint64_t Seed) {
  uint64_t State = Seed;
  for (size_t I = W.Jobs.size(); I > 1; --I)
    std::swap(W.Jobs[I - 1], W.Jobs[splitmix(State) % I]);
}

uint64_t spa::perfbench::fnv1a(std::string_view Bytes, uint64_t H) {
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

Fingerprint spa::perfbench::textFingerprint(const Workload &W) {
  Fingerprint F;
  F.Hash = fnv1a("");
  for (size_t I = 0; I < W.Sources.size(); ++I) {
    F.Bytes += W.Sources[I].size();
    F.Hash = fnv1a(W.Labels[I], F.Hash);
    F.Hash = fnv1a(std::string_view("\0", 1), F.Hash);
    F.Hash = fnv1a(W.Sources[I], F.Hash);
  }
  return F;
}
