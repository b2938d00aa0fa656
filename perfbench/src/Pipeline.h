//===--- Pipeline.h - One benchmark pass over a workload -------*- C++ -*-===//
//
// Part of the spa project (see src/support/IdTypes.h for the reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The spa_cli pipeline, called in-process through the same public API
/// `spa_cli --check --flow=cfg` uses:
///
///   Parser::parseTranslationUnit -> Normalizer::run -> Analysis ctor ->
///   Analysis::run -> runFlowPass(Cfg) -> runCheckers(all) ->
///   findingsToSarif + exportEdgeList -> teardown
///
/// plus the correctness gates the benchmark runs around it: certification,
/// the naive reference engine's edge list, and configuration parity with
/// the spa_cli binary.
///
//===----------------------------------------------------------------------===//

#ifndef SPA_PERFBENCH_PIPELINE_H
#define SPA_PERFBENCH_PIPELINE_H

#include "Trace.h"
#include "Workloads.h"

#include "pta/Frontend.h"

#include <functional>
#include <string>
#include <vector>

namespace spa::perfbench {

/// Work counters of one pass, summed over its jobs.
struct PassCounters {
  uint64_t InputBytes = 0;
  uint64_t Stmts = 0;
  uint64_t Objects = 0;
  uint64_t Rounds = 0;
  uint64_t Pops = 0;
  uint64_t StmtsApplied = 0;
  uint64_t FullPropagations = 0;
  uint64_t DeltaPropagations = 0;
  uint64_t RuleApplied = 0;
  uint64_t RuleChanged = 0;
  uint64_t Nodes = 0;
  uint64_t Edges = 0;
  uint64_t LookupCalls = 0;
  uint64_t ResolveCalls = 0;
  uint64_t ResolveMismatch = 0;
  uint64_t BytesHighWater = 0;
  uint64_t SitesRefined = 0;
  uint64_t ReportsSuppressed = 0;
  uint64_t JoinMerges = 0;
  uint64_t Findings = 0;
  uint64_t OutBytes = 0;
};

/// What one job leaves behind: its emitted documents, or why it failed.
struct JobOutput {
  std::string Error; ///< empty on success
  std::string Sarif;
  std::string Edges;
};

struct PassResult {
  double Seconds = 0; ///< wall time of the whole pass, teardown included
  std::vector<JobOutput> Jobs;
  PassCounters Counters;
};

/// Called on each job's solved analysis after its documents are emitted
/// and before teardown. Used only by the verification pass.
using BeforeTeardown = std::function<void(size_t Job, Analysis &A)>;

/// The options `spa_cli --check --flow=cfg` runs with when no engine,
/// set-representation or preprocessing flag is given: the library
/// defaults. The configuration-parity gate holds the two together.
AnalysisOptions benchOptions(ModelKind Model);

/// Runs every job of \p W once, in order, inside a "pass" span of \p T
/// (no spans when \p T is null).
PassResult runPass(const Workload &W, Trace *T,
                   const BeforeTeardown &Hook = nullptr);

/// Digest of one job's documents: (edge list, SARIF).
struct JobDigest {
  uint64_t Edges = 0;
  uint64_t Sarif = 0;
  bool operator==(const JobDigest &) const = default;
};
std::vector<JobDigest> digestPass(const PassResult &P);

/// Edge-list digest of \p Source under the naive reference engine.
/// Empty \p Error on success.
uint64_t referenceEdgesDigest(const std::string &Source, ModelKind Model,
                              std::string &Error);

/// Runs `<Cli> <CorpusFile> --check --flow=cfg --stats-json=-` and checks
/// that its "options" object equals the one collectTelemetry reports for
/// benchOptions over the same file. Empty \p Error on success.
void checkConfigParity(const std::string &Cli, const std::string &CorpusFile,
                       std::string &Error);

} // namespace spa::perfbench

#endif // SPA_PERFBENCH_PIPELINE_H
