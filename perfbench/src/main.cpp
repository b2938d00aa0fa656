//===--- main.cpp - End-to-end pipeline benchmark driver ------------------===//
//
// Part of the spa project (see src/support/IdTypes.h for the reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the spa_cli pipeline in-process over one named workload as a closed
/// loop of back-to-back passes on one thread, checks every output, and
/// prints each metric by name and unit. The last stdout line is one JSON
/// object: {"correct", "attempted", "failed", "metrics"}.
///
///   spa_perfbench --workload corpus|gen-fields|gen-dealloc --seed N
///                 --seconds S --trace 0|1 --cli PATH [--root DIR]
///                 [--fingerprints FILE] [--trace-out FILE] [--quick]
///                 [--plant-mismatch]
///
/// One run, in order:
///   1. set-up, repeated: read or generate the inputs (setup_s = median);
///      their bytes and hash must match the recorded fingerprint;
///   2. configuration parity: spa_cli's telemetry options = ours;
///   3. the cold first pass; its normalized sizes must match the
///      fingerprint and its digests become the run's reference;
///   4. warm passes for --seconds. Without tracing each warm pass is
///      followed by a cold sample: this binary again with --cold-pass, a
///      fresh process timing its first pass (first_pass_s = median of all
///      cold passes). With --trace 1 untraced and traced passes alternate
///      instead; the traced ones give the per-layer numbers;
///   5. a verification pass: every job certifies, and its edge list equals
///      the naive reference engine's.
/// Every pass must converge and reproduce the cold pass's edge-list and
/// SARIF digests; a failed pass or gate makes the exit code 1.
///
//===----------------------------------------------------------------------===//

#include "Pipeline.h"
#include "Trace.h"
#include "Workloads.h"

#include "pta/Frontend.h"
#include "support/Json.h"
#include "verify/Certifier.h"
#include "workload/Corpus.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace spa;
using namespace spa::perfbench;

namespace {

constexpr int ExitUsage = 64;

/// Set-up repetitions per run; setup_s is their median.
constexpr int SetupReps = 21;

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Traced = false;
  bool Quick = false;
  bool PlantMismatch = false;
  bool ColdPass = false; ///< internal: time one first pass, print it, exit
  std::string Root = ".";
  std::string Cli;
  std::string Fingerprints; ///< default: <root>/perfbench/workloads.json
  std::string TraceOut;     ///< default: <root>/.bench_build/trace-<w>.json
};

bool parseArgs(int argc, char **argv, Args &A) {
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--quick") {
      A.Quick = true;
      continue;
    }
    if (Arg == "--plant-mismatch") {
      A.PlantMismatch = true;
      continue;
    }
    if (Arg == "--cold-pass") {
      A.ColdPass = true;
      continue;
    }
    if (I + 1 >= argc) {
      std::fprintf(stderr, "unknown option or missing value: %s\n",
                   Arg.c_str());
      return false;
    }
    std::string V = argv[++I];
    char *End = nullptr;
    if (Arg == "--workload")
      A.Workload = V;
    else if (Arg == "--seed")
      A.Seed = std::strtoull(V.c_str(), &End, 10);
    else if (Arg == "--seconds")
      A.Seconds = std::strtod(V.c_str(), &End);
    else if (Arg == "--trace" && (V == "0" || V == "1"))
      A.Traced = V == "1";
    else if (Arg == "--root")
      A.Root = V;
    else if (Arg == "--cli")
      A.Cli = V;
    else if (Arg == "--fingerprints")
      A.Fingerprints = V;
    else if (Arg == "--trace-out")
      A.TraceOut = V;
    else {
      std::fprintf(stderr, "unknown option or bad value: %s %s\n",
                   Arg.c_str(), V.c_str());
      return false;
    }
    if (End && *End) {
      std::fprintf(stderr, "%s needs a number, got '%s'\n", Arg.c_str(),
                   V.c_str());
      return false;
    }
  }
  if (A.Workload.empty() || A.Cli.empty() || !(A.Seconds >= 0)) {
    std::fprintf(stderr, "--workload and --cli are required\n");
    return false;
  }
  if (A.Fingerprints.empty())
    A.Fingerprints = A.Root + "/perfbench/workloads.json";
  if (A.TraceOut.empty())
    A.TraceOut = A.Root + "/.bench_build/trace-" + A.Workload + ".json";
  return true;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// The highest of a few standard percentiles with at least ten samples
/// beyond it (nearest rank). With fewer than 20 samples no percentile
/// qualifies and the median rank stands in; Beyond says how many lie past.
struct Tail {
  double Value = 0;
  double Percentile = 50;
  size_t Samples = 0;
  size_t Beyond = 0;
};

Tail tailOf(std::vector<double> V) {
  Tail T;
  T.Samples = V.size();
  if (V.empty())
    return T;
  std::sort(V.begin(), V.end());
  auto RankOf = [&](double P) {
    return std::max<size_t>(1, size_t(std::ceil(P / 100 * V.size())));
  };
  for (double P : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0})
    if (V.size() - RankOf(P) >= 10 || P == 50.0) {
      T.Percentile = P;
      break;
    }
  size_t Rank = RankOf(T.Percentile);
  T.Value = V[Rank - 1];
  T.Beyond = V.size() - Rank;
  return T;
}

/// Runs this binary again with --cold-pass: a fresh process that sets up
/// \p A's workload and times its first pass. nullopt if it failed.
std::optional<double> coldPassInFreshProcess(const Args &A) {
  char Self[4096];
  ssize_t Len = readlink("/proc/self/exe", Self, sizeof(Self) - 1);
  if (Len <= 0)
    return std::nullopt;
  Self[Len] = 0;
  std::string Cmd = std::string("'") + Self + "' --cold-pass --workload " +
                    A.Workload + " --seed " + std::to_string(A.Seed) +
                    " --root '" + A.Root + "' --cli '" + A.Cli + "'" +
                    (A.Quick ? " --quick" : "");
  std::fflush(stdout);
  FILE *Pipe = popen(Cmd.c_str(), "r");
  if (!Pipe)
    return std::nullopt;
  double S = 0;
  bool Got = std::fscanf(Pipe, "%lf", &S) == 1;
  int Status = pclose(Pipe);
  if (!Got || Status == -1 || !WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
    return std::nullopt;
  return S;
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // Linux reports kilobytes
}

/// Pass and gate accounting: failed_frac = Failed / Attempted.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;

  /// Records one pass (or gate) attempt; prints \p Why when it failed.
  void record(bool Ok, const std::string &Why = {}) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      std::fprintf(stderr, "FAIL: %s\n", Why.c_str());
    }
  }
};

/// A pass is good when every job converged and compiled and, given a
/// reference, reproduces its digests.
bool passOk(const PassResult &P, const std::vector<JobDigest> *Ref,
            std::string &Why) {
  for (const JobOutput &J : P.Jobs)
    if (!J.Error.empty()) {
      Why = J.Error;
      return false;
    }
  if (Ref && digestPass(P) != *Ref) {
    Why = "edge-list or SARIF digest differs from the cold pass";
    return false;
  }
  return true;
}

/// Loads the recorded fingerprint of \p Name from \p Path.
std::optional<Fingerprint> recordedFingerprint(const std::string &Path,
                                               const std::string &Name,
                                               bool Quick) {
  std::ifstream In(Path, std::ios::binary);
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::optional<JsonValue> Doc = parseJson(Buf.str());
  const JsonValue *List = Doc ? Doc->find("workloads") : nullptr;
  if (!List)
    return std::nullopt;
  for (const JsonValue &W : List->Items) {
    const JsonValue *N = W.find("name");
    const JsonValue *F = W.find(Quick ? "quick_fingerprint" : "fingerprint");
    if (!N || N->Str != Name || !F)
      continue;
    const JsonValue *Bytes = F->find("bytes"), *Hash = F->find("fnv1a64"),
                    *Stmts = F->find("stmts"), *Objects = F->find("objects");
    if (!Bytes || !Hash || !Stmts || !Objects)
      return std::nullopt;
    Fingerprint R;
    R.Bytes = uint64_t(Bytes->Number);
    R.Hash = std::strtoull(Hash->Str.c_str(), nullptr, 16);
    R.Stmts = uint64_t(Stmts->Number);
    R.Objects = uint64_t(Objects->Number);
    return R;
  }
  return std::nullopt;
}

std::string fingerprintText(const Fingerprint &F) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "{\"bytes\": %llu, \"fnv1a64\": \"%016llx\", \"stmts\": "
                "%llu, \"objects\": %llu}",
                (unsigned long long)F.Bytes, (unsigned long long)F.Hash,
                (unsigned long long)F.Stmts, (unsigned long long)F.Objects);
  return Buf;
}

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// Prints "metric <name> <value> <unit>" lines, then the result object
/// as the last stdout line.
void report(const std::vector<Metric> &Metrics, const Outcome &O) {
  for (const Metric &M : Metrics)
    std::printf("metric %-26s %-14.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit);
  std::string Out = "{\"correct\": ";
  Out += O.Failed ? "false" : "true";
  Out += ", \"attempted\": " + std::to_string(O.Attempted) +
         ", \"failed\": " + std::to_string(O.Failed) + ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g",
                  std::isfinite(Metrics[I].Value) ? Metrics[I].Value : 0.0);
    Out += (I ? ", \"" : "\"") + Metrics[I].Name + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + Metrics[I].Unit + "\"}";
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
}

/// The pipeline's spans in call order, with the per-layer metric each
/// span's self time is reported as.
const std::pair<const char *, const char *> LayerSpans[] = {
    {"cfront.parse", "cfront.parse_s"}, {"norm.normalize", "norm.normalize_s"},
    {"pta.setup", "pta.setup_s"},       {"pta.solve", "pta.solve_s"},
    {"flow.flow", "flow.flow_s"},       {"check.check", "check.check_s"},
    {"emit.sarif", "emit.sarif_s"},     {"emit.edges", "emit.edges_s"},
    {"pta.teardown", "pta.teardown_s"}, {"pass", "pipeline.other_s"},
};

} // namespace

int main(int argc, char **argv) {
  Args A;
  if (!parseArgs(argc, argv, A))
    return ExitUsage;
  if (std::find(workloadNames().begin(), workloadNames().end(), A.Workload) ==
      workloadNames().end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", A.Workload.c_str());
    return ExitUsage;
  }
  Outcome O;

  // 1. Set-up, repeated so its median is steady.
  std::vector<double> SetupTimes;
  std::optional<Workload> W;
  Fingerprint Got;
  std::string Error;
  for (int R = 0; R < (A.ColdPass ? 1 : SetupReps); ++R) {
    Clock::time_point T0 = Clock::now();
    W = makeWorkload(A.Workload, A.Root + "/corpus", A.Quick, Error);
    if (!W)
      break;
    Got = textFingerprint(*W);
    SetupTimes.push_back(secondsSince(T0));
  }
  if (!W) {
    O.record(false, Error);
    report({}, O);
    return 1;
  }
  shuffleJobs(*W, A.Seed);
  if (A.ColdPass) {
    PassResult P = runPass(*W, nullptr);
    std::string Why;
    if (!passOk(P, nullptr, Why)) {
      std::fprintf(stderr, "FAIL: cold pass: %s\n", Why.c_str());
      return 1;
    }
    std::printf("%.17g\n", P.Seconds);
    return 0;
  }
  std::printf("perfbench: workload %s%s, seed %llu, %g s, trace %s\n",
              A.Workload.c_str(), A.Quick ? " (quick)" : "",
              (unsigned long long)A.Seed, A.Seconds, A.Traced ? "on" : "off");
  std::printf("  %zu source(s), %zu pipeline(s) per pass\n",
              W->Sources.size(), W->Jobs.size());

  std::optional<Fingerprint> Want =
      recordedFingerprint(A.Fingerprints, A.Workload, A.Quick);
  if (!Want) {
    O.record(false, "no recorded fingerprint for " + A.Workload + " in " +
                        A.Fingerprints + "; inputs are " +
                        fingerprintText(Got));
    report({}, O);
    return 1;
  }
  if (Got.Bytes != Want->Bytes || Got.Hash != Want->Hash) {
    Got.Stmts = Want->Stmts;
    Got.Objects = Want->Objects;
    O.record(false, "inputs differ from the recorded fingerprint:\n  got  " +
                        fingerprintText(Got) + "\n  want " +
                        fingerprintText(*Want));
    report({}, O);
    return 1;
  }

  // 2. Configuration parity with the spa_cli binary.
  Error.clear();
  checkConfigParity(A.Cli,
                    A.Root + "/corpus/" + corpusManifest()[0].FileName,
                    Error);
  if (!Error.empty()) {
    O.record(false, "configuration parity: " + Error);
    report({}, O);
    return 1;
  }

  // 3. The cold first pass: what a one-shot spa_cli user pays. More cold
  // samples, each from a fresh process, are interleaved with the warm
  // passes below; its digests are the run's reference.
  PassResult Cold = runPass(*W, nullptr);
  std::vector<double> ColdTimes = {Cold.Seconds};
  std::string Why;
  O.record(passOk(Cold, nullptr, Why), "cold pass: " + Why);
  std::vector<JobDigest> Digests = digestPass(Cold);
  Got.Stmts = Cold.Counters.Stmts;
  Got.Objects = Cold.Counters.Objects;
  std::printf("  fingerprint %s\n", fingerprintText(Got).c_str());
  if (Got != *Want)
    O.record(false, "normalized sizes differ from the recorded fingerprint:"
                    "\n  want " +
                        fingerprintText(*Want));

  // 4. Warm passes, closed loop. Every other turn is a traced pass (with
  // --trace 1) or a cold sample (without), so drift hits both alike.
  Trace Tr;
  int WorkloadSpan = A.Traced ? Tr.begin("workload", A.Workload) : -1;
  std::vector<double> Untraced, Traced;
  std::map<std::string, std::vector<double>> SelfTimes;
  PassCounters Counters = Cold.Counters;
  Clock::time_point Start = Clock::now();
  for (bool Warm = true;
       Untraced.empty() || (A.Traced ? Traced.empty() : ColdTimes.size() < 2) ||
       secondsSince(Start) < A.Seconds;
       Warm = !Warm) {
    if (!Warm && !A.Traced) {
      std::optional<double> S = coldPassInFreshProcess(A);
      O.record(S.has_value(), "cold pass in a fresh process failed");
      if (S)
        ColdTimes.push_back(*S);
      continue;
    }
    int PassSpan = static_cast<int>(Tr.spans().size());
    PassResult P = runPass(*W, Warm ? nullptr : &Tr);
    Why.clear();
    O.record(passOk(P, &Digests, Why), "warm pass: " + Why);
    if (Warm) {
      Untraced.push_back(P.Seconds);
      continue;
    }
    Traced.push_back(P.Seconds);
    Counters = P.Counters;
    std::map<std::string, double> Self = Tr.selfSeconds(PassSpan);
    for (const auto &[Span, Metric] : LayerSpans)
      SelfTimes[Metric].push_back(Self[Span]);
  }
  if (A.Traced)
    Tr.end(WorkloadSpan);
  double PeakRss = peakRssMb();

  // 5. Verification: certify every job and compare its edge list with the
  // naive reference engine's (under another model when planting a fault).
  uint64_t DerefTargets = 0, DerefSites = 0;
  std::vector<std::string> CertifyFailures;
  PassResult Verify = runPass(*W, nullptr, [&](size_t J, Analysis &An) {
    CertifyResult CR = certifySolution(An.solver());
    if (!CR.ok())
      CertifyFailures.push_back(
          W->Labels[W->Jobs[J].Source] + " (" +
          modelKindName(W->Jobs[J].Model) + "): " +
          std::to_string(CR.Violations) + " violations, " +
          std::to_string(CR.FactsUnjustified) + " unjustified facts");
    DerefMetrics M = An.derefMetrics();
    DerefTargets += M.TotalTargets;
    DerefSites += M.Sites;
  });
  Why.clear();
  bool VerifyOk = passOk(Verify, &Digests, Why);
  for (const std::string &F : CertifyFailures) {
    VerifyOk = false;
    Why += "certify: " + F + "\n";
  }
  for (size_t J = 0; J < W->Jobs.size() && VerifyOk; ++J) {
    const Workload::Job &Job = W->Jobs[J];
    ModelKind RefModel = A.PlantMismatch
                             ? ModelKind((int(Job.Model) + 1) % 4)
                             : Job.Model;
    Error.clear();
    uint64_t Ref = referenceEdgesDigest(W->Sources[Job.Source], RefModel,
                                        Error);
    if (!Error.empty() || Ref != Digests[J].Edges) {
      VerifyOk = false;
      Why += W->Labels[Job.Source] + " (" + modelKindName(Job.Model) +
             "): edge list differs from the naive reference engine's " +
             Error;
    }
  }
  O.record(VerifyOk, "verification pass: " + Why);

  std::printf("  passes: %zu cold, %zu warm untraced, %zu warm traced, 1 "
              "verification; %llu of %llu failed (failed_frac %g)\n",
              ColdTimes.size(), Untraced.size(), Traced.size(),
              (unsigned long long)O.Failed, (unsigned long long)O.Attempted,
              ratio(double(O.Failed), double(O.Attempted)));
  for (const auto &[What, Times] :
       {std::pair{"cold", &ColdTimes}, std::pair{"warm untraced", &Untraced}}) {
    std::printf("  %s pass seconds:", What);
    for (double S : *Times)
      std::printf(" %.4f", S);
    std::printf("\n");
  }
  Tail T = tailOf(Untraced);
  std::printf("  wall_s_tail is p%g of %zu untraced passes (%zu beyond)\n",
              T.Percentile, T.Samples, T.Beyond);

  double WallS = median(Untraced);
  std::vector<Metric> EndToEnd = {
      {"wall_s", WallS, "s"},
      {"wall_s_tail", T.Value, "s"},
      {"first_pass_s", median(ColdTimes), "s"},
      {"setup_s", median(SetupTimes), "s"},
      {"peak_rss_mb", PeakRss, "MB"},
      {"deref_avg_targets", ratio(double(DerefTargets), double(DerefSites)),
       "targets"},
  };
  if (!A.Traced) {
    std::printf("metric %-26s %-14.6g %s\n", "failed_frac",
                ratio(double(O.Failed), double(O.Attempted)), "frac");
    report(EndToEnd, O);
    return O.Failed ? 1 : 0;
  }

  // The traced run: per-layer self times next to the tracing overhead.
  for (const Metric &M : EndToEnd)
    std::printf("  (untraced) %-18s %.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit);
  if (!Tr.writeChromeJson(A.TraceOut))
    O.record(false, "cannot write " + A.TraceOut);
  double TracedWall = median(Traced);
  std::printf("  spans of %zu traced passes in %s\n", Traced.size(),
              A.TraceOut.c_str());
  std::printf("  %-18s %12s %8s\n", "self time", "median s", "of pass");
  std::vector<Metric> Layers;
  for (const auto &[Span, Name] : LayerSpans) {
    double S = median(SelfTimes[Name]);
    std::printf("  %-18s %12.6f %7.2f%%\n", Span, S,
                100 * ratio(S, TracedWall));
    Layers.push_back({Name, S, "s"});
  }
  double Overhead = ratio(TracedWall - WallS, WallS);
  std::printf("  %-18s %12.6f %7.2f%%  (traced %.6f s vs untraced %.6f s)\n",
              "tracing overhead", TracedWall - WallS, 100 * Overhead,
              TracedWall, WallS);

  const PassCounters &C = Counters;
  auto Count = [&](const char *Name, uint64_t V) {
    Layers.push_back({Name, double(V), "count"});
  };
  double ParseS = median(SelfTimes["cfront.parse_s"]);
  Layers.push_back({"cfront.mb_per_s", ratio(C.InputBytes / 1e6, ParseS),
                    "MB/s"});
  Count("norm.stmts", C.Stmts);
  Count("norm.objects", C.Objects);
  Count("pta.stmts_applied", C.StmtsApplied);
  Count("pta.rounds", C.Rounds);
  Count("pta.pops", C.Pops);
  Count("pta.full_propagations", C.FullPropagations);
  Count("pta.delta_propagations", C.DeltaPropagations);
  Layers.push_back({"pta.changed_frac",
                    ratio(double(C.RuleChanged), double(C.RuleApplied)),
                    "frac"});
  Count("pta.nodes", C.Nodes);
  Count("pta.edges", C.Edges);
  Count("pta.lookup_calls", C.LookupCalls);
  Count("pta.resolve_calls", C.ResolveCalls);
  Count("pta.resolve_mismatch", C.ResolveMismatch);
  Layers.push_back({"pta.bytes_high_water", double(C.BytesHighWater),
                    "bytes"});
  Count("flow.sites_refined", C.SitesRefined);
  Count("flow.reports_suppressed", C.ReportsSuppressed);
  Count("flow.join_merges", C.JoinMerges);
  Count("check.findings", C.Findings);
  Layers.push_back({"emit.out_bytes", double(C.OutBytes), "bytes"});
  Layers.push_back({"trace.overhead_frac", Overhead, "frac"});
  report(Layers, O);
  return O.Failed ? 1 : 0;
}
