//===--- Pipeline.cpp -----------------------------------------------------===//
//
// Part of the spa project (see src/support/IdTypes.h for the reference).
//
//===----------------------------------------------------------------------===//

#include "Pipeline.h"

#include "cfront/Parser.h"
#include "check/Checkers.h"
#include "check/Sarif.h"
#include "flow/FlowPass.h"
#include "norm/Normalizer.h"
#include "pta/GraphExport.h"
#include "pta/Telemetry.h"
#include "support/Json.h"

#include <cstdio>
#include <memory>

using namespace spa;
using namespace spa::perfbench;

namespace {

/// The tables one translation unit owns, as CompiledProgram holds them;
/// spelled out so parse and normalize can be timed apart.
struct Unit {
  StringInterner Strings;
  TypeTable Types;
  TranslationUnit TU{Types, Strings};
  NormProgram Prog{Types, Strings};
};

void addRunStats(PassCounters &C, Analysis &A) {
  const SolverRunStats &RS = A.solver().runStats();
  C.Rounds += RS.Rounds;
  C.Pops += RS.Pops;
  C.StmtsApplied += RS.StmtsApplied;
  C.FullPropagations += RS.FullPropagations;
  C.DeltaPropagations += RS.DeltaPropagations;
  for (unsigned R = 0; R < NumSolverRules; ++R) {
    C.RuleApplied += RS.RuleApplied[R];
    C.RuleChanged += RS.RuleChanged[R];
  }
  C.Nodes += RS.Nodes;
  C.Edges += RS.Edges;
  C.BytesHighWater += RS.BytesHighWater;
  const ModelStats &MS = A.model().stats();
  C.LookupCalls += MS.LookupCalls;
  C.ResolveCalls += MS.ResolveCalls;
  C.ResolveMismatch += MS.ResolveMismatch;
}

JobOutput runJob(const std::string &Source, const std::string &Label,
                 ModelKind Model, Trace *T, PassCounters &C, size_t JobIndex,
                 const BeforeTeardown &Hook) {
  JobOutput Out;
  auto U = std::make_unique<Unit>();
  DiagnosticEngine Diags;
  bool Parsed;
  {
    Span S(T, "cfront.parse", Label);
    Parser P(Source, U->TU, Diags, TargetInfo::ilp32());
    Parsed = P.parseTranslationUnit();
  }
  C.InputBytes += Source.size();
  if (Parsed) {
    Span S(T, "norm.normalize", Label);
    Normalizer N(U->TU, U->Prog, Diags);
    N.run();
  }
  if (!Parsed || Diags.hasErrors()) {
    Out.Error = Label + " does not compile:\n" + Diags.formatAll();
    return Out;
  }
  C.Stmts += U->Prog.Stmts.size();
  C.Objects += U->Prog.Objects.size();

  AnalysisOptions Opts = benchOptions(Model);
  Opts.Solver.Diags = &Diags;
  std::unique_ptr<Analysis> A;
  {
    Span S(T, "pta.setup", Label);
    A = std::make_unique<Analysis>(U->Prog, Opts);
  }
  {
    Span S(T, "pta.solve", Label);
    A->run();
  }
  addRunStats(C, *A);
  // Like spa_cli: the flow pass needs a converged fixpoint; checkers and
  // emitters still run, but the job counts as failed.
  if (A->solver().runStats().Converged) {
    Span S(T, "flow.flow", Label);
    FlowResult FR = runFlowPass(A->solver(), FlowMode::Cfg);
    C.SitesRefined += FR.SitesRefined;
    C.ReportsSuppressed += FR.ReportsSuppressed;
    C.JoinMerges += FR.JoinMerges;
  } else {
    Out.Error = Label + " (" + modelKindName(Model) + ") did not converge";
  }
  DiagnosticEngine CheckDiags;
  {
    Span S(T, "check.check", Label);
    C.Findings += runCheckers(*A, {}, CheckDiags).Findings;
  }
  {
    Span S(T, "emit.sarif", Label);
    Out.Sarif = findingsToSarif(CheckDiags, Label);
  }
  {
    Span S(T, "emit.edges", Label);
    Out.Edges = exportEdgeList(A->solver());
  }
  C.OutBytes += Out.Sarif.size() + Out.Edges.size();
  if (Hook)
    Hook(JobIndex, *A);
  {
    Span S(T, "pta.teardown", Label);
    A.reset();
    U.reset();
  }
  return Out;
}

bool sameJson(const JsonValue &A, const JsonValue &B) {
  if (A.K != B.K || A.Bool != B.Bool || A.Number != B.Number ||
      A.Str != B.Str || A.Items.size() != B.Items.size() ||
      A.Members.size() != B.Members.size())
    return false;
  for (size_t I = 0; I < A.Items.size(); ++I)
    if (!sameJson(A.Items[I], B.Items[I]))
      return false;
  for (size_t I = 0; I < A.Members.size(); ++I)
    if (A.Members[I].first != B.Members[I].first ||
        !sameJson(A.Members[I].second, B.Members[I].second))
      return false;
  return true;
}

/// The raw text of top-level member \p Key of a flat telemetry document,
/// for error messages.
std::string jsonMember(const std::string &Doc, const char *Key) {
  std::string Needle = "\"";
  Needle.append(Key).append("\":");
  size_t Begin = Doc.find(Needle);
  if (Begin == std::string::npos)
    return "(absent)";
  size_t End = Doc.find_first_of(Doc[Doc.find(':', Begin) + 1] == '{'
                                     ? "}"
                                     : ",}",
                                 Begin);
  return Doc.substr(Begin, End == std::string::npos ? End : End + 1 - Begin);
}

} // namespace

AnalysisOptions spa::perfbench::benchOptions(ModelKind Model) {
  AnalysisOptions Opts;
  Opts.Model = Model;
  return Opts;
}

PassResult spa::perfbench::runPass(const Workload &W, Trace *T,
                                   const BeforeTeardown &Hook) {
  PassResult R;
  R.Jobs.reserve(W.Jobs.size());
  Clock::time_point Start = Clock::now();
  {
    Span S(T, "pass");
    for (size_t I = 0; I < W.Jobs.size(); ++I) {
      const Workload::Job &J = W.Jobs[I];
      R.Jobs.push_back(runJob(W.Sources[J.Source], W.Labels[J.Source],
                              J.Model, T, R.Counters, I, Hook));
    }
  }
  R.Seconds = secondsSince(Start);
  return R;
}

std::vector<JobDigest> spa::perfbench::digestPass(const PassResult &P) {
  std::vector<JobDigest> D;
  for (const JobOutput &J : P.Jobs)
    D.push_back({fnv1a(J.Edges), fnv1a(J.Sarif)});
  return D;
}

uint64_t spa::perfbench::referenceEdgesDigest(const std::string &Source,
                                              ModelKind Model,
                                              std::string &Error) {
  DiagnosticEngine Diags;
  auto P = CompiledProgram::fromSource(Source, Diags);
  if (!P) {
    Error = "reference compile failed:\n" + Diags.formatAll();
    return 0;
  }
  // The paper-faithful round-robin engine, spelled out so the reference
  // stays naive whatever the library defaults become.
  AnalysisOptions Opts;
  Opts.Model = Model;
  Opts.Solver.UseWorklist = false;
  Opts.Solver.CycleElimination = false;
  Opts.Solver.ParallelSolve = false;
  Opts.Solver.PointsTo = PtsRepr::Sorted;
  Opts.Solver.Preprocess = PreprocessKind::None;
  Analysis A(P->Prog, Opts);
  A.run();
  if (!A.solver().runStats().Converged) {
    Error = "reference engine did not converge";
    return 0;
  }
  return fnv1a(exportEdgeList(A.solver()));
}

void spa::perfbench::checkConfigParity(const std::string &Cli,
                                       const std::string &CorpusFile,
                                       std::string &Error) {
  std::string Cmd = "'" + Cli + "' '" + CorpusFile +
                    "' --check --flow=cfg --stats-json=- 2>/dev/null";
  FILE *Pipe = popen(Cmd.c_str(), "r");
  if (!Pipe) {
    Error = "cannot run " + Cli;
    return;
  }
  std::string Text;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), Pipe)) > 0)
    Text.append(Buf, N);
  int Status = pclose(Pipe);
  std::optional<JsonValue> CliDoc = parseJson(Text);
  if (Status == -1 || !CliDoc || !CliDoc->find("options")) {
    Error = "no telemetry from: " + Cmd;
    return;
  }

  DiagnosticEngine Diags;
  auto P = CompiledProgram::fromFile(CorpusFile, Diags);
  if (!P) {
    Error = CorpusFile + " does not compile";
    return;
  }
  Analysis A(P->Prog, benchOptions(AnalysisOptions().Model));
  A.run();
  std::string OwnText = telemetryToJson(collectTelemetry(A, CorpusFile));
  std::optional<JsonValue> Own = parseJson(OwnText);
  for (const char *Key : {"model", "options"}) {
    const JsonValue *CliVal = CliDoc->find(Key);
    const JsonValue *OwnVal = Own ? Own->find(Key) : nullptr;
    if (!CliVal || !OwnVal || !sameJson(*CliVal, *OwnVal)) {
      Error = std::string("\"") + Key +
              "\" differs between spa_cli and the benchmark:\n  spa_cli:   " +
              jsonMember(Text, Key) + "\n  benchmark: " +
              jsonMember(OwnText, Key);
      return;
    }
  }
}
