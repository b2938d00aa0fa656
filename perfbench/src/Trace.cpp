//===--- Trace.cpp --------------------------------------------------------===//
//
// Part of the spa project (see src/support/IdTypes.h for the reference).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "support/Json.h"

#include <cstdio>

using namespace spa;
using namespace spa::perfbench;

int Trace::begin(const char *Name, std::string Label) {
  int Parent = Open.empty() ? -1 : Open.back();
  int64_t Now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - Epoch)
                    .count();
  Spans.push_back({Name, Parent, Now, Now, std::move(Label)});
  Open.push_back(static_cast<int>(Spans.size() - 1));
  return Open.back();
}

void Trace::end(int Index) {
  Spans[Index].EndNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now() - Epoch)
                           .count();
  Open.pop_back();
}

std::map<std::string, double> Trace::selfSeconds(int Root) const {
  // Spans are appended in begin order, so a span's descendants follow it
  // contiguously and every parent index is smaller than its child's.
  size_t End = Root + 1;
  while (End < Spans.size() && Spans[End].Parent >= Root)
    ++End;
  std::vector<int64_t> ChildNs(End - Root, 0);
  for (size_t I = Root + 1; I < End; ++I)
    ChildNs[Spans[I].Parent - Root] += Spans[I].EndNs - Spans[I].BeginNs;
  std::map<std::string, double> Self;
  for (size_t I = Root; I < End; ++I)
    Self[Spans[I].Name] +=
        (Spans[I].EndNs - Spans[I].BeginNs - ChildNs[I - Root]) * 1e-9;
  return Self;
}

bool Trace::writeChromeJson(const std::string &Path) const {
  std::string Out = "{\"traceEvents\":[";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    if (I)
      Out += ",\n";
    Out += '{';
    JsonWriter W(Out);
    W.field("name", std::string(S.Name));
    W.field("cat", std::string("spa"));
    W.field("ph", std::string("X"));
    // Microseconds with nanosecond digits (%g would round long runs).
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), ",\"ts\":%.3f,\"dur\":%.3f",
                  S.BeginNs * 1e-3, (S.EndNs - S.BeginNs) * 1e-3);
    Out += Buf;
    W.field("pid", uint64_t(1));
    W.field("tid", uint64_t(1));
    W.open("args");
    W.field("id", uint64_t(I));
    if (S.Parent >= 0)
      W.field("parent", uint64_t(S.Parent));
    if (!S.Label.empty())
      W.field("input", S.Label);
    W.close();
    Out += '}';
  }
  Out += "],\"displayTimeUnit\":\"ms\"}\n";
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  bool Ok = std::fwrite(Out.data(), 1, Out.size(), F) == Out.size();
  return std::fclose(F) == 0 && Ok;
}
