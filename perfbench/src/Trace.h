//===--- Trace.h - In-memory spans for the pipeline benchmark --*- C++ -*-===//
//
// Part of the spa project (see src/support/IdTypes.h for the reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around each public call of the
/// pipeline. Spans live in memory and are written out once, as Chrome
/// trace-event JSON, when the traced run ends. A null Trace pointer turns
/// every span into a no-op, which is how untraced passes run.
///
//===----------------------------------------------------------------------===//

#ifndef SPA_PERFBENCH_TRACE_H
#define SPA_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace spa::perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since \p Start.
inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

class Trace {
public:
  struct SpanRecord {
    const char *Name; ///< static string: "pass", "pta.solve", ...
    int Parent;       ///< index of the enclosing span, -1 at the root
    int64_t BeginNs;  ///< since the trace's epoch
    int64_t EndNs;
    std::string Label; ///< input label (empty for pass/workload spans)
  };

  Trace() : Epoch(Clock::now()) {}

  /// Opens a span as a child of the innermost open one; returns its index.
  int begin(const char *Name, std::string Label = {});
  /// Closes span \p Index, which must be the innermost open one.
  void end(int Index);

  const std::vector<SpanRecord> &spans() const { return Spans; }

  /// Self seconds per span name over span \p Root and its descendants:
  /// each span's duration minus its direct children's.
  std::map<std::string, double> selfSeconds(int Root) const;

  /// Writes every span as Chrome trace-event JSON ("X" complete events).
  bool writeChromeJson(const std::string &Path) const;

private:
  Clock::time_point Epoch;
  std::vector<SpanRecord> Spans;
  std::vector<int> Open;
};

/// RAII span; does nothing when the trace is null.
class Span {
public:
  Span(Trace *T, const char *Name, std::string Label = {})
      : T(T), Index(T ? T->begin(Name, std::move(Label)) : -1) {}
  ~Span() {
    if (T)
      T->end(Index);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Trace *T;
  int Index;
};

} // namespace spa::perfbench

#endif // SPA_PERFBENCH_TRACE_H
