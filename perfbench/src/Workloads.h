//===--- Workloads.h - Inputs of the pipeline benchmark --------*- C++ -*-===//
//
// Part of the spa project (see src/support/IdTypes.h for the reference).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's named workloads. Each is a list of C sources plus the
/// jobs one pass runs over them: one full pipeline per (source, model),
/// as that many spa_cli calls would run it.
///
///   corpus       the 20 corpus/*.c programs x the four models
///   gen-fields   one generated program, struct/cast-heavy (the g128 shape)
///   gen-dealloc  one generated program, heap- and free-heavy
///
/// Quick mode shrinks every workload to a few-millisecond pass for the
/// benchmark's self-test.
///
//===----------------------------------------------------------------------===//

#ifndef SPA_PERFBENCH_WORKLOADS_H
#define SPA_PERFBENCH_WORKLOADS_H

#include "pta/FieldModel.h"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace spa::perfbench {

struct Workload {
  struct Job {
    size_t Source;
    ModelKind Model;
  };

  std::vector<std::string> Labels;  ///< one per source, e.g. "corpus/bc.c"
  std::vector<std::string> Sources; ///< C text, parallel to Labels
  std::vector<Job> Jobs;            ///< run in this order by every pass
};

/// Identity of a workload's inputs. Bytes and Hash come from the text;
/// Stmts and Objects are the normalized program sizes summed over one
/// pass's jobs.
struct Fingerprint {
  uint64_t Bytes = 0;
  uint64_t Hash = 0;
  uint64_t Stmts = 0;
  uint64_t Objects = 0;

  bool operator==(const Fingerprint &) const = default;
};

/// The workload names, in the order the benchmark documents them.
const std::vector<std::string> &workloadNames();

/// Builds workload \p Name: reads the corpus under \p CorpusDir or runs
/// the generator. Null with \p Error set on an unknown name or a missing
/// file.
std::optional<Workload> makeWorkload(const std::string &Name,
                                     const std::string &CorpusDir, bool Quick,
                                     std::string &Error);

/// Reorders the jobs by a permutation drawn from \p Seed (a no-op for
/// single-job workloads).
void shuffleJobs(Workload &W, uint64_t Seed);

/// 64-bit FNV-1a, continuing from \p H.
uint64_t fnv1a(std::string_view Bytes, uint64_t H = 14695981039346656037ull);

/// Bytes and Hash of \p W's text (labels included, in source order).
Fingerprint textFingerprint(const Workload &W);

} // namespace spa::perfbench

#endif // SPA_PERFBENCH_WORKLOADS_H
