//===- perfbench/src/Workloads.h - The benchmark's workloads ----*- C++ -*-===//
//
// Part of the sharpie benchmark. Each workload runs for RunConfig::Seconds
// (at least one full pass), checks every verdict against an independent
// oracle and returns its metrics; main() prints them.
//
//===----------------------------------------------------------------------===//

#ifndef SHARPIE_PERFBENCH_WORKLOADS_H
#define SHARPIE_PERFBENCH_WORKLOADS_H

#include "Measure.h"

#include <ostream>

namespace bench {

/// paper_cold (Parallel = false) and search_parallel (Parallel = true):
/// the paper's built-in protocol bundles verified cold, in-process.
Outcome runPaper(const RunConfig &C, bool Parallel);

/// The set-up a CLI user pays before the first verdict, run in a fresh
/// process: load the library, elaborate every bundle of the workload and
/// create a Z3 solver for each. runPaper() times it as setup_s.
int paperSetupProbe(bool Parallel);

/// serve_mixed: a closed loop of min(nproc, 8) clients against a spawned
/// sharpied.
Outcome runServe(const RunConfig &C);

/// Prints the seeded serve_mixed request stream (class, client, protocol,
/// canonical hash) without starting a daemon.
int dryRunServe(const RunConfig &C, std::ostream &OS);

/// Verifies every check-block edit the generator may use, in-process, and
/// prints one line per edit with the verdict it produced; exit 0 when all
/// match the protocol's `expect` line. Its output is the recorded
/// protocols/edits.txt.
int checkServeEdits(const RunConfig &C, std::ostream &OS);

} // namespace bench

#endif // SHARPIE_PERFBENCH_WORKLOADS_H
