//===- perfbench/src/main.cpp - The sharpie benchmark program -------------===//
//
// Part of the sharpie benchmark; perfbench/run.py builds this and runs it.
//
//   sharpie_bench --workload paper_cold|search_parallel|serve_mixed
//                 --seed N --seconds S --trace 0|1
//                 --bin-dir DIR --work-dir DIR --data-dir DIR
//   sharpie_bench --dry-run --seed N ...      print the serve_mixed stream
//   sharpie_bench --check-edits ...           re-derive protocols/edits.txt
//   sharpie_bench --setup-probe --workload W  the set-up runPaper() times
//
// Output: one JSON line per row (protocol or request class) and, last, the
// result line {"correct", "attempted", "failed", "metrics"}. --trace 0
// prints the end-to-end metrics, --trace 1 the per-layer ones and writes
// the benchmark's spans as a Chrome trace under the work directory. Exit
// code 0 when the run completed, even with failed operations (they are
// reported in the result line); 2 on bad usage.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

using namespace bench;

int main(int argc, char **argv) {
  RunConfig C;
  bool DryRun = false, CheckEdits = false, SetupProbe = false;
  for (int I = 1; I < argc; ++I) {
    auto Val = [&]() -> std::string {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", argv[I]);
        std::exit(2);
      }
      return argv[++I];
    };
    if (!std::strcmp(argv[I], "--workload"))
      C.Workload = Val();
    else if (!std::strcmp(argv[I], "--seed"))
      C.Seed = std::strtoull(Val().c_str(), nullptr, 10);
    else if (!std::strcmp(argv[I], "--seconds"))
      C.Seconds = std::strtod(Val().c_str(), nullptr);
    else if (!std::strcmp(argv[I], "--trace"))
      C.Trace = Val() == "1";
    else if (!std::strcmp(argv[I], "--bin-dir"))
      C.BinDir = Val();
    else if (!std::strcmp(argv[I], "--work-dir"))
      C.WorkDir = Val();
    else if (!std::strcmp(argv[I], "--data-dir"))
      C.DataDir = Val();
    else if (!std::strcmp(argv[I], "--dry-run"))
      DryRun = true;
    else if (!std::strcmp(argv[I], "--check-edits"))
      CheckEdits = true;
    else if (!std::strcmp(argv[I], "--setup-probe"))
      SetupProbe = true;
    else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", argv[I]);
      return 2;
    }
  }
  C.Nproc = std::max(1u, std::thread::hardware_concurrency());

  if (DryRun)
    return dryRunServe(C, std::cout);
  if (CheckEdits)
    return checkServeEdits(C, std::cout);
  if (SetupProbe)
    return paperSetupProbe(C.Workload == "search_parallel");

  Outcome O;
  if (C.Workload == "paper_cold")
    O = runPaper(C, /*Parallel=*/false);
  else if (C.Workload == "search_parallel")
    O = runPaper(C, /*Parallel=*/true);
  else if (C.Workload == "serve_mixed")
    O = runServe(C);
  else {
    std::fprintf(stderr, "error: unknown workload '%s'\n", C.Workload.c_str());
    return 2;
  }
  for (const std::string &F : O.Failures)
    std::fprintf(stderr, "FAILED %s\n", F.c_str());
  std::fprintf(stderr, "workload %s, seed %llu, nproc %u: %llu attempted, "
                       "%llu failed\n",
               C.Workload.c_str(), static_cast<unsigned long long>(C.Seed),
               C.Nproc, static_cast<unsigned long long>(O.Attempted),
               static_cast<unsigned long long>(O.Failed));
  printOutcome(O);
  return 0;
}
