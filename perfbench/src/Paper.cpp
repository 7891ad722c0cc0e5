//===- perfbench/src/Paper.cpp - paper_cold and search_parallel ------------===//
//
// Part of the sharpie benchmark. Both workloads verify the paper's built-in
// protocol bundles (protocols/Protocols.h) in-process, each cold: a fresh
// TermManager and bundle per verdict, no reduce cache, no result store. The
// front layer is not involved.
//
//   paper_cold       every bundle of the Fig. 6/7/9 suite except the four
//                    rows slower than 10 s serially, NumWorkers = 1: the
//                    paper's evaluation as a CLI user waits for it.
//   search_parallel  the multi-tuple rows ticket, max and simp-bar with
//                    NumWorkers = nproc: the only load on engine/Pool's
//                    parallel tuple search and speculative tuples.
//
// A pass verifies every row once, in a new seeded order each pass; rows
// under 50 ms are verified again until their samples in the pass add up to
// 50 ms. Passes repeat while the next one still fits in the run's seconds
// (at least one runs), and each row reports the median of its verdicts.
// A reference solve runs before the first row of a pass and after every
// row; each sample of a row is scaled by the mean of the two reference
// solves around it, and the end-to-end times are those scaled samples.
//
// The oracle runs outside the timed region: the verdict must match the
// bundle's ExpectSafe, an unsafe verdict must carry a counterexample, and a
// verified invariant must hold (explct::holdsInAll) on every state
// explct::explore reaches in the bundle's explicit instance -- a check
// independent of the SMT path.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "explicit/Explicit.h"
#include "protocols/Protocols.h"
#include "smt/SmtSolver.h"
#include "synth/Synth.h"

#include <cstdio>
#include <functional>

using namespace sharpie;

namespace bench {
namespace {

struct PaperRow {
  const char *Name;
  std::function<protocols::ProtocolBundle(logic::TermManager &)> Make;
};

// The 31 bundles of `example_run_protocol --list`, minus the four rows that
// take over 10 s serially (ticket 38 s, lamport-bakery 40 s, max 21 s,
// simp-bar 12 s on a 4-core x86 host): with them a single pass would not
// fit a run. ticket, max and simp-bar are measured by search_parallel.
std::vector<PaperRow> coldRows() {
  using namespace protocols;
  using M = logic::TermManager;
  return {
      {"increment", makeIncrement},
      {"intro", makeIntro},
      {"bluetooth", makeBluetooth},
      {"cache", makeCache},
      {"tree-traverse", makeTreeTraverse},
      {"garbage-collection", makeGarbageCollection},
      {"filter", makeFilterLock},
      {"one-third", makeOneThird},
      {"max-nobar", [](M &X) { return makeMax(X, false); }},
      {"reader-writer", [](M &X) { return makeReaderWriter(X, true); }},
      {"reader-writer-bug", [](M &X) { return makeReaderWriter(X, false); }},
      {"parent-child", [](M &X) { return makeParentChild(X, true); }},
      {"parent-child-nobar", [](M &X) { return makeParentChild(X, false); }},
      {"simp-nobar", [](M &X) { return makeSimpBar(X, false); }},
      {"dyn-barrier", [](M &X) { return makeDynBarrier(X, true); }},
      {"dyn-barrier-nobar", [](M &X) { return makeDynBarrier(X, false); }},
      {"as-many", [](M &X) { return makeAsMany(X, true); }},
      {"as-many-bug", [](M &X) { return makeAsMany(X, false); }},
      {"simplified-bakery", makeSimplifiedBakery},
      {"bogus-bakery", makeBogusBakery},
      {"ticket-mutex", makeTicketMutex},
      {"barrier", makeBarrier},
      {"central-barrier", makeCentralBarrier},
      {"work-stealing", makeWorkStealing},
      {"dining-philosophers", makeDiningPhilosophers},
      {"robot-2x2", [](M &X) { return makeRobot(X, 2, 2); }},
      {"robot-3x3", [](M &X) { return makeRobot(X, 3, 3); }},
  };
}

std::vector<PaperRow> parallelRows() {
  using namespace protocols;
  using M = logic::TermManager;
  return {
      {"ticket", makeTicketLock},
      {"max", [](M &X) { return makeMax(X, true); }},
      {"simp-bar", [](M &X) { return makeSimpBar(X, true); }},
  };
}

/// Per-row synthesis budget: far above today's slowest row (ticket, ~14 s
/// at 4 workers); a row over it counts as failed.
constexpr double RowBudgetSeconds = 60;
/// No row starts later than this into the process, so a badly regressed
/// build still exits well inside 180 s.
constexpr double HardStopSeconds = 150;

/// Per-layer sums over the traced passes.
struct LayerSums {
  std::map<std::string, double> V;
  obs::HistSummary ReduceMs, FormulaAtoms, SmtMs, HoudiniMs;
  std::vector<double> Utilization;

  static void fold(obs::HistSummary &Into, const obs::MetricsSummary &M,
                   const char *Name) {
    if (const obs::HistSummary *H = M.hist(Name))
      Into.merge(*H);
  }
  static double ctr(const obs::MetricsSummary &M, const char *Name) {
    const int64_t *C = M.counter(Name);
    return C ? static_cast<double>(*C) : 0.0;
  }

  void add(const synth::SynthStats &S) {
    const obs::MetricsSummary &M = S.Metrics;
    V["engine.reduce_s"] += S.ReduceSeconds;
    V["engine.t2_hits"] += S.CacheHits;
    V["engine.t2_lookups"] += S.CacheHits + S.CacheMisses;
    fold(ReduceMs, M, "reduce_ms");
    fold(FormulaAtoms, M, "formula_atoms");
    fold(SmtMs, M, "smt_ms");
    fold(HoudiniMs, M, "smt_ms.houdini");
    for (const char *Rule : {"card_axioms.unary", "card_axioms.pairwise",
                             "card_axioms.update", "card_axioms.cover",
                             "card_axioms.venn"})
      V["card.axioms"] += ctr(M, Rule);
    V["card.axioms_pairwise"] += ctr(M, "card_axioms.pairwise");
    V["quant.instances"] += ctr(M, "quant_instances");
    V["quant.manifest_instances"] += ctr(M, "manifest_instances");
    V["quant.refine_asserted"] += ctr(M, "refine_instances_asserted");
    V["smt.checks"] += S.SmtChecks;
    V["synth.houdini_s"] += S.HoudiniSeconds;
    V["synth.recheck_s"] += S.RecheckSeconds;
    V["synth.tuples_tried"] += S.TuplesTried;
    V["synth.core_drops"] += ctr(M, "core_drops");
    V["explicit.prefilter_s"] += S.PrefilterSeconds;
    V["resil.retries"] += static_cast<double>(S.Retries);
    V["resil.fallbacks"] += static_cast<double>(S.Fallbacks);
    V["resil.unknowns"] +=
        static_cast<double>(S.UnknownTimeouts + S.UnknownIncomplete);
    Utilization.push_back(S.WorkerUtilization);
  }

  std::map<std::string, double> finish(double Passes) const {
    std::map<std::string, double> Out;
    for (const auto &[K, X] : V)
      Out[K] = X / Passes;
    Out["engine.reduce_calls"] = ReduceMs.Count / Passes;
    Out["engine.reduce_ms_p90"] = ReduceMs.P90;
    Out["engine.formula_atoms_mean"] = FormulaAtoms.mean();
    Out["engine.t2_hit_ratio"] =
        V.count("engine.t2_lookups") && V.at("engine.t2_lookups") > 0
            ? V.at("engine.t2_hits") / V.at("engine.t2_lookups")
            : 0;
    Out["quant.refine_asserted_ratio"] =
        Out["quant.manifest_instances"] > 0
            ? Out["quant.refine_asserted"] / Out["quant.manifest_instances"]
            : 0;
    Out["smt.check_ms_p50"] = SmtMs.P50;
    Out["smt.check_ms_p99"] = SmtMs.P99;
    Out["smt.houdini_check_ms_mean"] = HoudiniMs.mean();
    Out["synth.worker_utilization"] = mean(Utilization);
    return Out;
  }
};

} // namespace

int paperSetupProbe(bool Parallel) {
  for (const PaperRow &Row : Parallel ? parallelRows() : coldRows()) {
    logic::TermManager M;
    protocols::ProtocolBundle B = Row.Make(M);
    if (!smt::makeZ3Solver(M))
      return 1;
  }
  return 0;
}

namespace {

/// One cold verdict: timing, the oracle's finding and the run's stats.
struct Verdict {
  double Seconds = 0, Cpu = 0;
  std::string Why; ///< Empty when the oracle accepts the verdict.
  synth::SynthStats Stats;
  double ExploreSeconds = 0;
  unsigned ExploreStates = 0;
};

Verdict verifyCold(const PaperRow &PR, unsigned Workers, double Budget,
                   obs::Tracer *Tracer, Spans &Sp) {
  Verdict V;
  double Cpu0 = processCpuSeconds();
  auto T0 = Clock::now();
  logic::TermManager M;
  std::optional<protocols::ProtocolBundle> B;
  synth::SynthResult Res;
  try {
    {
      Spans::Scope S(Sp, "bench.bundle");
      B = PR.Make(M);
    }
    synth::SynthOptions Opts;
    Opts.Shape = B->Shape;
    Opts.QGuard = B->QGuard;
    Opts.Reduce.Card.Venn = B->NeedsVenn;
    Opts.Explicit = B->Explicit;
    Opts.NumWorkers = Workers;
    Opts.TimeBudgetSeconds = Budget;
    Opts.Trace = Tracer;
    Spans::Scope S(Sp, "synth.synthesize");
    Res = synth::synthesize(*B->Sys, Opts);
  } catch (const std::exception &E) {
    V.Why = std::string("exception: ") + E.what();
  }
  V.Seconds = secondsSince(T0);
  V.Cpu = processCpuSeconds() - Cpu0;
  V.Stats = Res.Stats;

  // -- Oracle (untimed) -------------------------------------------------------
  if (!V.Why.empty())
    return V;
  if (Res.Inconclusive)
    V.Why = "inconclusive: " + Res.Note;
  else if (V.Seconds > RowBudgetSeconds)
    V.Why = "over the per-row budget";
  else if (B->ExpectSafe && !Res.Verified)
    V.Why = "expected VERIFIED, got " +
            std::string(Res.Cex ? "UNSAFE" : "not verified: " + Res.Note);
  else if (!B->ExpectSafe && !Res.Cex)
    V.Why = "expected UNSAFE with a counterexample";
  else if (Res.Verified) {
    explct::ExplicitResult X;
    {
      Spans::Scope S(Sp, "explicit.explore");
      auto TE = Clock::now();
      X = explct::explore(*B->Sys, B->Explicit);
      V.ExploreSeconds = secondsSince(TE);
      V.ExploreStates = X.NumStates;
    }
    Spans::Scope S(Sp, "explicit.holds");
    if (!explct::holdsInAll(X.States, Res.Invariant))
      V.Why = "invariant violated on an explicit reachable state";
  }
  return V;
}

/// A row is verified again within a pass until its samples add up to this
/// much time: sub-millisecond rows (the explicit-checker bug rows) then
/// contribute a median of many verdicts instead of one jittery sample.
constexpr double MinRowSecondsPerPass = 0.05;
constexpr unsigned MaxRepsPerPass = 200;

} // namespace

Outcome runPaper(const RunConfig &C, bool Parallel) {
  auto ProcessStart = Clock::now();
  std::vector<PaperRow> Rows = Parallel ? parallelRows() : coldRows();
  Rng R(C.Seed);
  unsigned Workers = Parallel ? C.Nproc : 1;
  const char *Workload = Parallel ? "search_parallel" : "paper_cold";
  Outcome O;

  Spans Sp;

  // Set-up: a fresh process elaborating every bundle, 21 times, each
  // scaled by the reference solves before and after it.
  std::vector<double> SetupSamples, RefSamples;
  double RefBefore = referenceSolveSeconds();
  for (int Rep = 0; Rep < 21; ++Rep) {
    double T = runProcess({C.BinDir + "/sharpie_bench", "--setup-probe",
                            "--workload", Workload});
    if (T < 0) {
      O.Attempted = O.Failed = 1;
      O.Failures.push_back("set-up probe failed");
      return O;
    }
    double RefAfter = referenceSolveSeconds();
    SetupSamples.push_back(T * ReferenceSolveSeconds /
                           ((RefBefore + RefAfter) / 2));
    RefBefore = RefAfter;
  }

  // Untraced samples per row feed the end-to-end metrics; a traced run
  // alternates untraced and traced passes (at least one of each) so the
  // tracing overhead is measured under the same conditions.
  std::map<std::string, Row> PerRow;
  std::map<std::string, std::vector<double>> RowCpu, RowCpuScaled;
  std::vector<double> TracedWall, UntracedWall;
  LayerSums Layers;
  double ExploreSeconds = 0, ExploreStates = 0;
  unsigned TracedPasses = 0;
  auto MeasureStart = Clock::now();
  for (unsigned Pass = 0;; ++Pass) {
    bool TracedPass = C.Trace && Pass % 2 == 1;
    R.shuffle(Rows); // A new seeded order every pass.
    auto PassStart = Clock::now();
    double Wall = 0;
    Sp.setEnabled(TracedPass);
    RefBefore = referenceSolveSeconds();
    RefSamples.push_back(RefBefore);
    {
      Spans::Scope PassSp(Sp, "bench.pass");
      for (const PaperRow &PR : Rows) {
        Row &Rec = PerRow[PR.Name];
        Rec.Workload = Workload;
        Rec.Name = PR.Name;
        std::vector<double> Samples, Cpus;
        double Spent = 0;
        for (unsigned Rep = 0;
             Rep == 0 || (Spent < MinRowSecondsPerPass && Rep < MaxRepsPerPass);
             ++Rep) {
          ++O.Attempted;
          double Left = HardStopSeconds - secondsSince(ProcessStart);
          if (Left < 1) {
            ++O.Failed;
            ++Rec.Failed;
            O.Failures.push_back(std::string(PR.Name) +
                                 ": not started, out of time");
            break;
          }
          // Only the first verdict of a row in a traced pass is traced, so
          // the per-layer counts describe one pass over the suite.
          std::unique_ptr<obs::Tracer> Tracer;
          if (TracedPass && Rep == 0)
            Tracer = std::make_unique<obs::Tracer>();
          Verdict V = verifyCold(PR, Workers, std::min(RowBudgetSeconds, Left),
                                 Tracer.get(), Sp);
          Spent += V.Seconds;
          Samples.push_back(V.Seconds);
          Cpus.push_back(V.Cpu);
          if (Tracer) {
            Layers.add(V.Stats);
            ExploreSeconds += V.ExploreSeconds;
            ExploreStates += V.ExploreStates;
          }
          if (!V.Why.empty()) {
            ++O.Failed;
            ++Rec.Failed;
            O.Failures.push_back(std::string(PR.Name) + ": " + V.Why);
          }
        }
        Wall += median(Samples);
        double RefAfter = referenceSolveSeconds();
        RefSamples.push_back(RefAfter);
        double Scale = ReferenceSolveSeconds / ((RefBefore + RefAfter) / 2);
        RefBefore = RefAfter;
        if (TracedPass)
          continue;
        for (size_t I = 0; I < Samples.size(); ++I) {
          Rec.Seconds.push_back(Samples[I]);
          Rec.Scaled.push_back(Samples[I] * Scale);
          RowCpu[PR.Name].push_back(Cpus[I]);
          RowCpuScaled[PR.Name].push_back(Cpus[I] * Scale);
        }
      }
    }
    (TracedPass ? TracedWall : UntracedWall).push_back(Wall);
    TracedPasses += TracedPass;

    double PassSeconds = secondsSince(PassStart);
    bool NeedMore = C.Trace && (TracedWall.empty() || UntracedWall.empty());
    if (secondsSince(ProcessStart) + PassSeconds > HardStopSeconds)
      break;
    if (!NeedMore && secondsSince(MeasureStart) + PassSeconds > C.Seconds)
      break;
  }

  // suite_s and cpu_s sum each row's median verdict, so a pass's outliers
  // and the repeats of fast rows do not skew them.
  std::vector<double> RowMedians;
  double Suite = 0, SuiteCpu = 0, RawWall = 0, RawCpu = 0;
  for (auto &[Name, Rec] : PerRow) {
    RowMedians.push_back(median(Rec.Scaled));
    Suite += RowMedians.back();
    SuiteCpu += median(RowCpuScaled[Name]);
    RawWall += median(Rec.Seconds);
    RawCpu += median(RowCpu[Name]);
    O.Rows.push_back(Rec);
  }
  std::fprintf(stderr, "unscaled: suite_wall_s %.4f, cpu_s %.4f; reference "
                       "solve median %.3f ms over %zu\n",
               RawWall, RawCpu, median(RefSamples) * 1e3, RefSamples.size());

  if (!C.Trace) {
    O.Metrics = {
        {"setup_s", median(SetupSamples), "s"},
        {"ok_share",
         O.Attempted ? 1.0 - static_cast<double>(O.Failed) / O.Attempted : 0,
         "share"},
        {"peak_rss_mb", processPeakRssMb(), "MB"},
        {"cpu_s", SuiteCpu, "s"},
        {"suite_s", Suite, "s"},
        {"verdict_geomean_s", geomean(RowMedians), "s"},
        {"requests_per_s", Suite > 0 ? Rows.size() / Suite : 0, "1/s"},
    };
    return O;
  }

  double Passes = std::max(1u, TracedPasses);
  std::map<std::string, double> V = Layers.finish(Passes);
  V["explicit.explore_s"] = ExploreSeconds / Passes;
  V["explicit.states"] = ExploreStates / Passes;
  V["host.reference_solve_ms"] = median(RefSamples) * 1e3;
  V["host.unscaled_suite_wall_s"] = RawWall;
  double Untraced = median(UntracedWall);
  V["obs.tracing_overhead_pct"] =
      Untraced > 0 ? (median(TracedWall) / Untraced - 1) * 100 : 0;
  std::map<std::string, double> Self = Sp.selfSeconds();
  for (const char *Layer : {"synth", "explicit", "bench"}) {
    double X = 0;
    for (const auto &[Name, Sec] : Self)
      if (Name.rfind(std::string(Layer) + ".", 0) == 0)
        X += Sec;
    V[std::string("self.") + Layer + "_s"] = X / Passes;
  }
  appendLayerMetrics(V, O.Metrics);
  std::string TracePath = C.WorkDir + "/trace-" + Workload + "-" +
                          std::to_string(C.Seed) + ".json";
  if (!Sp.writeChromeTrace(TracePath))
    std::fprintf(stderr, "warning: could not write %s\n", TracePath.c_str());
  return O;
}

} // namespace bench
