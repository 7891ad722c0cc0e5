//===- perfbench/src/Measure.cpp - Timing, spans and result output --------===//

#include "Measure.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <z3++.h>

extern char **environ;

namespace bench {

double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

double processCpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) { return T.tv_sec + T.tv_usec / 1e6; };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

double processPeakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux.
}

double runProcess(const std::vector<std::string> &Argv) {
  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);
  posix_spawn_file_actions_t FA;
  posix_spawn_file_actions_init(&FA);
  posix_spawn_file_actions_addopen(&FA, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&FA, 2, "/dev/null", O_WRONLY, 0);
  auto T0 = Clock::now();
  pid_t Pid = -1;
  int Rc = posix_spawn(&Pid, Args[0], &FA, nullptr, Args.data(), environ);
  posix_spawn_file_actions_destroy(&FA);
  if (Rc != 0)
    return -1;
  int Status = 0;
  if (waitpid(Pid, &Status, 0) != Pid || !WIFEXITED(Status) ||
      WEXITSTATUS(Status) != 0)
    return -1;
  return secondsSince(T0);
}

double referenceSolveSeconds() {
  auto T0 = Clock::now();
  constexpr int Pigeons = 7, Holes = 6;
  z3::context Ctx;
  z3::solver S(Ctx);
  std::vector<std::vector<z3::expr>> In(Pigeons);
  for (int P = 0; P < Pigeons; ++P) {
    z3::expr_vector Some(Ctx);
    for (int H = 0; H < Holes; ++H) {
      std::string Name = "p" + std::to_string(P) + "h" + std::to_string(H);
      In[P].push_back(Ctx.bool_const(Name.c_str()));
      Some.push_back(In[P][H]);
    }
    S.add(z3::mk_or(Some));
  }
  for (int H = 0; H < Holes; ++H)
    for (int A = 0; A < Pigeons; ++A)
      for (int B = A + 1; B < Pigeons; ++B)
        S.add(!In[A][H] || !In[B][H]);
  if (S.check() != z3::unsat)
    std::abort(); // libz3 itself is broken; no figure would mean anything.
  return secondsSince(T0);
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * V.size()));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

double mean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double S = 0;
  for (double X : V)
    S += X;
  return S / V.size();
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double L = 0;
  for (double X : V)
    L += std::log(std::max(X, 1e-9));
  return std::exp(L / V.size());
}

// -- Spans -------------------------------------------------------------------

namespace {
thread_local std::vector<int> OpenSpans;

unsigned threadIndex() {
  static std::mutex Mu;
  static std::map<std::thread::id, unsigned> Ids;
  std::lock_guard<std::mutex> L(Mu);
  auto [It, New] = Ids.emplace(std::this_thread::get_id(), Ids.size());
  (void)New;
  return It->second;
}
} // namespace

Spans::Scope::Scope(Spans &S, const char *Name, uint64_t Request) : S(S) {
  if (!S.Enabled)
    return;
  Rec R;
  R.Name = Name;
  R.Parent = OpenSpans.empty() ? -1 : OpenSpans.back();
  R.Request = Request;
  R.Thread = threadIndex();
  R.StartUs = std::chrono::duration<double, std::micro>(Clock::now() - S.Epoch)
                  .count();
  std::lock_guard<std::mutex> L(S.Mu);
  Index = static_cast<int>(S.Recs.size());
  S.Recs.push_back(std::move(R));
  OpenSpans.push_back(Index);
}

Spans::Adopt::Adopt(int Parent) { OpenSpans.push_back(Parent); }
Spans::Adopt::~Adopt() { OpenSpans.pop_back(); }

Spans::Scope::~Scope() {
  if (Index < 0)
    return;
  double End =
      std::chrono::duration<double, std::micro>(Clock::now() - S.Epoch).count();
  OpenSpans.pop_back();
  std::lock_guard<std::mutex> L(S.Mu);
  S.Recs[Index].EndUs = End;
}

std::map<std::string, double> Spans::selfSeconds() const {
  std::lock_guard<std::mutex> L(Mu);
  std::vector<std::vector<std::pair<double, double>>> Kids(Recs.size());
  for (const Rec &R : Recs)
    if (R.Parent >= 0)
      Kids[R.Parent].push_back({R.StartUs, R.EndUs});
  std::map<std::string, double> Out;
  for (size_t I = 0; I < Recs.size(); ++I) {
    std::sort(Kids[I].begin(), Kids[I].end());
    double Covered = 0, Until = Recs[I].StartUs;
    for (auto [B, E] : Kids[I]) {
      B = std::max(B, Until);
      if (E > B) {
        Covered += E - B;
        Until = E;
      }
    }
    Out[Recs[I].Name] +=
        std::max(0.0, Recs[I].EndUs - Recs[I].StartUs - Covered) / 1e6;
  }
  return Out;
}

bool Spans::writeChromeTrace(const std::string &Path) const {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::lock_guard<std::mutex> L(Mu);
  std::fprintf(F, "{\"traceEvents\":[");
  for (size_t I = 0; I < Recs.size(); ++I) {
    const Rec &R = Recs[I];
    std::fprintf(F,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"request\":%llu}}",
                 I ? "," : "", jsonEscape(R.Name).c_str(), R.Thread,
                 R.StartUs, R.EndUs - R.StartUs, I, R.Parent,
                 static_cast<unsigned long long>(R.Request));
  }
  std::fprintf(F, "\n],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(F) == 0;
}

// -- Output ------------------------------------------------------------------

std::string jsonEscape(const std::string &S) {
  std::string O;
  for (char C : S) {
    if (C == '"' || C == '\\') {
      O += '\\';
      O += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      O += Buf;
    } else {
      O += C;
    }
  }
  return O;
}

void printOutcome(const Outcome &O) {
  for (const Row &R : O.Rows) {
    std::vector<double> Ms;
    for (double S : R.Seconds)
      Ms.push_back(S * 1e3);
    std::printf("{\"row\":\"%s\",\"workload\":\"%s\",\"n\":%zu,"
                "\"failed\":%u,\"p50_ms\":%.4f,\"p90_ms\":%.4f,"
                "\"p99_ms\":%.4f,\"geomean_ms\":%.4f",
                jsonEscape(R.Name).c_str(), jsonEscape(R.Workload).c_str(),
                Ms.size(), R.Failed, percentile(Ms, 0.5), percentile(Ms, 0.9),
                percentile(Ms, 0.99), geomean(Ms));
    if (!R.Scaled.empty())
      std::printf(",\"p50_scaled_ms\":%.4f", percentile(R.Scaled, 0.5) * 1e3);
    std::printf("}\n");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              O.Failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(O.Attempted),
              static_cast<unsigned long long>(O.Failed));
  for (size_t I = 0; I < O.Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", O.Metrics[I].Name.c_str(), O.Metrics[I].Value,
                O.Metrics[I].Unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

const std::vector<LayerMetricSpec> &layerMetricSpecs() {
  static const std::vector<LayerMetricSpec> Specs = {
      {"front.parse_ms_p50", "ms"},
      {"front.canon_hash_ms_p50", "ms"},
      {"serve.hit_p50_ms", "ms"},
      {"serve.hit_p99_ms", "ms"},
      {"serve.miss_p50_ms", "ms"},
      {"serve.miss_p90_ms", "ms"},
      {"serve.edit_p50_ms", "ms"},
      {"serve.fresh_p50_ms", "ms"},
      {"serve.queue_wire_ms_p99", "ms"},
      {"serve.server_hit_ms_p50", "ms"},
      {"serve.cache_lookup_ms_p50", "ms"},
      {"serve.t1_hit_ratio", "ratio"},
      {"serve.pool_utilization", "ratio"},
      {"engine.reduce_s", "s"},
      {"engine.reduce_calls", "count"},
      {"engine.reduce_ms_p90", "ms"},
      {"engine.formula_atoms_mean", "count"},
      {"engine.t2_hit_ratio", "ratio"},
      {"card.axioms", "count"},
      {"card.axioms_pairwise", "count"},
      {"quant.instances", "count"},
      {"quant.manifest_instances", "count"},
      {"quant.refine_asserted_ratio", "ratio"},
      {"smt.checks", "count"},
      {"smt.check_ms_p50", "ms"},
      {"smt.check_ms_p99", "ms"},
      {"smt.houdini_check_ms_mean", "ms"},
      {"synth.houdini_s", "s"},
      {"synth.recheck_s", "s"},
      {"synth.tuples_tried", "count"},
      {"synth.core_drops", "count"},
      {"synth.worker_utilization", "ratio"},
      {"explicit.explore_s", "s"},
      {"explicit.states", "count"},
      {"explicit.prefilter_s", "s"},
      {"resil.retries", "count"},
      {"resil.fallbacks", "count"},
      {"resil.unknowns", "count"},
      {"obs.flight_bytes", "bytes"},
      {"obs.tracing_overhead_pct", "%"},
      {"host.reference_solve_ms", "ms"},
      {"host.unscaled_suite_wall_s", "s"},
      {"self.front_s", "s"},
      {"self.serve_s", "s"},
      {"self.synth_s", "s"},
      {"self.explicit_s", "s"},
      {"self.bench_s", "s"},
  };
  return Specs;
}

void appendLayerMetrics(const std::map<std::string, double> &Values,
                        std::vector<Metric> &Out) {
  for (const LayerMetricSpec &S : layerMetricSpecs()) {
    auto It = Values.find(S.Name);
    Out.push_back({S.Name, It == Values.end() ? 0.0 : It->second, S.Unit});
  }
}

} // namespace bench
