//===- perfbench/src/Measure.h - Timing, spans and result output -*- C++ -*-===//
//
// Part of the sharpie benchmark. Everything the workloads share: clocks and
// process resource readings, order statistics, the benchmark's own span
// recorder (spans around the public calls it makes, never inside src/),
// and the one-line JSON result every run ends with.
//
//===----------------------------------------------------------------------===//

#ifndef SHARPIE_PERFBENCH_MEASURE_H
#define SHARPIE_PERFBENCH_MEASURE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace bench {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T);

/// User + system CPU seconds of this process (all threads).
double processCpuSeconds();
/// Peak resident set of this process in MiB.
double processPeakRssMb();

/// Runs \p Argv to completion with stdout and stderr discarded; returns
/// its wall seconds, or -1 when it cannot be spawned or exits non-zero.
double runProcess(const std::vector<std::string> &Argv);

/// The host's speed gauge: one fixed problem (pigeonhole, 7 pigeons in 6
/// holes) solved by libz3 in a fresh context, without any sharpie code, so
/// no change to the program can move it. Returns its wall seconds.
/// Workloads run it next to every sample (paper_cold) or during it
/// (serve_mixed, on a thread of its own) and scale the sample by
/// ReferenceSolveSeconds / (its time there): a figure then reads as the
/// seconds the work would take on a host where the reference solve takes
/// 20 ms, and a shared host's changing speed divides out.
double referenceSolveSeconds();
constexpr double ReferenceSolveSeconds = 0.020;

/// Order statistics over a copy of \p V; 0 for an empty sample.
double median(std::vector<double> V);
/// Nearest-rank percentile (the smallest sample with at least Q of the
/// sample at or below it).
double percentile(std::vector<double> V, double Q);
double mean(const std::vector<double> &V);
double geomean(const std::vector<double> &V);

/// splitmix64: a fixed, library-independent generator, so a seed names the
/// same inputs on every platform and standard library.
struct Rng {
  uint64_t State;
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N); N > 0.
  uint64_t below(uint64_t N) { return next() % N; }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }
};

/// The span recorder. A span is (name, start, end, parent, request id,
/// thread); spans nest per thread through a thread-local stack. Disabled
/// recorders make Scope a no-op, so the untraced run pays one branch.
class Spans {
public:
  Spans() : Epoch(Clock::now()) {}

  /// Switches recording on or off (off initially); only while no other
  /// thread records (between passes or streams).
  void setEnabled(bool On) { Enabled = On; }

  class Scope {
  public:
    Scope(Spans &S, const char *Name, uint64_t Request = 0);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /// This span's id, for adopting it as the parent on another thread.
    int id() const { return Index; }

  private:
    Spans &S;
    int Index = -1;
  };

  /// Makes span \p Parent (a Scope::id() from another thread) the parent
  /// of the spans this thread opens while the Adopt is alive.
  class Adopt {
  public:
    explicit Adopt(int Parent);
    ~Adopt();
    Adopt(const Adopt &) = delete;
    Adopt &operator=(const Adopt &) = delete;
  };

  /// Self seconds summed per span name: each span's duration minus the
  /// time covered by the union of its child spans (children on several
  /// threads may overlap).
  std::map<std::string, double> selfSeconds() const;
  /// Writes the spans as a Chrome trace-event document (the format
  /// obs::writeChromeTrace produces for the library's own tracer).
  bool writeChromeTrace(const std::string &Path) const;

private:
  struct Rec {
    std::string Name;
    double StartUs = 0, EndUs = 0;
    int Parent = -1;
    uint64_t Request = 0;
    unsigned Thread = 0;
  };
  bool Enabled = false;
  Clock::time_point Epoch;
  mutable std::mutex Mu; ///< Guards Recs.
  std::vector<Rec> Recs;
};

/// One metric of the result line.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// A per-row record (one protocol or one request class), printed as its
/// own JSON line before the result so runs can be compared row by row.
struct Row {
  std::string Workload;
  std::string Name;
  std::vector<double> Seconds; ///< One sample per verdict of this row.
  /// The same samples scaled to the reference host speed (see
  /// referenceSolveSeconds).
  std::vector<double> Scaled;
  unsigned Failed = 0;
};

/// What a workload hands back to main().
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures; ///< Human-readable, stderr only.
  std::vector<Metric> Metrics;
  std::vector<Row> Rows;
};

std::string jsonEscape(const std::string &S);

/// Prints every row line, then the result line (always last on stdout).
void printOutcome(const Outcome &O);

/// The per-layer metric names, units and layers, in output order; a
/// traced run prints every one of them (0 where its layer is idle on the
/// workload).
struct LayerMetricSpec {
  const char *Name;
  const char *Unit;
};
const std::vector<LayerMetricSpec> &layerMetricSpecs();

/// Fills \p Out with every per-layer metric, taking values from \p Values
/// and 0 for the rest.
void appendLayerMetrics(const std::map<std::string, double> &Values,
                        std::vector<Metric> &Out);

/// Common run parameters.
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  unsigned Nproc = 1;
  std::string BinDir;   ///< Where the built sharpied lives.
  std::string WorkDir;  ///< Scratch space inside the checkout.
  std::string DataDir;  ///< perfbench/protocols.
};

} // namespace bench

#endif // SHARPIE_PERFBENCH_MEASURE_H
