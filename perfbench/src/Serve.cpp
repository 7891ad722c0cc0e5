//===- perfbench/src/Serve.cpp - serve_mixed ------------------------------===//
//
// Part of the sharpie benchmark. A real sharpied (the shipped binary with
// its shipped defaults: 2 request workers, queue depth 8, telemetry on)
// gets a fresh store per stream, and a closed loop of min(nproc, 8) client
// connections -- CI callers that each wait for their verdict -- drives a
// seeded request stream over the protocols in perfbench/protocols (the
// examples/protocols files except ticket_lock, snapshotted so the inputs
// cannot drift with the examples). The daemon only ever sees generated
// source text. Requests come in three classes:
//
//   fresh  a problem never seen before: a protocol with every declared
//          name suffixed, so both store tiers miss;
//   edit   a verdict-preserving check-block edit (threads / max_states, as
//          recorded in protocols/edits.txt) of a problem already answered:
//          a tier-1 miss over warm tier-2 reduce entries;
//   hit    a repeat of an answered problem, verbatim or after a
//          whitespace/comment edit that must hash the same.
//
// Each family (one fresh problem) contributes 1 fresh, 1 edit and 20
// hits; 56 families give 1232 requests a stream, so hit p99 and miss p90
// each have more than ten samples beyond them. Families are private to a
// client, so every hit targets a verdict its own client already received.
//
// Oracle: the exit code matches the file's `expect`, the response hash
// equals the canonical hash the benchmark computes itself
// (front::canonicalProblemHash), the cache tier matches the class, and a
// hit's output is byte-identical to the miss that stored it.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "front/Canon.h"
#include "front/ExitCodes.h"
#include "front/Front.h"
#include "serve/Client.h"
#include "serve/Proto.h"
#include "synth/Synth.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <condition_variable>
#include <cstring>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <poll.h>
#include <set>
#include <spawn.h>
#include <sstream>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

extern char **environ;

using namespace sharpie;
namespace fs = std::filesystem;

namespace bench {
namespace {

constexpr unsigned FamiliesPerProtocol = 7;
constexpr unsigned HitsPerFamily = 20;
constexpr unsigned MaxClients = 8;      ///< Below the daemon's capacity (10).
constexpr double RequestBudgetSeconds = 30;
constexpr double HardStopSeconds = 150;

enum Class : uint8_t { Hit, Edit, Fresh };
const char *className(Class C) {
  return C == Hit ? "hit" : C == Edit ? "edit" : "fresh";
}

struct BaseProtocol {
  std::string File;
  std::string Text;
  bool ExpectSafe = true;
  /// Checked edits per family variant k (protocols/edits.txt).
  std::vector<std::vector<std::string>> Edits;
};

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

bool isIdentStart(char C) {
  return std::isalpha(static_cast<unsigned char>(C)) || C == '_';
}
bool isIdentChar(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
}

/// Calls F(identifier, begin, end) for every identifier outside comments
/// and string literals.
template <typename Fn> void forEachIdent(const std::string &T, Fn F) {
  size_t I = 0;
  while (I < T.size()) {
    if (T.compare(I, 2, "//") == 0) {
      I = T.find('\n', I);
      if (I == std::string::npos)
        return;
    } else if (T[I] == '"') {
      size_t E = T.find('"', I + 1);
      I = E == std::string::npos ? T.size() : E + 1;
    } else if (isIdentStart(T[I])) {
      size_t B = I;
      while (I < T.size() && isIdentChar(T[I]))
        ++I;
      F(T.substr(B, I - B), B, I);
    } else {
      ++I;
    }
  }
}

/// Every name the protocol declares (its own name, globals, locals, size):
/// renaming all of them consistently keeps the verdict and moves both the
/// canonical hash and every reduce-cache key.
std::set<std::string> declaredNames(const std::string &T) {
  std::set<std::string> Names;
  bool Next = false;
  forEachIdent(T, [&](const std::string &Id, size_t, size_t) {
    if (Next)
      Names.insert(Id);
    Next = Id == "protocol" || Id == "global" || Id == "local" || Id == "size";
  });
  return Names;
}

/// The k-th fresh family of a protocol: every declared name gets the
/// suffix _v<k>. Fixed per (protocol, k), so protocols/edits.txt checks
/// exactly the texts the generator sends.
std::string familyText(const std::string &T, unsigned K) {
  const std::string Suffix = "_v" + std::to_string(K);
  std::set<std::string> Names = declaredNames(T);
  std::string Out;
  size_t Last = 0;
  forEachIdent(T, [&](const std::string &Id, size_t, size_t E) {
    if (!Names.count(Id))
      return;
    Out.append(T, Last, E - Last);
    Out += Suffix;
    Last = E;
  });
  Out.append(T, Last, std::string::npos);
  return Out;
}

/// Applies "key=value[,key=value]" to the check block: replaces the value
/// of `threads:` / `max_states:`, inserting the line after `threads:` when
/// the block has none. Empty string on a malformed edit.
std::string applyEdit(const std::string &T, const std::string &Edit) {
  std::string Out = T;
  std::stringstream SS(Edit);
  std::string Item;
  while (std::getline(SS, Item, ',')) {
    size_t Eq = Item.find('=');
    if (Eq == std::string::npos)
      return "";
    std::string Key = Item.substr(0, Eq) + ":", Val = Item.substr(Eq + 1);
    size_t P = Out.find(Key);
    if (P != std::string::npos) {
      size_t V = P + Key.size(), E = Out.find(';', V);
      if (E == std::string::npos)
        return "";
      Out.replace(V, E - V, " " + Val);
      continue;
    }
    size_t Th = Out.find("threads:");
    if (Th == std::string::npos)
      return "";
    size_t Eol = Out.find('\n', Th);
    size_t LineStart = Out.rfind('\n', Th) + 1;
    std::string Indent = Out.substr(LineStart, Th - LineStart);
    Out.insert(Eol + 1, Indent + Key + " " + Val + ";\n");
  }
  return Out;
}

/// A whitespace/comment-only rewrite: the lexer erases all of it, so the
/// canonical hash must not move.
std::string reformat(const std::string &T, unsigned Style, unsigned K) {
  switch (Style % 4) {
  case 1:
    return "// resubmitted, revision " + std::to_string(K) + "\n" + T;
  case 2: {
    std::string Out;
    for (char C : T) {
      if (C == '\n')
        Out += "  ";
      Out += C;
    }
    return Out;
  }
  case 3: {
    std::string Out;
    for (size_t I = 0; I < T.size(); ++I) {
      Out += T[I];
      if (T[I] == '\n' && T.compare(I + 1, 2, "  ") == 0)
        Out += "  ";
    }
    return Out + "\n\n";
  }
  default:
    return T;
  }
}

/// Candidate check-block edits; checkServeEdits() decides which keep the
/// verdict, and only those recorded as ok are used.
std::vector<std::string> candidateEdits(const std::string &T) {
  std::vector<std::string> Out;
  auto Field = [&](const char *Key) -> long {
    size_t P = T.find(Key);
    return P == std::string::npos ? -1
                                  : std::atol(T.c_str() + P + std::strlen(Key));
  };
  long Threads = Field("threads:"), MaxStates = Field("max_states:");
  std::vector<long> StateVals =
      MaxStates > 0 ? std::vector<long>{MaxStates * 3 / 4, MaxStates / 2}
                    : std::vector<long>{20000, 30000};
  for (long Th : {2L, 3L, 4L}) {
    std::string ThreadsEdit =
        Th != Threads ? "threads=" + std::to_string(Th) : "";
    if (!ThreadsEdit.empty())
      Out.push_back(ThreadsEdit);
    for (long MS : StateVals)
      Out.push_back((ThreadsEdit.empty() ? "" : ThreadsEdit + ",") +
                    "max_states=" + std::to_string(MS));
  }
  return Out;
}

std::vector<BaseProtocol> loadBases(const std::string &DataDir,
                                    std::string &Err) {
  std::vector<BaseProtocol> Bases;
  std::vector<fs::path> Files;
  std::error_code EC;
  for (const auto &E : fs::directory_iterator(DataDir, EC))
    if (E.path().extension() == ".sharpie")
      Files.push_back(E.path());
  if (EC || Files.empty()) {
    Err = "no protocols under " + DataDir;
    return {};
  }
  std::sort(Files.begin(), Files.end());
  for (const fs::path &P : Files) {
    BaseProtocol B;
    B.File = P.filename().string();
    B.Text = readFile(P.string());
    B.ExpectSafe = B.Text.find("expect unsafe;") == std::string::npos;
    B.Edits.resize(FamiliesPerProtocol);
    Bases.push_back(std::move(B));
  }
  std::ifstream In(DataDir + "/edits.txt");
  std::string Line;
  std::set<std::pair<std::string, unsigned>> FreshOk;
  while (std::getline(In, Line)) {
    std::stringstream SS(Line);
    std::string File, Edit, Got, Want;
    unsigned K = 0;
    if (Line.empty() || Line[0] == '#' ||
        !(SS >> File >> K >> Edit >> Got >> Want) || Got != Want ||
        K >= FamiliesPerProtocol)
      continue;
    for (BaseProtocol &B : Bases)
      if (B.File == File) {
        if (Edit == "none")
          FreshOk.insert({File, K});
        else
          B.Edits[K].push_back(Edit);
      }
  }
  for (const BaseProtocol &B : Bases)
    for (unsigned K = 0; K < FamiliesPerProtocol; ++K)
      if (!FreshOk.count({B.File, K}) || B.Edits[K].empty()) {
        Err = "edits.txt has no passing check for " + B.File + " family " +
              std::to_string(K);
        return {};
      }
  return Bases;
}

struct Request {
  Class Cls = Hit;
  unsigned Client = 0;
  unsigned Base = 0;
  std::string File;  ///< Display name sent with the request.
  std::string Label; ///< "<file> v<k> <edit> [style<n>]" for the dry run.
  std::string Text;
  bool ExpectSafe = true;
  std::string Hash; ///< Canonical hash computed by the benchmark.
};

struct Stream {
  unsigned Clients = 1;
  std::vector<std::vector<Request>> PerClient;
  std::vector<double> ParseMs, HashMs; ///< front timings, one per request.
  size_t size() const {
    size_t N = 0;
    for (const auto &V : PerClient)
      N += V.size();
    return N;
  }
};

/// Builds the seeded stream and computes every request's canonical hash
/// in-process (front::loadProtocolString + front::canonicalProblemHash).
Stream generate(const std::vector<BaseProtocol> &Bases, unsigned Clients,
                uint64_t Seed, std::string &Err) {
  Rng R(Seed);
  Stream S;
  S.Clients = Clients;
  S.PerClient.resize(Clients);

  // Families: every protocol FamiliesPerProtocol times, dealt to the
  // clients round-robin in protocol-major order, so every seed sends the
  // same set of texts and each client gets an even share of each
  // protocol. The seed permutes the protocols and the family indices
  // before dealing, and then each client's interleaving below.
  std::vector<unsigned> BaseOrder(Bases.size()), KOrder(FamiliesPerProtocol);
  for (unsigned I = 0; I < BaseOrder.size(); ++I)
    BaseOrder[I] = I;
  for (unsigned I = 0; I < KOrder.size(); ++I)
    KOrder[I] = I;
  R.shuffle(BaseOrder);
  std::vector<std::pair<unsigned, unsigned>> Family; // (base, k)
  for (unsigned B : BaseOrder) {
    R.shuffle(KOrder);
    for (unsigned K : KOrder)
      Family.push_back({B, K});
  }

  struct FamilyState {
    unsigned Base, K;
    std::vector<std::pair<std::string, std::string>> Variants; // label, text
    bool Edited = false;
    unsigned HitsLeft = HitsPerFamily;
  };
  for (unsigned C = 0; C < Clients; ++C) {
    std::vector<unsigned> Todo; // This client's families, in order.
    for (unsigned F = C; F < Family.size(); F += Clients)
      Todo.push_back(F);
    std::vector<FamilyState> Open;
    size_t NextFamily = 0;
    unsigned Revision = 0;
    for (;;) {
      // Weighted choice over what is still owed: open a family, edit an
      // open family, or repeat an answered variant.
      uint64_t WFresh = Todo.size() - NextFamily, WEdit = 0, WHit = 0;
      for (const FamilyState &F : Open) {
        WEdit += !F.Edited;
        WHit += F.HitsLeft;
      }
      if (Open.empty() && WFresh)
        WEdit = WHit = 0;
      uint64_t Total = WFresh + WEdit + WHit;
      if (!Total)
        break;
      uint64_t Pick = R.below(Total);
      Request Q;
      Q.Client = C;
      if (Pick < WFresh) {
        unsigned F = Todo[NextFamily++];
        FamilyState FS;
        FS.Base = Family[F].first;
        FS.K = Family[F].second;
        FS.Variants.push_back(
            {"none", familyText(Bases[FS.Base].Text, FS.K)});
        Q.Cls = Fresh;
        Q.Base = FS.Base;
        Q.Text = FS.Variants.back().second;
        Q.Label = Bases[FS.Base].File + " v" + std::to_string(FS.K) + " none";
        Open.push_back(std::move(FS));
      } else if (Pick < WFresh + WEdit) {
        uint64_t K = Pick - WFresh;
        FamilyState *FS = nullptr;
        for (FamilyState &F : Open)
          if (!F.Edited && K-- == 0) {
            FS = &F;
            break;
          }
        const BaseProtocol &B = Bases[FS->Base];
        const std::vector<std::string> &Ok = B.Edits[FS->K];
        const std::string &E = Ok[FS->K % Ok.size()];
        FS->Edited = true;
        FS->Variants.push_back({E, applyEdit(FS->Variants[0].second, E)});
        Q.Cls = Edit;
        Q.Base = FS->Base;
        Q.Text = FS->Variants.back().second;
        Q.Label = B.File + " v" + std::to_string(FS->K) + " " + E;
      } else {
        uint64_t K = Pick - WFresh - WEdit;
        FamilyState *FS = nullptr;
        for (FamilyState &F : Open) {
          if (K < F.HitsLeft) {
            FS = &F;
            break;
          }
          K -= F.HitsLeft;
        }
        --FS->HitsLeft;
        const auto &[Label, Text] =
            FS->Variants[R.below(FS->Variants.size())];
        unsigned Style = static_cast<unsigned>(R.below(4));
        Q.Cls = Hit;
        Q.Base = FS->Base;
        Q.Text = reformat(Text, Style, ++Revision);
        Q.Label = Bases[FS->Base].File + " v" + std::to_string(FS->K) + " " +
                  Label + " style" + std::to_string(Style);
      }
      Q.File = Bases[Q.Base].File;
      Q.ExpectSafe = Bases[Q.Base].ExpectSafe;
      S.PerClient[C].push_back(std::move(Q));
    }
  }

  for (auto &V : S.PerClient)
    for (Request &Q : V) {
      logic::TermManager M;
      auto T0 = Clock::now();
      front::LoadResult L = front::loadProtocolString(M, Q.Text, Q.File);
      S.ParseMs.push_back(secondsSince(T0) * 1e3);
      if (!L.ok()) {
        Err = Q.Label + ": " + L.Error->render();
        return S;
      }
      auto T1 = Clock::now();
      Q.Hash = front::canonicalProblemHash(*L.Bundle).hex();
      S.HashMs.push_back(secondsSince(T1) * 1e3);
    }
  return S;
}

// -- The daemon --------------------------------------------------------------

/// One spawned sharpied. The destructor kills and reaps a daemon that was
/// not stopped cleanly, so no exit path leaves a process behind.
class Daemon {
public:
  Daemon() = default;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
    }
    if (OutFd >= 0)
      ::close(OutFd);
  }

  /// Spawns the daemon on 127.0.0.1 (kernel-chosen port) and waits for its
  /// "sharpied listening on ADDR" banner.
  bool start(const std::string &Bin, const std::string &StoreDir,
             std::string &Err) {
    int P[2];
    if (::pipe(P) != 0) {
      Err = "pipe failed";
      return false;
    }
    posix_spawn_file_actions_t FA;
    posix_spawn_file_actions_init(&FA);
    posix_spawn_file_actions_adddup2(&FA, P[1], 1);
    posix_spawn_file_actions_addclose(&FA, P[0]);
    posix_spawn_file_actions_addclose(&FA, P[1]);
    std::vector<std::string> Args = {Bin, "--listen", "127.0.0.1:0",
                                     "--store", StoreDir};
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    auto T0 = Clock::now();
    int Rc = posix_spawn(&Pid, Bin.c_str(), &FA, nullptr, Argv.data(), environ);
    posix_spawn_file_actions_destroy(&FA);
    ::close(P[1]);
    OutFd = P[0];
    if (Rc != 0) {
      Pid = -1;
      Err = "cannot spawn " + Bin;
      return false;
    }
    std::string Line;
    while (Line.find('\n') == std::string::npos) {
      pollfd PF{OutFd, POLLIN, 0};
      if (::poll(&PF, 1, 20000) <= 0) {
        Err = "sharpied did not report ready within 20 s";
        return false;
      }
      char Buf[256];
      ssize_t N = ::read(OutFd, Buf, sizeof(Buf));
      if (N <= 0) {
        Err = "sharpied exited before listening";
        return false;
      }
      Line.append(Buf, static_cast<size_t>(N));
    }
    ReadySeconds = secondsSince(T0);
    const std::string Prefix = "sharpied listening on ";
    size_t At = Line.find(Prefix);
    std::string Spec =
        At == std::string::npos
            ? ""
            : Line.substr(At + Prefix.size(),
                          Line.find('\n', At) - At - Prefix.size());
    auto A = serve::parseAddr(Spec, &Err);
    if (!A)
      return false;
    Address = *A;
    return true;
  }

  /// Sends the shutdown op and reaps the daemon; \p Usage gets its
  /// resource usage (CPU, peak RSS).
  bool stop(rusage &Usage) {
    serve::Client Cl;
    std::string Err;
    serve::Json Req, Resp;
    Req["op"] = serve::Json("shutdown");
    if (Cl.connect(Address, Err))
      Cl.roundTrip(Req, Resp, Err);
    Cl.close();
    for (int I = 0; I < 3000; ++I) { // The drain timeout is 5 s.
      int Status = 0;
      pid_t R = ::wait4(Pid, &Status, WNOHANG, &Usage);
      if (R == Pid) {
        Pid = -1;
        return WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
      }
      ::usleep(5000);
    }
    ::kill(Pid, SIGKILL);
    ::wait4(Pid, nullptr, 0, &Usage);
    Pid = -1;
    return false;
  }

  void kill() {
    if (Pid > 0)
      ::kill(Pid, SIGKILL);
  }

  serve::Addr Address;
  double ReadySeconds = 0;

private:
  pid_t Pid = -1;
  int OutFd = -1;
};

/// One answered request, as the client saw it.
struct Sample {
  Class Cls = Hit;
  double Latency = 0, Server = 0, Lookup = 0;
};

struct StreamResult {
  double Wall = 0, Cpu = 0, PeakRssMb = 0;
  /// ReferenceSolveSeconds / the lower quartile of the reference solves
  /// during the stream: multiplies the stream's times to the reference
  /// host speed.
  double Scale = 1;
  std::vector<Sample> Samples;
  uint64_t Attempted = 0;
  std::vector<std::string> Failures;
  serve::Json CacheStats, Metrics;
};

bool wireOp(const serve::Addr &A, const char *Op, serve::Json &Resp,
            Spans &Sp) {
  Spans::Scope S(Sp, Op[0] == 'c' ? "serve.cache_stats" : "serve.metrics");
  serve::Client Cl;
  std::string Err;
  serve::Json Req;
  Req["op"] = serve::Json(Op);
  return Cl.connect(A, Err) && Cl.roundTrip(Req, Resp, Err);
}

/// Times the reference solve on a thread of its own while a stream runs:
/// one solve at once, then one every PeriodMs until stop(). The daemon and
/// clients load several cores and wait on sockets: over 37 streams on the
/// 4-core host of perfbench/README.md, solves timed between streams hardly
/// tracked the stream wall (correlation of logs 0.21), solves during the
/// stream did (0.72 for their median, 0.81 for their lower quartile, which
/// the stream's own bursts disturb least).
/// At ~20 ms a solve per 200 ms it takes a tenth of a core.
class ReferenceGauge {
public:
  explicit ReferenceGauge(unsigned PeriodMs)
      : Worker([this, PeriodMs] {
          std::unique_lock<std::mutex> L(Mu);
          while (!Stop) {
            L.unlock();
            double T = referenceSolveSeconds();
            L.lock();
            Samples.push_back(T);
            Wake.wait_for(L, std::chrono::milliseconds(PeriodMs),
                          [this] { return Stop; });
          }
        }) {}
  ~ReferenceGauge() { stop(); }

  /// Stops the thread, after the solve in flight; returns every sample
  /// (at least one).
  std::vector<double> stop() {
    {
      std::lock_guard<std::mutex> L(Mu);
      Stop = true;
    }
    Wake.notify_all();
    if (Worker.joinable())
      Worker.join();
    return Samples;
  }

private:
  std::mutex Mu;
  std::condition_variable Wake;
  bool Stop = false;
  std::vector<double> Samples;
  std::thread Worker; ///< Last, so it starts after the members it uses.
};

/// Runs one stream against a fresh daemon and store.
StreamResult runStream(const RunConfig &C, const Stream &S, unsigned Index,
                       Spans &Sp, Clock::time_point ProcessStart) {
  StreamResult SR;
  std::string Store = C.WorkDir + "/store-" + std::to_string(::getpid()) +
                      "-" + std::to_string(Index);
  fs::remove_all(Store);
  Daemon D;
  std::string Err;
  {
    Spans::Scope SpawnSp(Sp, "serve.spawn");
    if (!D.start(C.BinDir + "/sharpied", Store, Err)) {
      SR.Failures.push_back("daemon: " + Err);
      SR.Attempted = 1;
      return SR;
    }
  }
  Spans::Scope StreamSp(Sp, "bench.stream");
  std::vector<std::vector<Sample>> PerClient(S.Clients);
  std::vector<std::vector<std::string>> Fails(S.Clients);
  std::atomic<unsigned> Done{0};
  std::atomic<bool> Go{false};
  std::vector<std::thread> Threads;
  for (unsigned Cl = 0; Cl < S.Clients; ++Cl)
    Threads.emplace_back([&, Cl] {
      Spans::Adopt Parent(StreamSp.id());
      serve::Client Conn;
      std::string CErr;
      std::map<std::string, std::string> Stored; // hash -> miss output
      bool Connected = Conn.connect(D.Address, CErr);
      while (!Go.load())
        std::this_thread::yield();
      uint64_t Id = 0;
      for (const Request &Q : S.PerClient[Cl]) {
        ++Id;
        if (!Connected) {
          Fails[Cl].push_back("connect: " + CErr);
          continue;
        }
        serve::VerifyRequest VR;
        VR.ProtocolText = Q.Text;
        VR.File = Q.File;
        VR.TimeBudget = RequestBudgetSeconds;
        serve::Json Resp;
        auto T0 = Clock::now();
        bool Ok;
        {
          Spans::Scope RS(Sp, "serve.verify", (uint64_t(Cl) << 32) | Id);
          Ok = Conn.roundTrip(VR.encode(), Resp, CErr);
        }
        double Lat = secondsSince(T0);
        auto Fail = [&](const std::string &Why) {
          Fails[Cl].push_back(std::string(className(Q.Cls)) + " " + Q.Label +
                              ": " + Why);
        };
        if (!Ok) {
          Fail("transport: " + CErr);
          Connected = Conn.connect(D.Address, CErr);
          continue;
        }
        serve::VerifyResponse V = serve::VerifyResponse::decode(Resp);
        int Want = Q.ExpectSafe ? front::ExitVerified : front::ExitUnsafe;
        if (V.Overloaded || V.Disposition != "ok")
          Fail("disposition " + V.Disposition);
        else if (V.Exit != Want)
          Fail("exit " + std::to_string(V.Exit) + ", expected " +
               std::to_string(Want));
        else if (V.Hash != Q.Hash)
          Fail("hash " + V.Hash + " differs from the local " + Q.Hash);
        else if (V.Cache != (Q.Cls == Hit ? "hit" : "miss"))
          Fail("served as a cache " + V.Cache);
        else if (Lat > RequestBudgetSeconds)
          Fail("over the request budget");
        else if (Q.Cls == Hit) {
          auto It = Stored.find(V.Hash);
          if (It == Stored.end() || It->second != V.Output)
            Fail("hit output differs from the miss that stored it");
          else
            PerClient[Cl].push_back({Q.Cls, Lat, V.ServerSeconds,
                                     V.CacheLookupSeconds});
        } else {
          Stored[V.Hash] = V.Output;
          PerClient[Cl].push_back(
              {Q.Cls, Lat, V.ServerSeconds, V.CacheLookupSeconds});
        }
      }
      Done.fetch_add(1);
    });

  auto T0 = Clock::now();
  {
    Go.store(true);
    // Watchdog: a hung daemon is killed so the clients fail fast and the
    // run still ends in bounded time.
    while (Done.load() < S.Clients) {
      if (secondsSince(ProcessStart) > HardStopSeconds) {
        D.kill();
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    for (std::thread &T : Threads)
      T.join();
  }
  SR.Wall = secondsSince(T0);
  SR.Attempted = S.size();
  for (unsigned Cl = 0; Cl < S.Clients; ++Cl) {
    SR.Samples.insert(SR.Samples.end(), PerClient[Cl].begin(),
                      PerClient[Cl].end());
    SR.Failures.insert(SR.Failures.end(), Fails[Cl].begin(), Fails[Cl].end());
  }
  wireOp(D.Address, "cache_stats", SR.CacheStats, Sp);
  wireOp(D.Address, "metrics", SR.Metrics, Sp);
  rusage U{};
  bool Clean;
  {
    Spans::Scope StopSp(Sp, "serve.shutdown");
    Clean = D.stop(U);
  }
  if (!Clean)
    SR.Failures.push_back("daemon did not shut down cleanly");
  auto Sec = [](const timeval &T) { return T.tv_sec + T.tv_usec / 1e6; };
  SR.Cpu = Sec(U.ru_utime) + Sec(U.ru_stime);
  SR.PeakRssMb = U.ru_maxrss / 1024.0;
  fs::remove_all(Store);
  return SR;
}

unsigned clientCount(const RunConfig &C) {
  return std::max(1u, std::min(C.Nproc, MaxClients));
}

/// Per-layer values of one traced stream.
std::map<std::string, double> streamLayers(const StreamResult &SR) {
  std::map<std::string, double> V;
  std::vector<double> QueueWire, ServerHit, Lookup;
  double Busy = 0;
  for (const Sample &S : SR.Samples) {
    QueueWire.push_back((S.Latency - S.Server) * 1e3);
    Lookup.push_back(S.Lookup * 1e3);
    if (S.Cls == Hit)
      ServerHit.push_back(S.Server * 1e3);
    Busy += S.Server;
  }
  V["serve.queue_wire_ms_p99"] = percentile(QueueWire, 0.99);
  V["serve.server_hit_ms_p50"] = median(ServerHit);
  V["serve.cache_lookup_ms_p50"] = median(Lookup);
  // The shipped daemon runs 2 request workers.
  V["serve.pool_utilization"] = SR.Wall > 0 ? Busy / (2 * SR.Wall) : 0;

  const serve::Json &CS = SR.CacheStats;
  double T1H = CS.get("t1_hits").asDouble(), T1M = CS.get("t1_misses").asDouble();
  double T2H = CS.get("t2_hits").asDouble(), T2M = CS.get("t2_misses").asDouble();
  V["serve.t1_hit_ratio"] = T1H + T1M > 0 ? T1H / (T1H + T1M) : 0;
  V["engine.t2_hit_ratio"] = T2H + T2M > 0 ? T2H / (T2H + T2M) : 0;

  const serve::Json &Ctr = SR.Metrics.get("counters");
  const serve::Json &Hist = SR.Metrics.get("hists");
  auto C = [&](const char *N) { return Ctr.get(N).asDouble(); };
  auto H = [&](const char *N, const char *F) {
    return Hist.get(N).get(F).asDouble();
  };
  V["engine.reduce_calls"] = H("reduce_ms", "count");
  V["engine.reduce_s"] = H("reduce_ms", "count") * H("reduce_ms", "mean") / 1e3;
  V["engine.reduce_ms_p90"] = H("reduce_ms", "p90");
  V["engine.formula_atoms_mean"] = H("formula_atoms", "mean");
  V["card.axioms"] = C("card_axioms.unary") + C("card_axioms.pairwise") +
                     C("card_axioms.update") + C("card_axioms.cover") +
                     C("card_axioms.venn");
  V["card.axioms_pairwise"] = C("card_axioms.pairwise");
  V["quant.instances"] = C("quant_instances");
  V["quant.manifest_instances"] = C("manifest_instances");
  V["quant.refine_asserted_ratio"] =
      C("manifest_instances") > 0
          ? C("refine_instances_asserted") / C("manifest_instances")
          : 0;
  V["smt.checks"] = C("smt_checks");
  V["smt.check_ms_p50"] = H("smt_ms", "p50");
  V["smt.check_ms_p99"] = H("smt_ms", "p99");
  V["smt.houdini_check_ms_mean"] = H("smt_ms.houdini", "mean");
  V["synth.tuples_tried"] = C("tuples_tried");
  V["synth.core_drops"] = C("core_drops");
  V["explicit.states"] = C("explicit_states");
  V["resil.retries"] = C("retries");
  V["resil.fallbacks"] = C("fallbacks");
  V["obs.flight_bytes"] = SR.Metrics.get("gauges").get("flight_bytes").asDouble();
  return V;
}

} // namespace

Outcome runServe(const RunConfig &C) {
  auto ProcessStart = Clock::now();
  ::signal(SIGPIPE, SIG_IGN);
  Outcome O;
  std::string Err;
  std::vector<BaseProtocol> Bases = loadBases(C.DataDir, Err);
  Stream S;
  if (Err.empty())
    S = generate(Bases, clientCount(C), C.Seed, Err);
  if (!Err.empty()) {
    O.Attempted = O.Failed = 1;
    O.Failures.push_back(Err);
    return O;
  }

  Spans Sp;
  // Set-up: spawning a daemon on an empty store until it listens, 21
  // times, each scaled by the reference solves before and after it.
  std::vector<double> SetupSamples, RefSamples;
  double RefBefore = referenceSolveSeconds();
  for (int I = 0; I < 21; ++I) {
    Daemon D;
    std::string Store = C.WorkDir + "/store-setup-" + std::to_string(::getpid());
    fs::remove_all(Store);
    if (!D.start(C.BinDir + "/sharpied", Store, Err)) {
      O.Attempted = O.Failed = 1;
      O.Failures.push_back("daemon: " + Err);
      return O;
    }
    double Ready = D.ReadySeconds;
    rusage U{};
    D.stop(U);
    fs::remove_all(Store);
    double RefAfter = referenceSolveSeconds();
    SetupSamples.push_back(Ready * ReferenceSolveSeconds /
                           ((RefBefore + RefAfter) / 2));
    RefBefore = RefAfter;
  }

  std::vector<StreamResult> Untraced, Traced;
  std::map<std::string, double> Layer;
  std::vector<double> HitMs, MissMs, EditMs, FreshMs;
  auto MeasureStart = Clock::now();
  for (unsigned K = 0;; ++K) {
    bool TracedStream = C.Trace && K % 2 == 1;
    Sp.setEnabled(TracedStream);
    auto StreamStart = Clock::now();
    ReferenceGauge Gauge(200);
    StreamResult SR = runStream(C, S, K, Sp, ProcessStart);
    std::vector<double> Refs = Gauge.stop();
    Sp.setEnabled(false);
    SR.Scale = ReferenceSolveSeconds / percentile(Refs, 0.25);
    RefSamples.insert(RefSamples.end(), Refs.begin(), Refs.end());
    O.Attempted += SR.Attempted;
    O.Failed += SR.Failures.size();
    O.Failures.insert(O.Failures.end(), SR.Failures.begin(),
                      SR.Failures.end());
    if (TracedStream) {
      for (const auto &[Name, X] : streamLayers(SR))
        Layer[Name] += X;
      for (const Sample &X : SR.Samples) {
        double Ms = X.Latency * 1e3;
        (X.Cls == Hit ? HitMs : MissMs).push_back(Ms);
        if (X.Cls != Hit)
          (X.Cls == Edit ? EditMs : FreshMs).push_back(Ms);
      }
    }
    (TracedStream ? Traced : Untraced).push_back(std::move(SR));
    double Took = secondsSince(StreamStart);
    bool NeedMore = C.Trace && (Traced.empty() || Untraced.empty());
    if (secondsSince(ProcessStart) + Took > HardStopSeconds)
      break;
    if (!NeedMore && secondsSince(MeasureStart) + Took > C.Seconds)
      break;
  }

  // Per-class rows over every stream of the run.
  std::map<Class, Row> Rows;
  std::map<Class, std::vector<double>> EndToEnd; // Untraced streams only.
  for (const auto *Set : {&Untraced, &Traced})
    for (const StreamResult &SR : *Set)
      for (const Sample &X : SR.Samples) {
        Row &R = Rows[X.Cls];
        R.Workload = "serve_mixed";
        R.Name = className(X.Cls);
        R.Seconds.push_back(X.Latency);
        R.Scaled.push_back(X.Latency * SR.Scale);
        if (Set == &Untraced)
          EndToEnd[X.Cls].push_back(X.Latency * SR.Scale);
      }
  for (auto &[Cls, R] : Rows)
    O.Rows.push_back(R);
  std::vector<double> ClassMedians;
  for (auto &[Cls, V] : EndToEnd)
    ClassMedians.push_back(median(V));

  auto Med = [](const std::vector<StreamResult> &V, double StreamResult::*F) {
    std::vector<double> X;
    for (const StreamResult &SR : V)
      X.push_back(SR.*F);
    return median(X);
  };
  auto ScaledMed = [](const std::vector<StreamResult> &V,
                      double StreamResult::*F) {
    std::vector<double> X;
    for (const StreamResult &SR : V)
      X.push_back(SR.*F * SR.Scale);
    return median(X);
  };
  std::fprintf(stderr, "unscaled: stream wall_s %.4f, cpu_s %.4f; reference "
                       "solve median %.3f ms over %zu\n",
               Med(Untraced, &StreamResult::Wall),
               Med(Untraced, &StreamResult::Cpu), median(RefSamples) * 1e3,
               RefSamples.size());

  if (!C.Trace) {
    double Wall = ScaledMed(Untraced, &StreamResult::Wall);
    O.Metrics = {
        {"setup_s", median(SetupSamples), "s"},
        {"ok_share",
         O.Attempted ? 1.0 - static_cast<double>(O.Failed) / O.Attempted : 0,
         "share"},
        {"peak_rss_mb", Med(Untraced, &StreamResult::PeakRssMb), "MB"},
        {"cpu_s", ScaledMed(Untraced, &StreamResult::Cpu), "s"},
        {"suite_s", Wall, "s"},
        {"verdict_geomean_s", geomean(ClassMedians), "s"},
        {"requests_per_s", Wall > 0 ? S.size() / Wall : 0, "1/s"},
    };
    return O;
  }

  std::map<std::string, double> V;
  for (const auto &[Name, X] : Layer)
    V[Name] = X / Traced.size();
  V["serve.hit_p50_ms"] = percentile(HitMs, 0.5);
  V["serve.hit_p99_ms"] = percentile(HitMs, 0.99);
  V["serve.miss_p50_ms"] = percentile(MissMs, 0.5);
  V["serve.miss_p90_ms"] = percentile(MissMs, 0.9);
  V["serve.edit_p50_ms"] = percentile(EditMs, 0.5);
  V["serve.fresh_p50_ms"] = percentile(FreshMs, 0.5);
  V["front.parse_ms_p50"] = median(S.ParseMs);
  V["front.canon_hash_ms_p50"] = median(S.HashMs);
  double U = Med(Untraced, &StreamResult::Wall);
  V["host.reference_solve_ms"] = median(RefSamples) * 1e3;
  V["host.unscaled_suite_wall_s"] = U;
  V["obs.tracing_overhead_pct"] =
      U > 0 ? (Med(Traced, &StreamResult::Wall) / U - 1) * 100 : 0;
  std::map<std::string, double> Self = Sp.selfSeconds();
  for (const char *Layer : {"serve", "bench"}) {
    double X = 0;
    for (const auto &[Name, Sec] : Self)
      if (Name.rfind(std::string(Layer) + ".", 0) == 0)
        X += Sec;
    V[std::string("self.") + Layer + "_s"] = X / Traced.size();
  }
  double FrontS = 0;
  for (double Ms : S.ParseMs)
    FrontS += Ms / 1e3;
  for (double Ms : S.HashMs)
    FrontS += Ms / 1e3;
  V["self.front_s"] = FrontS;
  appendLayerMetrics(V, O.Metrics);
  std::string TracePath = C.WorkDir + "/trace-" + C.Workload + "-" +
                          std::to_string(C.Seed) + ".json";
  if (!Sp.writeChromeTrace(TracePath))
    std::fprintf(stderr, "warning: could not write %s\n", TracePath.c_str());
  return O;
}

int dryRunServe(const RunConfig &C, std::ostream &OS) {
  std::string Err;
  std::vector<BaseProtocol> Bases = loadBases(C.DataDir, Err);
  Stream S;
  if (Err.empty())
    S = generate(Bases, clientCount(C), C.Seed, Err);
  if (!Err.empty()) {
    OS << "error: " << Err << "\n";
    return 1;
  }
  unsigned Counts[3] = {0, 0, 0};
  for (const auto &V : S.PerClient)
    for (const Request &Q : V) {
      ++Counts[Q.Cls];
      OS << "c" << Q.Client << " " << className(Q.Cls) << " " << Q.Label
         << " " << Q.Hash << "\n";
    }
  OS << "# clients " << S.Clients << ", requests " << S.size() << ": hit "
     << Counts[Hit] << ", edit " << Counts[Edit] << ", fresh " << Counts[Fresh]
     << "\n";
  return 0;
}

int checkServeEdits(const RunConfig &C, std::ostream &OS) {
  std::vector<fs::path> Files;
  for (const auto &E : fs::directory_iterator(C.DataDir))
    if (E.path().extension() == ".sharpie")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  int Rc = 0;
  OS << "# Recorded by `python3 perfbench/run.py --check-edits`: every text\n"
        "# serve_mixed can send as a fresh (edit none) or edit request,\n"
        "# verified in-process with NumWorkers=1. Columns: file, family k,\n"
        "# edit, verdict, expected, seconds. The generator uses only rows\n"
        "# whose verdict equals the expected one.\n";
  for (const fs::path &P : Files) {
    std::string Text = readFile(P.string());
    bool ExpectSafe = Text.find("expect unsafe;") == std::string::npos;
    const char *Want = ExpectSafe ? "safe" : "unsafe";
    for (unsigned K = 0; K < FamiliesPerProtocol; ++K) {
      std::string Fam = familyText(Text, K);
      std::vector<std::pair<std::string, std::string>> Variants = {
          {"none", Fam}};
      for (const std::string &E : candidateEdits(Text))
        Variants.push_back({E, applyEdit(Fam, E)});
      for (const auto &[Edit, V] : Variants) {
        logic::TermManager M;
        auto T0 = Clock::now();
        front::LoadResult L = front::loadProtocolString(M, V, P.filename());
        std::string Verdict = "error";
        if (L.ok()) {
          synth::SynthOptions SO;
          SO.Shape = L.Bundle->Shape;
          SO.QGuard = L.Bundle->QGuard;
          SO.Reduce.Card.Venn = L.Bundle->NeedsVenn;
          SO.Explicit = L.Bundle->Explicit;
          SO.NumWorkers = 1;
          synth::SynthResult R = synth::synthesize(*L.Bundle->Sys, SO);
          Verdict = R.Verified ? "safe" : R.Cex ? "unsafe" : "unknown";
        }
        if (Edit == "none")
          Rc |= Verdict != Want;
        char Sec[32];
        std::snprintf(Sec, sizeof(Sec), "%.3f", secondsSince(T0));
        OS << P.filename().string() << " " << K << " " << Edit << " "
           << Verdict << " " << Want << " " << Sec << std::endl;
      }
    }
  }
  return Rc;
}

} // namespace bench
