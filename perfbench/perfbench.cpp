//===- perfbench/perfbench.cpp - odburg end-to-end benchmark --------------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One benchmark binary for the three odburg workloads (see README.md):
///
///   jit-warm       long-lived in-process CompileServices over the full x86
///                  and vm64 grammars, fed SPEC-like functions
///   grammar-churn  a fresh on-demand service per synthesized grammar, one
///                  cold and one warm pass over synthesizeTree functions
///   serve-mixed    a real odburg-serve --registry-dir process, four
///                  connections with their own grammar and backend
///
/// Every workload runs the same phases: repeated set-ups (each followed
/// by a cold and a warm batch), then whole rounds of a closed-loop pass,
/// a saturation pass and an open-loop pass at a fixed seeded rate, until
/// the run time is spent. Every delivered result is checked against a dp
/// reference compile made outside the timed region, whose costs are in
/// turn checked against the brute-force oracle.
///
/// The last stdout line is one JSON object: end-to-end metrics without
/// --trace, per-layer metrics with --trace 1. A traced run measures the
/// workload untraced and traced (the difference is the tracing overhead),
/// records spans around the calls into each layer in memory, runs a
/// single-threaded layer pass on a fixed reference corpus (exact work and
/// allocation counts), and writes the spans out at the end.
///
//===----------------------------------------------------------------------===//

#include "grammar/GrammarParser.h"
#include "grammar/Synthesize.h"
#include "ir/SExprParser.h"
#include "pipeline/CompileService.h"
#include "select/Oracle.h"
#include "serve/Socket.h"
#include "targets/Target.h"
#include "workload/Synthetic.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <spawn.h>
#include <string>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <unordered_map>
#include <vector>

extern char **environ;

using namespace odburg;
namespace pl = odburg::pipeline;

//===----------------------------------------------------------------------===//
// Heap allocation counting. The replaced global operator new lives only in
// this binary; the count is per thread, so a single-threaded call into a
// layer reads exactly the allocations that call made.
//===----------------------------------------------------------------------===//

namespace {
thread_local std::uint64_t ThreadAllocs = 0;

void *countedAlloc(std::size_t N) {
  ++ThreadAllocs;
  return std::malloc(N ? N : 1);
}

void *countedAlignedAlloc(std::size_t N, std::align_val_t A) {
  ++ThreadAllocs;
  void *P = nullptr;
  std::size_t Align = std::max(static_cast<std::size_t>(A), sizeof(void *));
  return posix_memalign(&P, Align, N ? N : 1) == 0 ? P : nullptr;
}
} // namespace

void *operator new(std::size_t N) {
  if (void *P = countedAlloc(N))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t N) { return ::operator new(N); }
void *operator new(std::size_t N, const std::nothrow_t &) noexcept {
  return countedAlloc(N);
}
void *operator new[](std::size_t N, const std::nothrow_t &) noexcept {
  return countedAlloc(N);
}
void *operator new(std::size_t N, std::align_val_t A) {
  if (void *P = countedAlignedAlloc(N, A))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t N, std::align_val_t A) {
  return ::operator new(N, A);
}
void *operator new(std::size_t N, std::align_val_t A,
                   const std::nothrow_t &) noexcept {
  return countedAlignedAlloc(N, A);
}
void *operator new[](std::size_t N, std::align_val_t A,
                     const std::nothrow_t &) noexcept {
  return countedAlignedAlloc(N, A);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}

namespace {

//===----------------------------------------------------------------------===//
// Small utilities
//===----------------------------------------------------------------------===//

std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double msSince(std::uint64_t StartNs) {
  return static_cast<double>(nowNs() - StartNs) / 1e6;
}

/// Linear-interpolated quantile of \p V (0 <= Q <= 1); 0 when empty.
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(Pos);
  std::size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

std::uint64_t mix(std::uint64_t A, std::uint64_t B) {
  std::uint64_t X = A * 0x9E3779B97F4A7C15ull ^ (B + 0x632BE59BD9B4E019ull);
  X ^= X >> 31;
  X *= 0xBF58476D1CE4E5B9ull;
  X ^= X >> 29;
  return X;
}

/// A /proc/<pid>/status size field (VmHWM, VmRSS) in MB; 0 if unreadable.
double statusMb(pid_t Pid, const char *Field) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  std::size_t Len = std::strlen(Field);
  while (std::getline(In, Line))
    if (Line.compare(0, Len, Field) == 0 && Line.size() > Len &&
        Line[Len] == ':')
      return std::strtod(Line.c_str() + Len + 1, nullptr) / 1024.0;
  return 0.0;
}

double peakRssMb(pid_t Pid) { return statusMb(Pid, "VmHWM"); }

/// The peak resident size of this process over a stretch of work, for
/// when VmHWM (which never falls) already holds an earlier, larger peak:
/// a thread reads the resident page count from /proc/self/statm every
/// 2 ms until stop(), so memory that lives that long is seen even if it
/// is freed before the stretch ends.
class RssSampler {
public:
  RssSampler() : Fd(open("/proc/self/statm", O_RDONLY | O_CLOEXEC)) {
    sample();
    Thread = std::thread([this] {
      while (!Done.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        sample();
      }
    });
  }
  ~RssSampler() { stop(); }

  /// Stops sampling (after one last sample); returns the peak in MB.
  double stop() {
    if (Thread.joinable()) {
      Done = true;
      Thread.join();
      sample();
      if (Fd >= 0)
        close(Fd);
      Fd = -1;
    }
    return static_cast<double>(PeakPages) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
  }

private:
  void sample() {
    char Buf[128];
    ssize_t N = Fd < 0 ? -1 : pread(Fd, Buf, sizeof(Buf) - 1, 0);
    if (N <= 0)
      return;
    Buf[N] = '\0';
    // Fields: size resident shared text lib data dt (pages).
    char *End = nullptr;
    std::strtoull(Buf, &End, 10);
    PeakPages = std::max<std::uint64_t>(PeakPages,
                                        std::strtoull(End, nullptr, 10));
  }

  int Fd;
  std::uint64_t PeakPages = 0;
  std::atomic<bool> Done{false};
  std::thread Thread;
};

/// odburg-serve processes still running, stopped by die() too.
std::mutex ServersM;
std::vector<pid_t> LiveServers;

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "perfbench: error: %s\n", Msg.c_str());
  std::lock_guard<std::mutex> L(ServersM);
  for (pid_t Pid : LiveServers) {
    kill(Pid, SIGKILL);
    waitpid(Pid, nullptr, 0);
  }
  std::_Exit(1);
}

/// CPU time used so far by process \p Pid (0: this one), all its threads
/// together, ns. The kernel leaves out the time the hypervisor gave the
/// vCPU to something else (steal), so this does not grow when the host is
/// overcommitted, as wall time does.
std::uint64_t processCpuNs(pid_t Pid = 0) {
  clockid_t Clock = CLOCK_PROCESS_CPUTIME_ID;
  if (Pid > 0 && clock_getcpuclockid(Pid, &Clock) != 0)
    die("cannot read the CPU clock of process " + std::to_string(Pid));
  timespec T{};
  clock_gettime(Clock, &T);
  return static_cast<std::uint64_t>(T.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(T.tv_nsec);
}

/// Wall time and CPU time (of this process, plus process \p Other when
/// set) since construction.
class Watch {
public:
  explicit Watch(pid_t Other = 0) : Other(Other) {}
  double wallMs() const { return msSince(Wall); }
  double cpuMs() const { return static_cast<double>(cpuNow() - Cpu) / 1e6; }

private:
  std::uint64_t cpuNow() const {
    return processCpuNs() + (Other ? processCpuNs(Other) : 0);
  }

  pid_t Other;
  std::uint64_t Wall = nowNs(), Cpu = cpuNow();
};

template <typename T> T take(Expected<T> E, const char *What) {
  if (!E)
    die(std::string(What) + ": " + E.message());
  return std::move(*E);
}

/// Correctness of everything delivered so far; the first few mismatches
/// are described on stderr.
std::atomic<bool> AllCorrect{true};
std::atomic<unsigned> Reported{0};

void mismatch(const std::string &Msg) {
  AllCorrect = false;
  if (Reported.fetch_add(1) < 8)
    std::fprintf(stderr, "perfbench: MISMATCH: %s\n", Msg.c_str());
}

//===----------------------------------------------------------------------===//
// Tracing: spans kept in memory, written out at the end.
//===----------------------------------------------------------------------===//

struct Span {
  const char *Name;
  std::uint64_t Id, Parent, StartNs, EndNs;
};

class Tracer {
public:
  bool on() const { return On; }
  void enable(bool E) { On = E; }
  std::uint64_t newId() { return NextId.fetch_add(1); }
  void record(const char *Name, std::uint64_t Id, std::uint64_t Parent,
              std::uint64_t Start, std::uint64_t End) {
    if (!On)
      return;
    std::lock_guard<std::mutex> L(M);
    Spans.push_back(Span{Name, Id, Parent, Start, End});
  }
  std::vector<Span> spans() {
    std::lock_guard<std::mutex> L(M);
    return Spans;
  }

private:
  std::atomic<bool> On{false};
  std::atomic<std::uint64_t> NextId{1};
  std::mutex M;
  std::vector<Span> Spans;
};

Tracer Trace;

/// Self time per span name: each span's duration minus the part of it
/// covered by its children, summed; also the span count per name.
std::map<std::string, std::pair<double, std::size_t>>
selfTimes(const std::vector<Span> &Spans) {
  std::unordered_map<std::uint64_t, std::uint64_t> ChildNs;
  for (const Span &S : Spans)
    if (S.Parent)
      ChildNs[S.Parent] += S.EndNs - S.StartNs;
  std::map<std::string, std::pair<double, std::size_t>> Out;
  for (const Span &S : Spans) {
    std::uint64_t Dur = S.EndNs - S.StartNs;
    auto It = ChildNs.find(S.Id);
    std::uint64_t Kids = It == ChildNs.end() ? 0 : std::min(It->second, Dur);
    auto &Slot = Out[S.Name];
    Slot.first += static_cast<double>(Dur - Kids) / 1e3; // us
    ++Slot.second;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Inputs and their reference outputs
//===----------------------------------------------------------------------===//

/// One function of a workload with its reference compile (dp backend,
/// outside the timed region) and the oracle-checked cover cost.
struct Item {
  ir::IRFunction F;
  std::string Wire; ///< s-expression frame for the socket workload
  std::string Asm;  ///< reference assembly
  Cost ExpCost = Cost::zero();
  unsigned Nodes = 0;
  /// In-process label+reduce+emit time of this function on the lane's
  /// backend (measured for the socket workload's traced run; 0 = unknown).
  std::uint64_t ComputeNs = 0;
  std::atomic<std::uint64_t> Req{0}; ///< current request span (traced)
};

using ItemList = std::vector<std::unique_ptr<Item>>;

/// Compiles \p Items with the dp backend into their reference outputs.
void referenceCompile(const Grammar &G, const DynCostTable *Dyn,
                      ItemList &Items) {
  std::unique_ptr<LabelerBackend> B =
      take(LabelerBackend::create(BackendKind::DP, G, Dyn), "dp backend");
  pl::WorkerState WS;
  for (auto &It : Items) {
    pl::CompileResult R;
    pl::compileFunctionWith(G, Dyn, *B, It->F, WS, R);
    if (!R.ok())
      die("reference compile failed: " + R.Diagnostic);
    It->Asm = std::move(R.Asm);
    It->ExpCost = R.Sel.TotalCost;
    It->Nodes = It->F.size();
  }
}

/// The cover cost must equal the sum over the roots of the brute-force
/// oracle's minimal cost.
void oracleCheck(const Grammar &G, const DynCostTable *Dyn,
                 const Item &It) {
  Cost Sum = Cost::zero();
  for (const ir::Node *R : It.F.roots())
    Sum += oracleCost(G, *R, G.startNt(), Dyn);
  if (Sum != It.ExpCost)
    mismatch("oracle cost differs from the dp cover cost");
}

std::string wireFrame(const ir::IRFunction &F, const Grammar &G) {
  std::string Out;
  for (const ir::Node *R : F.roots()) {
    Out += ir::toSExpr(R, G);
    Out += '\n';
  }
  Out += '\n';
  return Out;
}

/// SPEC-like functions from all ten profiles, seeded.
ItemList profileItems(const Grammar &G, std::uint64_t Seed, unsigned PerProfile,
                      unsigned Nodes) {
  ItemList Items;
  for (const workload::Profile &P : workload::specProfiles()) {
    workload::Profile Q = P;
    Q.Seed = mix(Seed, P.Seed);
    for (ir::IRFunction &F :
         take(workload::generateBatch(Q, G, PerProfile, Nodes), "generate")) {
      Items.push_back(std::make_unique<Item>());
      Items.back()->F = std::move(F);
    }
  }
  // Interleave profiles so every pass prefix sees the whole mix.
  ItemList Mixed;
  unsigned NP = static_cast<unsigned>(workload::specProfiles().size());
  for (unsigned I = 0; I < PerProfile; ++I)
    for (unsigned P = 0; P < NP; ++P)
      Mixed.push_back(std::move(Items[P * PerProfile + I]));
  return Mixed;
}

//===----------------------------------------------------------------------===//
// Traced backend: spans around LabelerBackend::labelFunction
//===----------------------------------------------------------------------===//

/// Forwards to a real backend and records a span around each
/// labelFunction call, parented to the request that carries the function.
class TracingBackend final : public LabelerBackend {
public:
  TracingBackend(std::unique_ptr<LabelerBackend> Inner,
                 std::unordered_map<const ir::IRFunction *, Item *> Owners)
      : Inner(std::move(Inner)), Owners(std::move(Owners)) {}

  BackendKind kind() const override { return Inner->kind(); }
  const Labeling &labelFunction(ir::IRFunction &F, LabelerScratch &Scratch,
                                SelectionStats *Stats) override {
    if (!Trace.on())
      return Inner->labelFunction(F, Scratch, Stats);
    std::uint64_t Start = nowNs();
    const Labeling &L = Inner->labelFunction(F, Scratch, Stats);
    auto It = Owners.find(&F);
    Trace.record("select.LabelerBackend::labelFunction", Trace.newId(),
                 It == Owners.end() ? 0 : It->second->Req.load(), Start,
                 nowNs());
    return L;
  }
  bool supportsDynCosts() const override { return Inner->supportsDynCosts(); }
  unsigned numStates() const override { return Inner->numStates(); }
  std::size_t memoryBytes() const override { return Inner->memoryBytes(); }
  TierDecisions tierDecisions() const override {
    return Inner->tierDecisions();
  }
  void setMemoryPressure(bool On) override { Inner->setMemoryPressure(On); }

private:
  std::unique_ptr<LabelerBackend> Inner;
  std::unordered_map<const ir::IRFunction *, Item *> Owners;
};

std::unique_ptr<LabelerBackend>
createBackend(BackendKind K, const Grammar &G, const DynCostTable *Dyn,
              const LabelerBackend::Options &Opts) {
  std::uint64_t Start = nowNs();
  std::unique_ptr<LabelerBackend> B =
      take(LabelerBackend::create(K, G, Dyn, Opts), "backend create");
  Trace.record("select.LabelerBackend::create", Trace.newId(), 0, Start,
               nowNs());
  return B;
}

//===----------------------------------------------------------------------===//
// Lanes: where a function is sent and its result delivered
//===----------------------------------------------------------------------===//

/// Samples one lane collects while recording is on.
struct Samples {
  std::vector<double> DueLatMs;  ///< delivery - due time
  std::vector<double> SendLatUs; ///< delivery - actual send
  std::vector<double> WaitUs;    ///< SendLat - label - reduce - emit
};

/// A destination for functions with in-order delivery: an in-process
/// CompileService or one odburg-serve connection. Deliveries are checked
/// byte for byte against the reference and timed.
class Lane {
public:
  virtual ~Lane() = default;

  /// Sends \p It, due at \p DueNs (its latency is timed from then).
  void send(Item &It, std::uint64_t DueNs) {
    std::uint64_t Now = nowNs();
    if (Trace.on())
      It.Req = Trace.newId();
    {
      std::lock_guard<std::mutex> L(M);
      Pending.push_back(Slot{&It, DueNs ? DueNs : Now, Now, It.Req.load()});
      ++Sent;
    }
    transmit(It);
  }

  /// Waits until every function sent so far has been delivered.
  void waitAll() {
    std::unique_lock<std::mutex> L(M);
    if (!Done.wait_for(L, std::chrono::seconds(120),
                       [&] { return Delivered == Sent || Broken; }))
      die("timed out waiting for deliveries");
    if (Broken)
      die("lane broke: " + BrokenWhy);
  }

  /// The first delivery's time since the lane was created (or since
  /// markStart()), ms.
  double firstResultMs() const { return FirstResultMs; }
  void markStart() {
    std::lock_guard<std::mutex> L(M);
    CreatedNs = nowNs();
  }

  /// The lane's own submit->delivery p50 over its recent deliveries, us.
  virtual double laneP50Us() = 0;

  void startRecording() {
    std::lock_guard<std::mutex> L(M);
    Recording = true;
    Rec = Samples();
  }
  Samples stopRecording() {
    std::lock_guard<std::mutex> L(M);
    Recording = false;
    return std::move(Rec);
  }

protected:
  struct Slot {
    Item *It;
    std::uint64_t DueNs, SendNs, Req;
  };

  virtual void transmit(Item &It) = 0;

  /// Called in delivery order; \p ComputeNs is the compile time the
  /// result reports (0 when unknown to the client).
  void delivered(bool Ok, const std::string &Why, std::uint64_t ComputeNs,
                 const char *SpanName) {
    std::uint64_t Now = nowNs();
    std::lock_guard<std::mutex> L(M);
    if (Pending.empty()) {
      breakLane("delivery without a pending function");
      return;
    }
    Slot S = Pending.front();
    Pending.pop_front();
    if (!Ok)
      mismatch(Why);
    if (!FirstResultMs)
      FirstResultMs = static_cast<double>(Now - CreatedNs) / 1e6;
    if (Recording) {
      double SendUs = static_cast<double>(Now - S.SendNs) / 1e3;
      Rec.DueLatMs.push_back(static_cast<double>(Now - S.DueNs) / 1e6);
      Rec.SendLatUs.push_back(SendUs);
      if (ComputeNs)
        Rec.WaitUs.push_back(SendUs - static_cast<double>(ComputeNs) / 1e3);
    }
    Trace.record(SpanName, S.Req, 0, S.SendNs, Now);
    ++Delivered;
    Done.notify_all();
  }

  void breakLane(const std::string &Why) {
    Broken = true;
    BrokenWhy = Why;
    Done.notify_all();
  }

  const Item *frontItem() {
    std::lock_guard<std::mutex> L(M);
    return Pending.empty() ? nullptr : Pending.front().It;
  }

  std::mutex M;
  std::condition_variable Done;
  std::deque<Slot> Pending;
  std::uint64_t Sent = 0, Delivered = 0;
  std::uint64_t CreatedNs = nowNs();
  double FirstResultMs = 0.0;
  bool Recording = false;
  bool Broken = false;
  std::string BrokenWhy;
  Samples Rec;
};

/// An in-process CompileService over one grammar and backend. With
/// \p Traced (the functions it will compile) its backend records spans
/// whenever tracing is on.
class ServiceLane final : public Lane {
public:
  ServiceLane(const Grammar &G, const DynCostTable *Dyn, BackendKind K,
              unsigned Workers, const ItemList *Traced) {
    std::unique_ptr<LabelerBackend> B = createBackend(K, G, Dyn, {});
    if (Traced) {
      std::unordered_map<const ir::IRFunction *, Item *> Owners;
      for (const auto &It : *Traced)
        Owners[&It->F] = It.get();
      B = std::make_unique<TracingBackend>(std::move(B), std::move(Owners));
    }
    pl::CompileService::Options O;
    O.Backend = K;
    O.Workers = Workers;
    O.OnResult = [this](std::size_t, const pl::CompileResult &R) {
      const Item *It = frontItem();
      bool Ok = It && R.ok() && R.Asm == It->Asm &&
                R.Sel.TotalCost == It->ExpCost;
      delivered(Ok, R.ok() ? "in-process assembly or cost differs from dp"
                           : "compile failed: " + R.Diagnostic,
                R.LabelNs + R.ReduceNs + R.EmitNs,
                "pipeline.CompileService::submit->delivery");
    };
    Svc = pl::CompileService::create(G, Dyn, std::move(O), std::move(B));
  }

  ~ServiceLane() override { Svc->shutdown(); }

  double laneP50Us() override { return Svc->statsSnapshot().P50Us; }

protected:
  void transmit(Item &It) override {
    if (!Svc->submit(It.F))
      die("submit failed");
  }

private:
  std::unique_ptr<pl::CompileService> Svc;
};

/// One client connection to odburg-serve. The reader thread matches the
/// byte stream against the reference blocks of the functions sent, in
/// order; a block is delivered when its last byte has arrived.
class SocketLane final : public Lane {
public:
  SocketLane(serve::Socket S) : Sock(std::move(S)) {
    Reader = std::thread([this] { readLoop(); });
  }

  ~SocketLane() override {
    Sock.shutdownBoth();
    if (Reader.joinable())
      Reader.join();
  }

  /// Sends control lines whose last one is answered with a one-line
  /// reply (STATS is answered out of band, so ask only while nothing is
  /// pending); awaitReply() collects it.
  void ask(const std::string &Lines) {
    {
      std::lock_guard<std::mutex> L(M);
      ReplyWanted = true;
      Reply.clear();
    }
    if (!Sock.writeAll(Lines))
      die("socket write failed");
  }

  std::string request(const std::string &Lines) {
    ask(Lines);
    return awaitReply();
  }

  std::string awaitReply() {
    std::unique_lock<std::mutex> L(M);
    if (!Done.wait_for(L, std::chrono::seconds(120),
                       [&] { return !ReplyWanted || Broken; }))
      die("timed out waiting for a control reply");
    if (Broken)
      die("lane broke: " + BrokenWhy);
    return Reply;
  }

  double laneP50Us() override {
    std::string Reply = request("STATS\n");
    std::size_t P = Reply.find("\"p50Us\":");
    if (P == std::string::npos)
      die("STATS reply without p50Us: " + Reply);
    return std::strtod(Reply.c_str() + P + 8, nullptr);
  }

  /// Half-closes and waits for the server to close its side.
  void finish() {
    Sock.shutdownWrite();
    if (Reader.joinable())
      Reader.join();
  }

protected:
  void transmit(Item &It) override {
    if (!Sock.writeAll(It.Wire))
      die("socket write failed");
  }

private:
  void readLoop() {
    std::string Buf;
    std::size_t Pos = 0, Matched = 0; // Matched: bytes of the front block
    char Chunk[1 << 16];
    for (;;) {
      long N = Sock.readSome(Chunk, sizeof(Chunk));
      if (N <= 0) {
        std::lock_guard<std::mutex> L(M);
        if (!Pending.empty() || ReplyWanted || Pos != Buf.size())
          breakLane("connection closed with output pending");
        return;
      }
      Buf.append(Chunk, static_cast<std::size_t>(N));
      while (Pos < Buf.size()) {
        bool WantReply;
        {
          std::lock_guard<std::mutex> L(M);
          WantReply = ReplyWanted && Pending.empty();
        }
        if (WantReply) {
          std::size_t NL = Buf.find('\n', Pos);
          if (NL == std::string::npos)
            break;
          std::lock_guard<std::mutex> L(M);
          Reply = Buf.substr(Pos, NL - Pos);
          ReplyWanted = false;
          Pos = NL + 1;
          Done.notify_all();
          continue;
        }
        const Item *It = frontItem();
        if (!It) {
          std::lock_guard<std::mutex> L(M);
          breakLane("unexpected bytes from the server: " +
                    Buf.substr(Pos, 120));
          return;
        }
        // Compare as bytes arrive, so a diagnostic record shows at once.
        std::size_t Want = It->Asm.size() - Matched;
        std::size_t Have = std::min(Want, Buf.size() - Pos);
        if (Buf.compare(Pos, Have, It->Asm, Matched, Have) != 0) {
          delivered(false, "server block differs from the in-process "
                           "compile: " + Buf.substr(Pos, 120),
                    0, "serve.socket_round_trip");
          std::lock_guard<std::mutex> L(M);
          breakLane("stream out of step with the reference");
          return;
        }
        Pos += Have;
        Matched += Have;
        if (Matched < It->Asm.size())
          break;
        Matched = 0;
        delivered(true, "", It->ComputeNs, "serve.socket_round_trip");
      }
      if (Pos == Buf.size()) {
        Buf.clear();
        Pos = 0;
      }
    }
  }

  serve::Socket Sock;
  std::thread Reader;
  bool ReplyWanted = false;
  std::string Reply;
};

//===----------------------------------------------------------------------===//
// Phases
//===----------------------------------------------------------------------===//

struct Client {
  Lane *L;
  std::vector<Item *> Items;
};

std::vector<Item *> pointers(const ItemList &Items) {
  std::vector<Item *> Out;
  for (const auto &It : Items)
    Out.push_back(It.get());
  return Out;
}

template <typename Fn> void perClient(std::vector<Client> &Cs, Fn F) {
  std::vector<std::thread> Ts;
  for (Client &C : Cs)
    Ts.emplace_back([&C, &F] { F(C); });
  for (std::thread &T : Ts)
    T.join();
}

std::size_t countItems(const std::vector<Client> &Cs) {
  std::size_t N = 0;
  for (const Client &C : Cs)
    N += C.Items.size();
  return N;
}

/// Sends every client's functions as fast as the lanes accept them and
/// waits for all deliveries; wall time in ms.
double batchPass(std::vector<Client> &Cs) {
  std::uint64_t Start = nowNs();
  perClient(Cs, [](Client &C) {
    for (Item *It : C.Items)
      C.L->send(*It, 0);
    C.L->waitAll();
  });
  return msSince(Start);
}

/// Closed loop: each client keeps one function outstanding; fn/s.
double closedPass(std::vector<Client> &Cs) {
  std::uint64_t Start = nowNs();
  perClient(Cs, [](Client &C) {
    for (Item *It : C.Items) {
      C.L->send(*It, 0);
      C.L->waitAll();
    }
  });
  return static_cast<double>(countItems(Cs)) / (msSince(Start) / 1e3);
}

/// Open loop: one generator sends every client's functions on a seeded
/// Poisson schedule at \p Rate fn/s, round-robin over clients, whatever
/// the lanes' progress. Latency runs from the due time.
struct OpenResult {
  std::vector<double> LatMs, LateMs, WaitUs;
};

OpenResult openPass(std::vector<Client> &Cs, double Rate, RNG &Rand) {
  for (Client &C : Cs)
    C.L->startRecording();
  OpenResult Out;
  std::size_t MaxN = 0;
  for (const Client &C : Cs)
    MaxN = std::max(MaxN, C.Items.size());
  std::uint64_t Due = nowNs() + 1000000; // 1 ms head start
  for (std::size_t I = 0; I < MaxN; ++I)
    for (Client &C : Cs) {
      if (I >= C.Items.size())
        continue;
      double U = static_cast<double>(Rand.next() >> 11) * 0x1.0p-53;
      Due += static_cast<std::uint64_t>(-std::log1p(-U) / Rate * 1e9);
      std::uint64_t Now = nowNs();
      if (Due > Now)
        std::this_thread::sleep_for(std::chrono::nanoseconds(Due - Now));
      Out.LateMs.push_back(static_cast<double>(nowNs() - Due) / 1e6);
      C.L->send(*C.Items[I], Due);
    }
  for (Client &C : Cs) {
    C.L->waitAll();
    Samples S = C.L->stopRecording();
    Out.LatMs.insert(Out.LatMs.end(), S.DueLatMs.begin(), S.DueLatMs.end());
    Out.WaitUs.insert(Out.WaitUs.end(), S.WaitUs.begin(), S.WaitUs.end());
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Measurement bookkeeping
//===----------------------------------------------------------------------===//

struct Config {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 0;
  bool Traced = false;
  bool Short = false;
  std::string ServeBin;
  std::string WorkDir;
  std::string SpansPath;
  std::string SelfExe;
};

/// End-to-end figures of one measurement, plus the samples the traced
/// run turns into per-layer metrics.
struct E2E {
  /// Per set-up or batch: wall time, and CPU time (see processCpuNs).
  std::vector<double> SetupS, ColdMs, WarmMs, SatFnS;
  std::vector<double> SetupCpuS, ColdCpuMs, WarmCpuMs, SatFnCpuS;
  std::vector<double> ClosedFnS;
  OpenResult Open;
  /// p99 of each block of >= BlockSamples consecutive open-loop samples;
  /// their median is the reported p99, so one stalled stretch of a run
  /// moves it by one block at most.
  std::vector<double> BlockP99, Block;
  static constexpr std::size_t BlockSamples = 1000;
  std::vector<double> RoundP50; ///< p50 of each open-loop pass
  double PeakRssMb = 0;
  std::vector<double> RssMb; ///< grammar-churn: peak of each round
  std::uint64_t Attempted = 0, Failed = 0;
  std::vector<double> FirstResultMs, TransportUs;
  unsigned Rounds = 0;

  /// \p ExtraCpuMs: CPU time spent in a process \p W does not watch.
  void addSetup(const Watch &W, double ExtraCpuMs = 0) {
    SetupS.push_back(W.wallMs() / 1e3);
    SetupCpuS.push_back((W.cpuMs() + ExtraCpuMs) / 1e3);
  }
  void addCold(const Watch &W) {
    ColdMs.push_back(W.wallMs());
    ColdCpuMs.push_back(W.cpuMs());
  }
  void addWarm(const Watch &W) {
    WarmMs.push_back(W.wallMs());
    WarmCpuMs.push_back(W.cpuMs());
  }
  void addSaturation(std::size_t Functions, const Watch &W) {
    double N = static_cast<double>(Functions);
    SatFnS.push_back(N / (W.wallMs() / 1e3));
    SatFnCpuS.push_back(N / (W.cpuMs() / 1e3));
  }

  void addOpen(const OpenResult &O) {
    auto Cat = [](std::vector<double> &A, const std::vector<double> &B) {
      A.insert(A.end(), B.begin(), B.end());
    };
    Cat(Open.LatMs, O.LatMs);
    Cat(Open.LateMs, O.LateMs);
    Cat(Open.WaitUs, O.WaitUs);
    RoundP50.push_back(quantile(O.LatMs, 0.50));
    Cat(Block, O.LatMs);
    if (Block.size() >= BlockSamples) {
      BlockP99.push_back(quantile(Block, 0.99));
      Block.clear();
    }
  }

  /// Each figure is the median over the run's set-ups or batches. The
  /// bounded ones count CPU time, not wall time: on a shared host the
  /// hypervisor takes the vCPUs away for stretches of seconds, which
  /// stretches wall time by up to 2-4x but leaves CPU time alone. Wall
  /// time is reported with the per-layer metrics (wall.*).
  std::map<std::string, double> metrics() const {
    std::map<std::string, double> M;
    M["setup_s"] = median(SetupCpuS);
    M["cold_batch_cpu_ms"] = median(ColdCpuMs);
    M["warm_batch_cpu_ms"] = median(WarmCpuMs);
    M["serve_fn_per_cpu_s"] = median(SatFnCpuS);
    M["peak_rss_mb"] = PeakRssMb;
    M["compile_fn_per_s"] = median(ClosedFnS);
    M["serve_p50_ms"] = median(RoundP50);
    M["serve_p99_ms"] =
        BlockP99.empty() ? quantile(Open.LatMs, 0.99) : median(BlockP99);
    M["wall.setup_s"] = median(SetupS);
    M["wall.cold_batch_ms"] = median(ColdMs);
    M["wall.warm_batch_ms"] = median(WarmMs);
    M["wall.serve_fn_per_s"] = median(SatFnS);
    return M;
  }
};

const std::map<std::string, std::string> MetricUnits = {
    {"setup_s", "s"},
    {"cold_batch_cpu_ms", "ms"},
    {"warm_batch_cpu_ms", "ms"},
    {"serve_fn_per_cpu_s", "fn/cpu-s"},
    {"peak_rss_mb", "MB"},
    {"compile_fn_per_s", "fn/s"},
    {"serve_p50_ms", "ms"},
    {"serve_p99_ms", "ms"},
    {"wall.setup_s", "s"},
    {"wall.cold_batch_ms", "ms"},
    {"wall.warm_batch_ms", "ms"},
    {"wall.serve_fn_per_s", "fn/s"}};

/// The end-to-end metrics, with a bound in BENCHMARK.json. The rest of
/// metrics() is reported with the per-layer metrics: wall times, and the
/// closed loop and open-loop latencies, which pay a thread wake-up per
/// function; between runs on a shared host these moved past any bound
/// they could be gated on (the open-loop p99 by 50-170%, wall batch
/// times by up to 2-4x while the host's CPU steal was high).
const char *const GatedE2E[] = {"setup_s", "cold_batch_cpu_ms",
                                "warm_batch_cpu_ms", "serve_fn_per_cpu_s",
                                "peak_rss_mb"};

/// Transport probe (traced runs): a closed loop of as many functions per
/// client as a service's latency window holds, so that the lane's own p50
/// covers exactly these deliveries; records client p50 - lane p50.
void transportProbe(std::vector<Client> &Cs, E2E &Out) {
  for (Client &C : Cs)
    C.L->startRecording();
  perClient(Cs, [](Client &C) {
    for (std::size_t I = 0; I < pl::CompileService::LatencyWindow; ++I) {
      C.L->send(*C.Items[I % C.Items.size()], 0);
      C.L->waitAll();
    }
  });
  for (Client &C : Cs) {
    Samples S = C.L->stopRecording();
    Out.TransportUs.push_back(quantile(S.SendLatUs, 0.5) - C.L->laneP50Us());
  }
}

/// Runs whole rounds of \p Round until \p DeadlineNs. In a traced run
/// (\p Traced set) rounds alternate between untraced ones into \p Out and
/// traced ones into \p *Traced, ending on a traced one: drift of the host
/// then hits both sides alike, and their difference is the overhead.
template <typename RoundFn>
void runRounds(std::uint64_t DeadlineNs, E2E &Out, E2E *Traced,
               RoundFn Round) {
  bool On = false;
  do {
    Trace.enable(On);
    E2E &Dst = On ? *Traced : Out;
    Round(Dst);
    ++Dst.Rounds;
    if (Traced)
      On = !On;
  } while (nowNs() < DeadlineNs || On);
  Trace.enable(false);
}

std::uint64_t deadline(double Seconds) {
  return nowNs() + static_cast<std::uint64_t>(Seconds * 1e9);
}

/// The three loop phases over long-lived lanes, each sending every
/// function once.
void loopPhases(std::vector<Client> &Cs, double Rate, RNG &Rand, E2E &Out,
                pid_t Server = 0) {
  Out.ClosedFnS.push_back(closedPass(Cs));
  Watch Sat(Server);
  batchPass(Cs);
  Out.addSaturation(countItems(Cs), Sat);
  Out.addOpen(openPass(Cs, Rate, Rand));
  Out.Attempted += 3 * countItems(Cs);
}

/// The traced run's transport probe, with tracing on.
void tracedProbe(std::vector<Client> &Cs, E2E &Traced) {
  Trace.enable(true);
  transportProbe(Cs, Traced);
  Trace.enable(false);
}

//===----------------------------------------------------------------------===//
// Workload: jit-warm
//===----------------------------------------------------------------------===//

const char *const JitTargets[] = {"x86", "vm64"};

struct JitInputs {
  std::vector<std::unique_ptr<targets::Target>> Targets;
  std::vector<ItemList> Items;
};

JitInputs jitInputs(std::uint64_t Seed, unsigned PerProfile, bool Check) {
  JitInputs In;
  for (const char *Name : JitTargets) {
    In.Targets.push_back(take(targets::makeTarget(Name), "target"));
    targets::Target &T = *In.Targets.back();
    In.Items.push_back(profileItems(T.G, mix(Seed, In.Items.size()),
                                    PerProfile, 500));
    referenceCompile(T.G, &T.Dyn, In.Items.back());
    if (Check)
      for (const auto &It : In.Items.back())
        oracleCheck(T.G, &T.Dyn, *It);
  }
  return In;
}

/// Both targets' services built from scratch, then a cold and a warm
/// batch over the whole corpus; set-up, cold and warm are timed.
struct JitLanes {
  std::vector<std::unique_ptr<targets::Target>> Targets;
  std::vector<std::unique_ptr<ServiceLane>> Lanes;
  std::vector<Client> Cs;
};

std::unique_ptr<JitLanes> jitSetup(JitInputs &In, bool Traced, E2E &Out) {
  auto J = std::make_unique<JitLanes>();
  Watch Start;
  for (unsigned I = 0; I < In.Items.size(); ++I) {
    J->Targets.push_back(take(targets::makeTarget(JitTargets[I]), "target"));
    J->Lanes.push_back(std::make_unique<ServiceLane>(
        J->Targets[I]->G, &J->Targets[I]->Dyn, BackendKind::OnDemand, 1,
        Traced ? &In.Items[I] : nullptr));
    J->Cs.push_back(Client{J->Lanes.back().get(), pointers(In.Items[I])});
  }
  Out.addSetup(Start);
  batchPass(J->Cs);
  Out.addCold(Start);
  Watch Warm;
  batchPass(J->Cs);
  Out.addWarm(Warm);
  Out.Attempted += 2 * countItems(J->Cs);
  for (auto &L : J->Lanes)
    Out.FirstResultMs.push_back(L->firstResultMs());
  return J;
}

void measureJit(const Config &C, JitInputs &In, E2E &Out, E2E *Traced) {
  // The long-lived services the loop phases run on; every round also
  // builds (and drops) a fresh pair to time set-up, cold and warm.
  std::unique_ptr<JitLanes> Live = jitSetup(In, Traced, Out);
  RNG Rand(mix(C.Seed, 0x09e11));
  runRounds(deadline(C.Seconds), Out, Traced, [&](E2E &D) {
    jitSetup(In, Traced, D);
    malloc_trim(0); // what the fresh set-up dropped goes back to the OS
    loopPhases(Live->Cs, 2000, Rand, D);
  });
  if (Traced)
    tracedProbe(Live->Cs, *Traced);
  Out.PeakRssMb = peakRssMb(getpid());
}

//===----------------------------------------------------------------------===//
// Workload: grammar-churn
//===----------------------------------------------------------------------===//

SynthesisParams churnParams(std::uint64_t Seed) {
  SynthesisParams P;
  P.NumLeafOps = 3;
  P.NumUnaryOps = 3;
  P.NumBinaryOps = 6;
  P.NumNts = 8;
  P.RulesPerOp = 16;
  P.MaxCost = 3;
  P.Seed = Seed;
  return P;
}

ItemList churnItems(const Grammar &G, std::uint64_t Seed, unsigned Count) {
  RNG Rand(Seed);
  ItemList Items;
  for (unsigned I = 0; I < Count; ++I) {
    Items.push_back(std::make_unique<Item>());
    for (unsigned R = 0; R < 16; ++R)
      Items.back()->F.addRoot(
          workload::synthesizeTree(G, Items.back()->F, Rand, 24));
  }
  return Items;
}

/// The known-failing operation: a deep Un chain over a grammar whose
/// relative costs diverge, compiled in a child process under a low state
/// bound. It succeeds once the compile returns (a result or a typed
/// error) instead of killing the process.
const char *DivergentGrammar = R"(
  %start a
  a: Leaf = 1 (0);
  b: Leaf = 2 (1);
  a: Un(a) = 3 (1);
  b: Un(b) = 4 (2);
  a: Pair(a,b) = 5 (1);
)";

int divergentChild() {
  struct rlimit NoCore = {0, 0};
  setrlimit(RLIMIT_CORE, &NoCore);
  Grammar G = take(parseGrammar(DivergentGrammar), "divergent grammar");
  ir::IRFunction F;
  ir::Node *N = F.makeLeaf(G.findOperator("Leaf"));
  for (unsigned I = 0; I < 64; ++I) {
    SmallVector<ir::Node *, 1> Kids{N};
    N = F.makeNode(G.findOperator("Un"), Kids);
  }
  F.addRoot(N);
  pl::CompileService::Options O;
  O.Backend = BackendKind::OnDemand;
  O.Workers = 1;
  O.BackendOpts.Automaton.MaxStates = 16;
  // A typed error from create or submit is a survived operation too.
  auto Svc = pl::CompileService::create(G, nullptr, std::move(O));
  if (!Svc)
    return 0;
  auto Fut = (*Svc)->submit(F);
  if (!Fut)
    return 0;
  Fut->get();
  return 0;
}

/// True when the divergent-grammar operation survived (the child exited
/// 0), false on the known fault (the child died of SIGABRT). Any other
/// outcome, a hang included, is a mismatch: a different fault.
bool runDivergent(const Config &C) {
  posix_spawn_file_actions_t FA;
  posix_spawn_file_actions_init(&FA);
  posix_spawn_file_actions_addopen(&FA, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&FA, 2, "/dev/null", O_WRONLY, 0);
  std::string Flag = "--divergent-child";
  char *Argv[] = {const_cast<char *>(C.SelfExe.c_str()), Flag.data(),
                  nullptr};
  pid_t Pid;
  int E = posix_spawn(&Pid, C.SelfExe.c_str(), &FA, nullptr, Argv, environ);
  posix_spawn_file_actions_destroy(&FA);
  if (E != 0)
    die("cannot spawn the divergent-grammar child");
  // The child needs a few milliseconds; a run it hangs is lost anyway.
  constexpr double TimeoutMs = 20000;
  std::uint64_t Start = nowNs();
  int Status = 0;
  pid_t R;
  while ((R = waitpid(Pid, &Status, WNOHANG)) == 0 ||
         (R < 0 && errno == EINTR)) {
    if (msSince(Start) > TimeoutMs) {
      kill(Pid, SIGKILL);
      waitpid(Pid, nullptr, 0);
      mismatch("divergent-grammar child did not finish in 20 s");
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (R < 0)
    die("waitpid on the divergent-grammar child failed");
  if (WIFEXITED(Status) && WEXITSTATUS(Status) == 0)
    return true;
  if (WIFSIGNALED(Status) && WTERMSIG(Status) == SIGABRT)
    return false;
  mismatch(WIFSIGNALED(Status)
               ? "divergent-grammar child died of signal " +
                     std::to_string(WTERMSIG(Status))
               : "divergent-grammar child exited with " +
                     std::to_string(WEXITSTATUS(Status)));
  return false;
}

unsigned churnWorkers() {
  return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

/// The traced run's transport probe for grammar-churn, on one more
/// grammar and service of the workload's shape, warmed first.
void churnProbe(const Config &C, unsigned N, E2E &Traced) {
  Grammar G = take(synthesizeGrammar(churnParams(mix(C.Seed, ~0ull))),
                   "synthesize");
  ItemList Items = churnItems(G, mix(C.Seed, ~1ull), N);
  referenceCompile(G, nullptr, Items);
  ServiceLane Lane(G, nullptr, BackendKind::OnDemand, churnWorkers(),
                   &Items);
  std::vector<Client> Cs{Client{&Lane, pointers(Items)}};
  batchPass(Cs);
  tracedProbe(Cs, Traced);
}

void measureChurn(const Config &C, E2E &Out, E2E *Traced) {
  unsigned N = C.Short ? 64 : 1024;
  RNG Rand(mix(C.Seed, 0xc4u));
  std::uint64_t Round = 0;
  runRounds(deadline(C.Seconds), Out, Traced, [&](E2E &D) {
    // Inputs and references first, outside every timed region.
    std::uint64_t GSeed = mix(C.Seed, Round);
    Grammar Ref = take(synthesizeGrammar(churnParams(GSeed)), "synthesize");
    ItemList Items = churnItems(Ref, mix(GSeed, 1), N);
    referenceCompile(Ref, nullptr, Items);
    ItemList Sample;
    {
      RNG SR(mix(GSeed, 2));
      for (unsigned I = 0; I < 4; ++I) {
        Sample.push_back(std::make_unique<Item>());
        Sample.back()->F.addRoot(
            workload::synthesizeTree(Ref, Sample.back()->F, SR, 5));
      }
      referenceCompile(Ref, nullptr, Sample);
      for (const auto &It : Sample)
        oracleCheck(Ref, nullptr, *It);
    }

    // Memory freed since the last round goes back to the OS, so that every
    // round's peak starts from the same base: the live inputs.
    malloc_trim(0);
    RssSampler Rss;
    Watch Start;
    Grammar G = take(synthesizeGrammar(churnParams(GSeed)), "synthesize");
    {
      ServiceLane Lane(G, nullptr, BackendKind::OnDemand, churnWorkers(),
                       Traced ? &Items : nullptr);
      D.addSetup(Start);
      std::vector<Client> Cs{Client{&Lane, pointers(Items)}};
      batchPass(Cs);
      D.addCold(Start);
      D.FirstResultMs.push_back(Lane.firstResultMs());
      Watch Warm;
      batchPass(Cs);
      D.addWarm(Warm);
      D.addSaturation(N, Warm);
      D.ClosedFnS.push_back(closedPass(Cs));
      D.addOpen(openPass(Cs, 4000, Rand));
      // The sample trees through the on-demand service: it must agree
      // with the oracle-checked dp costs too.
      std::vector<Client> SC{Client{&Lane, pointers(Sample)}};
      batchPass(SC);
    }
    D.RssMb.push_back(Rss.stop());
    if (!runDivergent(C))
      ++D.Failed;
    D.Attempted += 4 * N + Sample.size() + 1;
    ++Round;
  });
  if (Traced)
    churnProbe(C, N, *Traced);
  Out.PeakRssMb = median(Out.RssMb);
}

//===----------------------------------------------------------------------===//
// Workload: serve-mixed
//===----------------------------------------------------------------------===//

struct Tenant {
  const char *Target;
  const char *Backend;
  bool Fixed;
};

const Tenant Tenants[] = {{"x86", "ondemand", false},
                          {"vm64", "hybrid", false},
                          {"mips", "dp", false},
                          {"alpha", "offline", true}};

struct ServeInputs {
  std::vector<std::unique_ptr<targets::Target>> Targets;
  std::vector<ItemList> Items;
};

ServeInputs serveInputs(std::uint64_t Seed, unsigned PerProfile, bool Check) {
  ServeInputs In;
  for (const Tenant &T : Tenants) {
    In.Targets.push_back(take(targets::makeTarget(T.Target), "target"));
    targets::Target &Tg = *In.Targets.back();
    const Grammar &G = T.Fixed ? Tg.Fixed : Tg.G;
    const DynCostTable *Dyn = T.Fixed ? nullptr : &Tg.Dyn;
    // Generated over the full grammar, parsed back over the lane's
    // grammar: exactly the function the server will compile.
    ItemList Gen = profileItems(Tg.G, mix(Seed, In.Items.size()),
                                PerProfile, 500);
    ItemList Items;
    for (auto &It : Gen) {
      Items.push_back(std::make_unique<Item>());
      Items.back()->Wire = wireFrame(It->F, Tg.G);
      if (Error E = ir::parseSExprProgram(Items.back()->Wire, G,
                                          Items.back()->F))
        die("wire frame does not parse: " + E.message());
    }
    referenceCompile(G, Dyn, Items);
    if (Check)
      for (const auto &It : Items)
        oracleCheck(G, Dyn, *It);
    In.Items.push_back(std::move(Items));
  }
  return In;
}

/// Each function's in-process label+reduce+emit time on its tenant's
/// backend (second of two passes), for the traced run's wait figures.
void measureCompute(ServeInputs &In) {
  for (unsigned I = 0; I < In.Items.size(); ++I) {
    const Tenant &T = Tenants[I];
    targets::Target &Tg = *In.Targets[I];
    const Grammar &G = T.Fixed ? Tg.Fixed : Tg.G;
    const DynCostTable *Dyn = T.Fixed ? nullptr : &Tg.Dyn;
    std::unique_ptr<LabelerBackend> B =
        take(LabelerBackend::create(
                 take(parseBackendKind(T.Backend), "backend"), G, Dyn),
             "backend");
    pl::WorkerState WS;
    for (int Pass = 0; Pass < 2; ++Pass)
      for (auto &It : In.Items[I]) {
        pl::CompileResult R;
        pl::compileFunctionWith(G, Dyn, *B, It->F, WS, R);
        It->ComputeNs = R.LabelNs + R.ReduceNs + R.EmitNs;
      }
  }
}

/// A running odburg-serve process.
class Server {
public:
  Server(const Config &C, unsigned Index) {
    Dir = C.WorkDir + "/serve" + std::to_string(Index);
    std::filesystem::remove_all(Dir);
    std::filesystem::create_directories(Dir + "/registry");
    std::string PortFile = Dir + "/port";
    std::vector<std::string> Args = {C.ServeBin,
                                     "--listen=0",
                                     "--port-file=" + PortFile,
                                     "--registry-dir=" + Dir + "/registry",
                                     "--no-snapshots",
                                     "--threads=1",
                                     "--gen-threads=1"};
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    posix_spawn_file_actions_t FA;
    posix_spawn_file_actions_init(&FA);
    std::string Log = Dir + "/server.log";
    posix_spawn_file_actions_addopen(&FA, 1, Log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&FA, 1, 2);
    int E = posix_spawn(&Pid, C.ServeBin.c_str(), &FA, nullptr, Argv.data(),
                        environ);
    posix_spawn_file_actions_destroy(&FA);
    if (E != 0)
      die("cannot start " + C.ServeBin);
    {
      std::lock_guard<std::mutex> L(ServersM);
      LiveServers.push_back(Pid);
    }
    std::uint64_t Start = nowNs();
    for (;;) {
      std::ifstream In(PortFile);
      if (In >> Port)
        break;
      int Status;
      if (waitpid(Pid, &Status, WNOHANG) == Pid) {
        forget();
        die("odburg-serve exited at start-up; see " + Log);
      }
      if (msSince(Start) > 30000)
        die("odburg-serve did not start listening");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  ~Server() { stop(); }

  unsigned port() const { return Port; }
  pid_t pid() const { return Pid; }

  /// SIGTERM, then wait (SIGKILL after 20 s); true on a clean exit.
  bool stop() {
    if (Pid <= 0)
      return true;
    kill(Pid, SIGTERM);
    int Status = 0;
    std::uint64_t Start = nowNs();
    while (waitpid(Pid, &Status, WNOHANG) == 0) {
      if (msSince(Start) > 20000) {
        kill(Pid, SIGKILL);
        waitpid(Pid, &Status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    forget();
    std::filesystem::remove_all(Dir);
    return WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
  }

private:
  void forget() {
    std::lock_guard<std::mutex> L(ServersM);
    std::erase(LiveServers, Pid);
    Pid = -1;
  }

  pid_t Pid = -1;
  unsigned Port = 0;
  std::string Dir;
};

/// A fresh odburg-serve with one connection per tenant: set-up (start,
/// overlapping handshakes), then a cold and a warm batch; all timed.
struct ServeLanes {
  std::unique_ptr<Server> Srv;
  std::vector<std::unique_ptr<SocketLane>> Lanes;
  std::vector<Client> Cs;

  /// Closes every connection and drains the server.
  void close() {
    for (auto &L : Lanes)
      L->finish();
    Lanes.clear();
    Cs.clear();
    if (!Srv->stop())
      mismatch("odburg-serve did not drain cleanly");
  }
};

std::unique_ptr<ServeLanes> serveSetup(const Config &C, ServeInputs &In,
                                       unsigned Index, E2E &Out) {
  auto S = std::make_unique<ServeLanes>();
  Watch Start;
  S->Srv = std::make_unique<Server>(C, Index);
  // Handshakes overlap: every connection asks, then all replies are
  // collected; a STATS reply means the lane is bound.
  for (unsigned I = 0; I < std::size(Tenants); ++I) {
    serve::Socket Sock = take(
        serve::Socket::connectTo("127.0.0.1",
                                 static_cast<std::uint16_t>(S->Srv->port())),
        "connect");
    S->Lanes.push_back(std::make_unique<SocketLane>(std::move(Sock)));
    S->Lanes.back()->markStart();
    S->Lanes.back()->ask(std::string("GRAMMAR ") + Tenants[I].Target +
                         "\nBACKEND " + Tenants[I].Backend + "\nSTATS\n");
    S->Cs.push_back(Client{S->Lanes.back().get(), pointers(In.Items[I])});
  }
  for (auto &L : S->Lanes) {
    std::string Reply = L->awaitReply();
    if (Reply.rfind("STATS {", 0) != 0)
      die("handshake failed: " + Reply);
  }
  // The server started after Start, so all of its CPU time is set-up.
  pid_t Pid = S->Srv->pid();
  Out.addSetup(Start, static_cast<double>(processCpuNs(Pid)) / 1e6);
  Watch Cold(Pid);
  batchPass(S->Cs);
  Out.addCold(Cold);
  for (auto &L : S->Lanes)
    Out.FirstResultMs.push_back(L->firstResultMs());
  Watch Warm(Pid);
  batchPass(S->Cs);
  Out.addWarm(Warm);
  Out.Attempted += 2 * countItems(S->Cs);
  return S;
}

void measureServe(const Config &C, ServeInputs &In, E2E &Out, E2E *Traced) {
  // A long-lived server carries the loop phases; every round also starts
  // (and drains) a fresh one to time set-up, cold and warm.
  unsigned NextServer = 0;
  std::unique_ptr<ServeLanes> Live = serveSetup(C, In, NextServer++, Out);
  RNG Rand(mix(C.Seed, 0x09e11));
  runRounds(deadline(C.Seconds), Out, Traced, [&](E2E &D) {
    serveSetup(C, In, NextServer++, D)->close();
    loopPhases(Live->Cs, 1000, Rand, D, Live->Srv->pid());
  });
  if (Traced)
    tracedProbe(Live->Cs, *Traced);
  Out.PeakRssMb = peakRssMb(Live->Srv->pid());
  Live->close();
}

//===----------------------------------------------------------------------===//
// The layer pass: single-threaded direct calls into each layer on a fixed
// reference corpus, so counts repeat exactly from run to run.
//===----------------------------------------------------------------------===//

struct LayerCounts {
  std::uint64_t Nodes = 0, Allocs[3] = {0, 0, 0}, Ns[3] = {0, 0, 0};
  std::uint64_t ParseNs = 0, ParseNodes = 0;
  SelectionStats Stats;
};

/// Labels, reduces and emits every item once on \p B, with spans and
/// per-layer allocation counts.
void layerPass(const Grammar &G, const DynCostTable *Dyn, LabelerBackend &B,
               LabelerScratch &LS, ReductionScratch &RS, ItemList &Items,
               LayerCounts &LC) {
  targets::AsmBuffer Buf;
  for (auto &It : Items) {
    std::uint64_t Parent = Trace.newId();
    std::uint64_t T0 = nowNs(), A0 = ThreadAllocs;
    const Labeling &L = B.labelFunction(It->F, LS, &LC.Stats);
    std::uint64_t T1 = nowNs(), A1 = ThreadAllocs;
    Expected<Selection> Sel = reduce(G, It->F, L, Dyn, RS);
    std::uint64_t T2 = nowNs(), A2 = ThreadAllocs;
    if (!Sel)
      die("reduce failed: " + Sel.message());
    Buf.clear();
    Error E = targets::emitAsm(G, It->F, *Sel, Buf);
    std::uint64_t T3 = nowNs(), A3 = ThreadAllocs;
    if (E)
      die("emit failed: " + E.message());
    if (Buf.Text != It->Asm || Sel->TotalCost != It->ExpCost)
      mismatch("layer pass output differs from dp");
    Trace.record("select.LabelerBackend::labelFunction", Trace.newId(),
                 Parent, T0, T1);
    Trace.record("select.reduce", Trace.newId(), Parent, T1, T2);
    Trace.record("targets.emitAsm", Trace.newId(), Parent, T2, T3);
    Trace.record("layer.compile", Parent, 0, T0, T3);
    LC.Nodes += It->F.size();
    LC.Ns[0] += T1 - T0;
    LC.Ns[1] += T2 - T1;
    LC.Ns[2] += T3 - T2;
    LC.Allocs[0] += A1 - A0;
    LC.Allocs[1] += A2 - A1;
    LC.Allocs[2] += A3 - A2;
  }
  // The s-expression reader over the same functions' wire text.
  for (auto &It : Items) {
    std::string Text = wireFrame(It->F, G);
    ir::IRFunction F;
    std::uint64_t T0 = nowNs();
    Error E = ir::parseSExprProgram(Text, G, F);
    std::uint64_t T1 = nowNs();
    if (E)
      die("reparse failed: " + E.message());
    Trace.record("ir.parseSExprProgram", Trace.newId(), 0, T0, T1);
    LC.ParseNs += T1 - T0;
    LC.ParseNodes += F.size();
  }
}

/// One backend's exact counts: a cold pass, a warm-up pass, then a
/// counted warm pass.
struct BackendLayer {
  LayerCounts Cold, Warm;
  unsigned States = 0;
  std::size_t Bytes = 0;
};

BackendLayer measureLayers(const Grammar &G, const DynCostTable *Dyn,
                           BackendKind K, ItemList &Items) {
  BackendLayer Out;
  Trace.enable(true); // every workload gets creation spans from here
  std::unique_ptr<LabelerBackend> B = createBackend(K, G, Dyn, {});
  Trace.enable(false);
  LabelerScratch LS;
  ReductionScratch RS;
  layerPass(G, Dyn, *B, LS, RS, Items, Out.Cold);
  LayerCounts Discard;
  layerPass(G, Dyn, *B, LS, RS, Items, Discard);
  Trace.enable(true);
  layerPass(G, Dyn, *B, LS, RS, Items, Out.Warm);
  Trace.enable(false);
  Out.States = B->numStates();
  Out.Bytes = B->memoryBytes();
  return Out;
}

//===----------------------------------------------------------------------===//
// Paper-shape reference tables (traced jit-warm run only)
//===----------------------------------------------------------------------===//

/// T3: label ns/node per backend on the fixed and full x86 grammars;
/// T4: set-up plus labeling time by input size, cold, per backend.
void paperShapes(std::FILE *Out) {
  auto T = take(targets::makeTarget("x86"), "target");
  std::fprintf(Out, "T3 label ns/node, x86, warm, one thread\n");
  for (bool Full : {false, true}) {
    const Grammar &G = Full ? T->G : T->Fixed;
    const DynCostTable *Dyn = Full ? &T->Dyn : nullptr;
    ItemList Items = profileItems(G, 1, 8, 500);
    for (BackendKind K : {BackendKind::DP, BackendKind::Offline,
                          BackendKind::OnDemand, BackendKind::Hybrid}) {
      if (Full && K == BackendKind::Offline) {
        std::fprintf(Out, "  %-5s %-8s  n/a (dynamic costs)\n", "full",
                     backendName(K));
        continue;
      }
      std::unique_ptr<LabelerBackend> B = createBackend(K, G, Dyn, {});
      LabelerScratch LS;
      std::vector<double> PerPass;
      for (unsigned Pass = 0; Pass < 7; ++Pass) {
        std::uint64_t Nodes = 0, Start = nowNs();
        for (auto &It : Items) {
          B->labelFunction(It->F, LS);
          Nodes += It->F.size();
        }
        if (Pass)
          PerPass.push_back(static_cast<double>(nowNs() - Start) /
                            static_cast<double>(Nodes));
      }
      std::fprintf(Out, "  %-5s %-8s  %6.1f ns/node (median of 6 passes)\n",
                   Full ? "full" : "fixed", backendName(K), median(PerPass));
    }
  }
  std::fprintf(Out, "T4 set-up + first labeling pass, x86 fixed grammar, ms\n");
  for (unsigned Size : {1000u, 10000u, 100000u}) {
    ItemList Items = profileItems(T->Fixed, 2, 1, Size / 10);
    std::fprintf(Out, "  %6u nodes:", Size);
    for (BackendKind K :
         {BackendKind::DP, BackendKind::Offline, BackendKind::OnDemand}) {
      std::uint64_t Start = nowNs();
      std::unique_ptr<LabelerBackend> B =
          createBackend(K, T->Fixed, nullptr, {});
      LabelerScratch LS;
      for (auto &It : Items)
        B->labelFunction(It->F, LS);
      std::fprintf(Out, "  %s %.2f", backendName(K), msSince(Start));
    }
    std::fprintf(Out, "\n");
  }
}

//===----------------------------------------------------------------------===//
// Per-layer metrics of a traced run
//===----------------------------------------------------------------------===//

using MetricMap = std::map<std::string, std::pair<double, std::string>>;

void layerMetrics(const std::vector<BackendLayer> &Layers, MetricMap &M) {
  LayerCounts W, Cd;
  unsigned States = 0;
  std::size_t Bytes = 0;
  for (const BackendLayer &L : Layers) {
    for (int I = 0; I < 3; ++I) {
      W.Ns[I] += L.Warm.Ns[I];
      W.Allocs[I] += L.Warm.Allocs[I];
    }
    W.Nodes += L.Warm.Nodes;
    W.ParseNs += L.Warm.ParseNs;
    W.ParseNodes += L.Warm.ParseNodes;
    W.Stats += L.Warm.Stats;
    Cd.Stats += L.Cold.Stats;
    States += L.States;
    Bytes += L.Bytes;
  }
  double N = static_cast<double>(W.Nodes);
  auto Ratio = [](std::uint64_t A, std::uint64_t B) {
    return B ? static_cast<double>(A) / static_cast<double>(B) : 0.0;
  };
  M["select.label_ns_per_node"] = {W.Ns[0] / N, "ns/node"};
  M["select.reduce_ns_per_node"] = {W.Ns[1] / N, "ns/node"};
  M["targets.emit_ns_per_node"] = {W.Ns[2] / N, "ns/node"};
  M["select.label_allocs_per_node"] = {W.Allocs[0] / N, "allocs/node"};
  M["select.reduce_allocs_per_node"] = {W.Allocs[1] / N, "allocs/node"};
  M["targets.emit_allocs_per_node"] = {W.Allocs[2] / N, "allocs/node"};
  M["core.work_units_per_node"] = {W.Stats.workUnits() / N, "units/node"};
  M["core.states_computed"] = {static_cast<double>(Cd.Stats.StatesComputed),
                               "count"};
  M["core.states"] = {static_cast<double>(States), "count"};
  M["core.l1_hit_ratio"] = {Ratio(W.Stats.L1Hits, W.Stats.L1Probes), "ratio"};
  M["core.dense_hit_ratio"] = {Ratio(W.Stats.DenseHits, W.Stats.DenseProbes),
                               "ratio"};
  M["core.cache_hit_ratio"] = {Ratio(W.Stats.CacheHits, W.Stats.CacheProbes),
                               "ratio"};
  M["core.offline_hit_ratio"] = {
      Ratio(W.Stats.OfflineHits, W.Stats.NodesLabeled), "ratio"};
  M["core.backend_mb"] = {static_cast<double>(Bytes) / 1e6, "MB"};
  M["ir.parse_ns_per_node"] = {
      static_cast<double>(W.ParseNs) / static_cast<double>(W.ParseNodes),
      "ns/node"};
}

void tracedMetrics(const E2E &Plain, const E2E &Traced, MetricMap &M) {
  // pipeline wait: open-loop send->delivery minus the function's own
  // label+reduce+emit time (on sockets, as measured in process, so the
  // wait includes the transport there).
  M["pipeline.wait_us_p50"] = {quantile(Traced.Open.WaitUs, 0.5), "us"};
  M["pipeline.wait_us_p99"] = {quantile(Traced.Open.WaitUs, 0.99), "us"};
  M["serve.transport_us_p50"] = {median(Traced.TransportUs), "us"};
  M["registry.first_result_ms"] = {median(Traced.FirstResultMs), "ms"};
  M["loadgen.lateness_ms_p99"] = {quantile(Traced.Open.LateMs, 0.99), "ms"};
  // Both sides share one process (and one server), so memory has no
  // traced/untraced split.
  std::map<std::string, double> P = Plain.metrics(), T = Traced.metrics();
  for (const auto &[Name, V] : P)
    if (Name != "peak_rss_mb")
      M["trace.overhead." + Name + "_pct"] = {
          V ? (T[Name] - V) / V * 100.0 : 0.0, "%"};
}

void spanMetrics(const std::vector<Span> &Spans, MetricMap &M) {
  auto Self = selfTimes(Spans);
  auto Per = [&](const char *Span, const char *Metric) {
    auto It = Self.find(Span);
    double V = It == Self.end() || !It->second.second
                   ? 0.0
                   : It->second.first /
                         static_cast<double>(It->second.second);
    M[Metric] = {V, "us"};
  };
  Per("select.LabelerBackend::labelFunction", "trace.self.label_us");
  Per("select.reduce", "trace.self.reduce_us");
  Per("targets.emitAsm", "trace.self.emit_us");
  Per("ir.parseSExprProgram", "trace.self.parse_us");
  Per("select.LabelerBackend::create", "trace.self.backend_create_us");
  // Per-request span: the service's submit->delivery in process (its
  // labelFunction children removed), the client's round trip on sockets.
  double Sum = 0;
  std::size_t Cnt = 0;
  for (const char *S : {"pipeline.CompileService::submit->delivery",
                        "serve.socket_round_trip"}) {
    auto It = Self.find(S);
    if (It != Self.end()) {
      Sum += It->second.first;
      Cnt += It->second.second;
    }
  }
  M["trace.self.request_us"] = {Cnt ? Sum / static_cast<double>(Cnt) : 0.0,
                                "us"};
}

void writeSpans(const std::vector<Span> &Spans, const std::string &Path) {
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out)
    die("cannot write spans to " + Path);
  for (const Span &S : Spans)
    Out << "{\"name\":\"" << S.Name << "\",\"id\":" << S.Id
        << ",\"parent\":" << S.Parent << ",\"start_ns\":" << S.StartNs
        << ",\"end_ns\":" << S.EndNs << "}\n";
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

void printResult(std::uint64_t Attempted, std::uint64_t Failed,
                 const MetricMap &M) {
  std::string Line = std::string("{\"correct\": ") +
                     (AllCorrect ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(Attempted) +
                     ", \"failed\": " + std::to_string(Failed) +
                     ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, VU] : M) {
    char Num[64];
    double V = std::isfinite(VU.first) ? VU.first : 0.0;
    std::snprintf(Num, sizeof(Num), "%.17g", V);
    Line += (First ? "\"" : ", \"") + Name + "\": {\"value\": " + Num +
            ", \"unit\": \"" + VU.second + "\"}";
    First = false;
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
}

void describe(const Config &C, const E2E &R) {
  std::fprintf(stderr,
               "perfbench: %s seed=%llu rounds=%u open-loop samples=%zu "
               "(p99 has %zu beyond) generator lateness p99=%.3f ms\n",
               C.Workload.c_str(), static_cast<unsigned long long>(C.Seed),
               R.Rounds, R.Open.LatMs.size(), R.Open.LatMs.size() / 100,
               quantile(R.Open.LateMs, 0.99));
  if (R.Open.LatMs.size() < 1000)
    std::fprintf(stderr, "perfbench: note: fewer than 1000 open-loop "
                         "samples; serve_p99_ms is not a tail here\n");
}

int run(const Config &C) {
  MetricMap M;
  // A traced run alternates untraced and traced rounds, then adds the
  // layer pass.
  E2E Main, Traced;
  E2E *TracedOut = C.Traced ? &Traced : nullptr;
  std::vector<BackendLayer> Layers;
  std::uint64_t RefSeed = 1; // layer pass: fixed corpus, exact counts
  if (C.Workload == "jit-warm") {
    JitInputs In = jitInputs(C.Seed, C.Short ? 4 : 32, true);
    measureJit(C, In, Main, TracedOut);
    if (C.Traced) {
      JitInputs Ref = jitInputs(RefSeed, 8, false);
      for (unsigned I = 0; I < Ref.Targets.size(); ++I)
        Layers.push_back(measureLayers(Ref.Targets[I]->G,
                                       &Ref.Targets[I]->Dyn,
                                       BackendKind::OnDemand, Ref.Items[I]));
    }
  } else if (C.Workload == "grammar-churn") {
    measureChurn(C, Main, TracedOut);
    if (C.Traced) {
      Grammar G =
          take(synthesizeGrammar(churnParams(RefSeed)), "synthesize");
      ItemList Items = churnItems(G, RefSeed, 256);
      referenceCompile(G, nullptr, Items);
      Layers.push_back(
          measureLayers(G, nullptr, BackendKind::OnDemand, Items));
    }
  } else if (C.Workload == "serve-mixed") {
    ServeInputs In = serveInputs(C.Seed, C.Short ? 4 : 16, true);
    if (C.Traced)
      measureCompute(In);
    measureServe(C, In, Main, TracedOut);
    if (C.Traced) {
      ServeInputs Ref = serveInputs(RefSeed, 4, false);
      for (unsigned I = 0; I < Ref.Targets.size(); ++I) {
        const Tenant &T = Tenants[I];
        targets::Target &Tg = *Ref.Targets[I];
        Layers.push_back(measureLayers(
            T.Fixed ? Tg.Fixed : Tg.G, T.Fixed ? nullptr : &Tg.Dyn,
            take(parseBackendKind(T.Backend), "backend"), Ref.Items[I]));
      }
    }
  } else {
    die("unknown workload '" + C.Workload +
        "' (jit-warm, grammar-churn, serve-mixed)");
  }
  describe(C, Main);

  auto Gated = [](const std::string &Name) {
    return std::find(std::begin(GatedE2E), std::end(GatedE2E), Name) !=
           std::end(GatedE2E);
  };
  for (const auto &[Name, V] : Main.metrics())
    if (Gated(Name) != C.Traced)
      M[Name] = {V, MetricUnits.at(Name)};
  if (!C.Traced) {
    printResult(Main.Attempted, Main.Failed, M);
    return 0;
  }

  // offline.hybrid_create_ms: the serve-mixed hybrid tenant's backend
  // (vm64, full grammar), median of five creations.
  {
    auto T = take(targets::makeTarget("vm64"), "target");
    std::vector<double> Ms;
    for (int I = 0; I < 5; ++I) {
      std::uint64_t Start = nowNs();
      createBackend(BackendKind::Hybrid, T->G, &T->Dyn, {});
      Ms.push_back(msSince(Start));
    }
    M["offline.hybrid_create_ms"] = {median(Ms), "ms"};
  }
  layerMetrics(Layers, M);
  tracedMetrics(Main, Traced, M);
  std::vector<Span> Spans = Trace.spans();
  spanMetrics(Spans, M);
  writeSpans(Spans, C.SpansPath);
  std::fprintf(stderr, "perfbench: %zu spans written to %s\n", Spans.size(),
               C.SpansPath.c_str());
  if (C.Workload == "jit-warm")
    paperShapes(stderr);
  printResult(Main.Attempted + Traced.Attempted, Main.Failed + Traced.Failed,
              M);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Config C;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--divergent-child")
      return divergentChild();
    auto Next = [&]() -> std::string {
      if (I + 1 >= Argc)
        die("missing value after " + A);
      return Argv[++I];
    };
    if (A == "--workload")
      C.Workload = Next();
    else if (A == "--seed")
      C.Seed = std::strtoull(Next().c_str(), nullptr, 10);
    else if (A == "--seconds")
      C.Seconds = std::strtod(Next().c_str(), nullptr);
    else if (A == "--trace")
      C.Traced = Next() == "1";
    else if (A == "--short")
      C.Short = true;
    else if (A == "--serve")
      C.ServeBin = Next();
    else if (A == "--work-dir")
      C.WorkDir = Next();
    else if (A == "--spans")
      C.SpansPath = Next();
    else
      die("unknown argument " + A);
  }
  if (C.Workload.empty() || C.WorkDir.empty() || C.Seconds <= 0 ||
      C.Traced == C.SpansPath.empty())
    die("usage: odburg-perfbench --workload W --seed N --seconds S "
        "--trace 0|1 --work-dir DIR [--serve PATH] [--spans PATH] "
        "[--short] (--spans PATH goes with --trace 1, and only there)");
  if (C.Workload == "serve-mixed" && C.ServeBin.empty())
    die("serve-mixed needs --serve PATH to odburg-serve");
  C.SelfExe = std::filesystem::read_symlink("/proc/self/exe").string();
  std::filesystem::create_directories(C.WorkDir);
  std::signal(SIGPIPE, SIG_IGN);
  return run(C);
}
