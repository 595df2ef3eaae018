#pragma once
/// \file common.h
/// \brief Shared pieces of the repo benchmark: the span recorder that times
/// calls into the libraries from outside, sample statistics, the host-speed
/// calibration, the result document each run prints, and the layer probes
/// every workload runs in its traced pass.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "liberty/library.h"
#include "network/netlist.h"
#include "serve/epoch.h"
#include "sta/scenario.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace pb {

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point a, Clock::time_point b);
double msSince(Clock::time_point t0);

// ---------------------------------------------------------------------------
// Spans. Every Span measures its own wall time; when the recorder is on it
// also keeps {layer, name, start, end, parent, op} in memory for the fold
// run.py performs at exit. Parents nest per thread.
// ---------------------------------------------------------------------------

struct SpanRecord {
  std::string layer;
  std::string name;
  double startUs = 0.0;
  double endUs = 0.0;
  int id = -1;
  int parent = -1;
  std::int64_t op = -1;
};

class Tracer {
 public:
  static Tracer& get();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  int open(const std::string& layer, const std::string& name,
           std::int64_t op, Clock::time_point start);
  void close(int id, Clock::time_point end);
  /// Recorded spans as JSON lines.
  std::string dump() const;

 private:
  Tracer();
  std::atomic<bool> enabled_{false};
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

class Span {
 public:
  Span(const std::string& layer, const std::string& name,
       std::int64_t op = -1);
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  /// Close the span (idempotent) and return its duration in ms.
  double stop();

 private:
  Clock::time_point start_;
  double ms_ = -1.0;
  int id_ = -1;
};

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

/// The middle value; the mean of the two middle values for an even count.
double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);

/// A timing summary: median plus the highest percentile of {99.9, 99, 95,
/// 90, 75} that leaves at least ten samples beyond it (none when there are
/// too few samples), with the sample count.
tc::Json timingSummary(const std::vector<double>& samples,
                       const std::string& unit);

double peakRssMb();

// ---------------------------------------------------------------------------
// Host-speed calibration. On the shared 4-core host the benchmark was tuned
// on, one closure block's loop took anywhere from 140 to 300 ms and the
// signoff passes moved by half between runs minutes apart. The speed moves
// at second scale, can stay low for longer than a run, and is user time, not
// waiting. A fixed kernel that builds and probes a node-based hash map, the
// pointer-heavy kind of work the libraries do, timed just before and just
// after each timed operation on the cores that operation uses, tracks it; a
// dependent floating-point chain, a pointer chase over a flat array and a
// DAG sweep over flat arrays track it less or not at all. closure and
// signoff scale each operation by kKernelRefMs / (mean of those two kernel
// times).
// ---------------------------------------------------------------------------

/// The kernel's nominal time: a scaled figure reads as milliseconds on a
/// host where one kernel pass takes this long (about the kernel's median
/// on the tuning host, so scaled and raw figures are alike there).
constexpr double kKernelRefMs = 20.0;

/// One timed kernel pass on the calling thread, in ms: three rounds of 60k
/// seeded inserts into a node-based hash map over 200k keys, then 60k
/// lookups each, in a thread-local buffer of its own; none of the libraries'
/// code.
double kernelMs();

/// One kernel pass on every worker of `pool` at once; their mean time, for
/// operations that keep four cores busy.
double poolKernelMs(tc::ThreadPool& pool);

/// Scales one thread's sequence of timed operations by the kernel timed
/// between them.
class Calibrated {
 public:
  /// Times `kernel` once, before the first operation.
  explicit Calibrated(std::function<double()> kernel);
  /// Times the kernel after an operation that took `ms`; returns the
  /// operation's scaled time.
  double after(double ms);
  /// Re-times the kernel, after a wait that was not an operation.
  void restart() { last_ = kernel_(); }
  /// Every kernel time taken after an operation.
  const std::vector<double>& kernelTimes() const { return seen_; }

 private:
  std::function<double()> kernel_;
  double last_;
  std::vector<double> seen_;
};

// ---------------------------------------------------------------------------
// Result document. Printed as the last stdout line of the run; run.py turns
// it into the result line and the human tables.
// ---------------------------------------------------------------------------

struct Report {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure reasons
  tc::Json e2e = tc::Json::object();    ///< end-to-end metrics by name
  tc::Json layers = tc::Json::object(); ///< per-layer metrics by name
  tc::Json counts = tc::Json::object(); ///< exact counts (drift-checked)
  /// The workload's own end-to-end figures under their documented names
  /// (timing summaries and scalars), for the human table.
  tc::Json named = tc::Json::object();

  void metric(tc::Json& into, const std::string& name, double value,
              const std::string& unit);
  void e2eMetric(const std::string& n, double v, const std::string& u) {
    metric(e2e, n, v, u);
  }
  void layer(const std::string& n, double v, const std::string& u) {
    metric(layers, n, v, u);
  }
  /// An exact count: reported as a layer metric and drift-checked.
  void count(const std::string& n, double v) {
    metric(counts, n, v, "count");
    metric(layers, n, v, "count");
  }
  void summary(const std::string& n, const std::vector<double>& samples,
               const std::string& unit) {
    named.set(n, timingSummary(samples, unit));
  }
  void scalar(const std::string& n, double v, const std::string& u) {
    metric(named, n, v, u);
  }
  /// Record one checked operation; `ok == false` counts it failed.
  void check(bool ok, const std::string& what);
  /// Record `n` operations of which `bad` failed (for `why`).
  void tally(std::int64_t n, std::int64_t bad, const std::string& why);
  std::string render() const;
};

/// Thrown for a set-up step that cannot complete; main() reports it by name
/// and exits nonzero.
struct SetupError {
  std::string what;
};

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workDir;     ///< scratch space inside the checkout
  std::string workerPath;  ///< goalposts_worker of the same build
  Clock::time_point start; ///< process start: set-up time runs from here
};

// ---------------------------------------------------------------------------
// Seeded inputs.
// ---------------------------------------------------------------------------

/// splitmix64: the benchmark's only source of randomness, so a seed fixes
/// every input.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  double uniform();  ///< [0, 1)
  int below(int n);  ///< [0, n)

 private:
  std::uint64_t s_;
};

/// `n` ECO ops over all four EcoOp kinds, valid on `nl` and on every
/// netlist reached from it by these ops: swaps stay inside the instance's
/// footprint, skews target flops, net edits target gate-driven data nets,
/// clock-tree buffers are left alone.
std::vector<tc::serve::EcoOp> seededEcoOps(const tc::Netlist& nl,
                                           std::uint64_t seed, int n);
/// Apply one op through the netlist's notifying mutators (what the epoch
/// replica does on replay).
void applyEcoOp(tc::Netlist& nl, const tc::serve::EcoOp& op);

/// Library acquisition through the public memoized entry point, timed
/// under span liberty/characterizedLibrary.
std::shared_ptr<const tc::Library> acquireLibrary(const tc::LibraryPvt& pvt,
                                                  bool quick);
/// A repeated set-up's library: the disk-cache entry characterizedLibrary()
/// reads on a cache hit, re-read because the process memo would answer a
/// second call for free. Timed under span liberty/readLibraryFile.
std::shared_ptr<const tc::Library> reloadLibrary(const tc::LibraryPvt& pvt,
                                                 bool quick);

// ---------------------------------------------------------------------------
// Layer probes: the same public calls timed on every workload's own design,
// so each per-layer figure exists (and moves) on every workload.
// ---------------------------------------------------------------------------

struct ProbeInput {
  const tc::Netlist* netlist = nullptr;
  std::vector<tc::Scenario> scenarios;  ///< first one drives the probes
  std::vector<tc::LibraryPvt> pvts;     ///< libraries to re-load from disk
  std::vector<bool> quick;              ///< per pvt
  /// ECO ops replayed through updateTiming, one at a time, with one engine
  /// per scenario, on a private copy of the netlist.
  std::vector<tc::serve::EcoOp> ops;
  /// JSON lines for the parse/dump probe.
  std::vector<std::string> jsonLines;
};

void runLayerProbes(const ProbeInput& in, tc::ThreadPool& pool, Report& rep);

/// Counter value from the global registry (0 when unregistered).
double counterValue(const std::string& name);

}  // namespace pb
