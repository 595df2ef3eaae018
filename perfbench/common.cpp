#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <future>
#include <memory_resource>
#include <unordered_map>

#include "device/tech.h"
#include "interconnect/extract.h"
#include "interconnect/wire.h"
#include "liberty/builder.h"
#include "liberty/serialize.h"
#include "sta/engine.h"
#include "sta/pba.h"
#include "util/metrics.h"

namespace pb {

using namespace tc;

double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double msSince(Clock::time_point t0) { return msBetween(t0, Clock::now()); }

// --- spans -------------------------------------------------------------------

namespace {
thread_local std::vector<int> tlsParents;
}  // namespace

Tracer::Tracer() : epoch_(Clock::now()) {}

Tracer& Tracer::get() {
  static Tracer t;
  return t;
}

int Tracer::open(const std::string& layer, const std::string& name,
                 std::int64_t op, Clock::time_point start) {
  SpanRecord r;
  r.layer = layer;
  r.name = name;
  r.op = op;
  r.startUs = msBetween(epoch_, start) * 1e3;
  r.parent = tlsParents.empty() ? -1 : tlsParents.back();
  std::lock_guard<std::mutex> lock(mu_);
  r.id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(r));
  tlsParents.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::close(int id, Clock::time_point end) {
  if (!tlsParents.empty() && tlsParents.back() == id) tlsParents.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].endUs = msBetween(epoch_, end) * 1e3;
}

std::string Tracer::dump() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const SpanRecord& r : spans_) {
    Json j = Json::object();
    j.set("layer", r.layer)
        .set("name", r.name)
        .set("start_us", r.startUs)
        .set("end_us", r.endUs)
        .set("id", r.id)
        .set("parent", r.parent)
        .set("op", r.op);
    out += j.dump();
    out += '\n';
  }
  return out;
}

Span::Span(const std::string& layer, const std::string& name, std::int64_t op)
    : start_(Clock::now()) {
  Tracer& t = Tracer::get();
  if (t.enabled()) id_ = t.open(layer, name, op, start_);
}

double Span::stop() {
  if (ms_ >= 0.0) return ms_;
  const Clock::time_point end = Clock::now();
  ms_ = msBetween(start_, end);
  if (id_ >= 0) Tracer::get().close(id_, end);
  return ms_;
}

// --- statistics ----------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

Json timingSummary(const std::vector<double>& samples,
                   const std::string& unit) {
  Json j = Json::object();
  j.set("unit", unit)
      .set("n", static_cast<std::int64_t>(samples.size()))
      .set("p50", median(samples));
  const double n = static_cast<double>(samples.size());
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (n * (1.0 - p / 100.0) >= 10.0) {
      j.set("tail_pct", p).set("tail", percentile(samples, p));
      break;
    }
  }
  return j;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: kilobytes
}

// --- host-speed calibration ------------------------------------------------------

namespace {

/// The map's nodes and buckets come from a thread-local buffer, reset every
/// round, so the kernel does not depend on the process's heap: a change to
/// how the libraries allocate must not move the kernel.
void kernelPass() {
  constexpr std::size_t kBufferBytes = 6u << 20;  // a round takes about 3 MB
  thread_local volatile std::uint64_t sink = 0;
  thread_local const std::unique_ptr<std::byte[]> buffer(
      new std::byte[kBufferBytes]);
  Rng rng(0x5eedca1b);
  std::uint64_t acc = 0;
  for (int round = 0; round < 3; ++round) {
    std::pmr::monotonic_buffer_resource arena(
        buffer.get(), kBufferBytes, std::pmr::null_memory_resource());
    std::pmr::unordered_map<std::uint64_t, std::uint64_t> m(&arena);
    for (std::uint64_t i = 0; i < 60000; ++i) m[rng.next() % 200000] += i;
    for (std::uint64_t k = 0; k < 180000; k += 3) {
      const auto it = m.find(k);
      if (it != m.end()) acc += it->second;
    }
  }
  sink = sink + acc;
}

}  // namespace

double kernelMs() {
  // The first pass on a thread is not timed: it takes the buffer's page
  // faults.
  thread_local bool warm = false;
  if (!warm) {
    kernelPass();
    warm = true;
  }
  const Clock::time_point t0 = Clock::now();
  kernelPass();
  return msSince(t0);
}

double poolKernelMs(ThreadPool& pool) {
  std::vector<std::future<double>> runs;
  for (int w = 0; w < pool.threadCount(); ++w)
    runs.push_back(pool.submit([] { return kernelMs(); }));
  double total = 0.0;
  for (std::future<double>& f : runs) total += f.get();
  return total / static_cast<double>(runs.size());
}

Calibrated::Calibrated(std::function<double()> kernel)
    : kernel_(std::move(kernel)), last_(kernel_()) {}

double Calibrated::after(double ms) {
  const double k = kernel_();
  seen_.push_back(k);
  const double scaled = ms * kKernelRefMs / (0.5 * (last_ + k));
  last_ = k;
  return scaled;
}

// --- report --------------------------------------------------------------------

void Report::metric(Json& into, const std::string& name, double value,
                    const std::string& unit) {
  Json m = Json::object();
  m.set("value", value).set("unit", unit);
  into.set(name, std::move(m));
}

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
  std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

void Report::tally(std::int64_t n, std::int64_t bad, const std::string& why) {
  attempted += n;
  if (bad == 0) return;
  failed += bad;
  if (failures.size() < 8) failures.push_back(why);
  std::fprintf(stderr, "perfbench: FAILED %lld x %s\n",
               static_cast<long long>(bad), why.c_str());
}

std::string Report::render() const {
  Json j = Json::object();
  Json fails = Json::array();
  for (const std::string& f : failures) fails.push(f);
  j.set("workload", workload)
      .set("seed", seed)
      .set("trace", trace)
      .set("attempted", attempted)
      .set("failed", failed)
      .set("failures", std::move(fails))
      .set("e2e", e2e)
      .set("layers", layers)
      .set("counts", counts)
      .set("named", named);
  return j.dump();
}

// --- seeded inputs -------------------------------------------------------------

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

int Rng::below(int n) {
  return static_cast<int>(next() % static_cast<std::uint64_t>(n));
}

std::vector<serve::EcoOp> seededEcoOps(const Netlist& nl, std::uint64_t seed,
                                       int n) {
  std::vector<InstId> gates, flops;
  for (InstId i = 0; i < nl.instanceCount(); ++i) {
    if (nl.instance(i).isClockTreeBuffer) continue;
    (nl.isSequential(i) ? flops : gates).push_back(i);
  }
  // Net edits stay on data nets driven by a gate: an NDR or Miller change
  // on a clock net re-times every flop it reaches, and one such op among a
  // seed's few dozen would swing the whole run.
  std::vector<NetId> nets;
  for (NetId n = 0; n < nl.netCount(); ++n) {
    const InstId d = nl.net(n).driver;
    if (d >= 0 && !nl.instance(d).isClockTreeBuffer && !nl.isSequential(d) &&
        !nl.net(n).sinks.empty())
      nets.push_back(n);
  }
  if (gates.empty() || flops.empty() || nets.empty())
    throw SetupError{"design has no gates, flops or data nets to edit"};
  const int ndr = static_cast<int>(ndrRules().size());
  Rng rng(seed ^ 0xEC0EC0EC0ull);
  std::vector<serve::EcoOp> ops;
  for (int k = 0; k < n; ++k) {
    serve::EcoOp op;
    switch (k % 4) {
      case 0: {
        op.kind = serve::EcoOp::Kind::kSwapCell;
        op.target = gates[static_cast<std::size_t>(
            rng.below(static_cast<int>(gates.size())))];
        const auto v = nl.library().variants(nl.cellOf(op.target).footprint);
        op.intArg = v[static_cast<std::size_t>(
            rng.below(static_cast<int>(v.size())))];
        break;
      }
      case 1:
        op.kind = serve::EcoOp::Kind::kSetUsefulSkew;
        op.target = flops[static_cast<std::size_t>(
            rng.below(static_cast<int>(flops.size())))];
        op.dblArg = -20.0 + 40.0 * rng.uniform();
        break;
      case 2:
        op.kind = serve::EcoOp::Kind::kSetNdrClass;
        op.target = nets[static_cast<std::size_t>(
            rng.below(static_cast<int>(nets.size())))];
        op.intArg = rng.below(ndr);
        break;
      default:
        op.kind = serve::EcoOp::Kind::kSetMillerOverride;
        op.target = nets[static_cast<std::size_t>(
            rng.below(static_cast<int>(nets.size())))];
        op.dblArg = 0.5 + 1.5 * rng.uniform();
        break;
    }
    ops.push_back(op);
  }
  return ops;
}

void applyEcoOp(Netlist& nl, const serve::EcoOp& op) {
  switch (op.kind) {
    case serve::EcoOp::Kind::kSwapCell:
      nl.swapCell(op.target, op.intArg);
      break;
    case serve::EcoOp::Kind::kSetUsefulSkew:
      nl.setUsefulSkew(op.target, op.dblArg);
      break;
    case serve::EcoOp::Kind::kSetNdrClass:
      nl.setNdrClass(op.target, op.intArg);
      break;
    case serve::EcoOp::Kind::kSetMillerOverride:
      nl.setMillerOverride(op.target, op.dblArg);
      break;
  }
}

std::shared_ptr<const Library> acquireLibrary(const LibraryPvt& pvt,
                                              bool quick) {
  Span s("liberty", "characterizedLibrary");
  auto lib = characterizedLibrary(pvt, quick);
  if (!lib) throw SetupError{"characterization failed for " + pvt.toString()};
  return lib;
}

std::shared_ptr<const Library> reloadLibrary(const LibraryPvt& pvt,
                                             bool quick) {
  CharConfig cfg;
  cfg.quick = quick;
  Span s("liberty", "readLibraryFile");
  auto lib = readLibraryFile(libraryCachePath(pvt, charConfigDigest(cfg)));
  if (!lib)
    throw SetupError{"library cache entry unreadable for " + pvt.toString()};
  return lib;
}

double counterValue(const std::string& name) {
  for (const MetricSnapshot& m : MetricsRegistry::global().snapshot(name))
    if (m.name == name) return m.value;
  return 0.0;
}

// --- layer probes --------------------------------------------------------------

void runLayerProbes(const ProbeInput& in, ThreadPool& pool, Report& rep) {
  const Netlist& nl = *in.netlist;
  const Scenario& sc = in.scenarios.front();

  double loadMs = 0.0;
  for (std::size_t i = 0; i < in.pvts.size(); ++i) {
    const Clock::time_point t = Clock::now();
    reloadLibrary(in.pvts[i], in.quick[i]);
    loadMs += msSince(t);
  }
  rep.layer("liberty.load_ms", loadMs, "ms");

  {
    Extractor ex(nl, BeolStack::forNode(techNode(sc.techNm)));
    ExtractionOptions eo;
    eo.corner = sc.beol;
    eo.temp = sc.temp();
    double cap = 0.0;
    Span s("interconnect", "Extractor::extract");
    for (NetId n = 0; n < nl.netCount(); ++n) cap += ex.extract(n, eo).totalCap;
    rep.layer("interconnect.extract_ms", s.stop(), "ms");
    if (!(cap > 0.0)) throw SetupError{"extraction returned no capacitance"};
  }

  {
    Span g("sta", "StaEngine::StaEngine");
    auto eng = std::make_unique<StaEngine>(nl, sc);
    rep.layer("sta.graph_ms", g.stop(), "ms");
    Span f("sta", "StaEngine::run");
    eng->run();
    rep.layer("sta.full_run_ms", f.stop(), "ms");
    Span w("sta", "StaEngine::repropagate");
    eng->repropagate();
    rep.layer("sta.sweep_ms", w.stop(), "ms");
    const double evaluated0 = counterValue("pba.paths_evaluated");
    const double pruned0 = counterValue("pba.paths_pruned");
    PbaAnalyzer pba(*eng);
    Span p("sta", "PbaAnalyzer::recalcWorst");
    const auto res = pba.recalcWorst(50, Check::kSetup);
    rep.layer("sta.pba_ms", p.stop(), "ms");
    rep.layer("sta.pba_paths_evaluated",
              counterValue("pba.paths_evaluated") - evaluated0, "count");
    rep.layer("sta.pba_paths_pruned",
              counterValue("pba.paths_pruned") - pruned0, "count");
    if (res.empty()) throw SetupError{"PBA found no setup endpoints"};
  }

  {
    auto eng = std::make_unique<StaEngine>(nl, sc);
    eng->setThreadPool(&pool);
    double busy0 = 0.0;
    for (int w = 0; w < pool.threadCount(); ++w) busy0 += pool.workerBusyMs(w);
    Span s("sta", "StaEngine::run(pooled)");
    eng->run();
    const double ms = s.stop();
    double busy1 = 0.0;
    for (int w = 0; w < pool.threadCount(); ++w) busy1 += pool.workerBusyMs(w);
    rep.layer("sta.pooled_run_ms", ms, "ms");
    rep.layer("util.pool_busy_frac",
              (busy1 - busy0) / (pool.threadCount() * ms), "fraction");
  }

  {
    Netlist copy = nl;
    std::vector<std::unique_ptr<StaEngine>> engines;
    for (const Scenario& s : in.scenarios) {
      engines.push_back(std::make_unique<StaEngine>(copy, s));
      engines.back()->run();
    }
    std::vector<double> updateMs, frontier;
    for (std::size_t k = 0; k < in.ops.size(); ++k) {
      applyEcoOp(copy, in.ops[k]);
      Span s("sta", "StaEngine::updateTiming", static_cast<std::int64_t>(k));
      double cone = 0.0;
      for (auto& e : engines) {
        e->updateTiming();
        cone += e->lastUpdateStats().forwardRecomputed;
      }
      updateMs.push_back(s.stop());
      frontier.push_back(cone);
    }
    rep.layer("sta.update_ms_p50", median(updateMs), "ms");
    rep.layer("sta.update_ms_p99", percentile(updateMs, 99.0), "ms");
    rep.layer("sta.frontier_p50", median(frontier), "count");
  }

  {
    Span s("util", "Json::parse+dump");
    std::size_t bytes = 0;
    for (const std::string& line : in.jsonLines) {
      auto j = Json::parse(line);
      if (!j.ok()) throw SetupError{"recorded JSON line does not parse"};
      bytes += j.value().dump().size();
    }
    const double ms = s.stop();
    rep.layer("util.json_us",
              in.jsonLines.empty()
                  ? 0.0
                  : ms * 1e3 / static_cast<double>(in.jsonLines.size()),
              "us");
    if (bytes == 0) throw SetupError{"no JSON lines to parse"};
  }
}

}  // namespace pb
