/// \file eco_serve.cpp
/// \brief Workload `eco_serve`: a Server hosted in this process, driven over
/// loopback sockets. Three reader connections send an open-loop Poisson
/// query stream (first at a fixed reference rate, then through a search
/// over the offered rate) while one writer connection commits single-op
/// ECOs in a closed loop. The final epoch is checked against a fresh batch
/// run of the base design plus the whole op log.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <thread>

#include "common.h"
#include "network/netgen.h"
#include "serve/client.h"
#include "serve/epoch.h"
#include "serve/server.h"
#include "signoff/snapshot.h"
#include "sta/engine.h"
#include "workloads.h"

namespace pb {

using namespace tc;
using serve::EcoOp;
using serve::ServeClient;
using serve::Server;

namespace {

constexpr int kBlockInstances = 100000;
constexpr int kReaders = 3;
constexpr double kSloMs = 50.0;
/// req/s over all readers: about a quarter of the lowest query_rate_at_slo
/// measured in 30 runs over 25 seeds on a 4-core x86 host (375-1200 req/s,
/// median 800), so the reference phase stays well below saturation.
constexpr double kReferenceRate = 100.0;
/// Writer pause between commits, as bench_server_qps's writer.
constexpr double kThinkMs = 2.0;
constexpr double kStepSeconds = 0.5;      ///< one rate-search step
constexpr double kGenLagLimitMs = 20.0;   ///< generator p99 overshoot limit
constexpr double kBacklogGrowthMs = 10.0;
/// Reader 0 pins an epoch for kPinBurst of every kPinEvery queries. No
/// caller pins across a burst (tools/server_smoke.script pins for one
/// query); at the reference rate a burst lasts about 0.24 s, longer than
/// one commit, so the writer must publish past a pinned replica.
constexpr int kPinEvery = 64;
constexpr int kPinBurst = 8;
constexpr int kScriptQueries = 960;
constexpr int kScriptEcos = 96;
/// The script's ECOs are ops[kScriptOpBase ...]; the open-loop writer stays
/// below, so the script and its counts do not depend on how far it got.
constexpr std::size_t kScriptOpBase = 2048;

/// bench_server_qps's mix: 50% slack, 25% endpoints, 12.5% histogram,
/// 12.5% path.
Json queryFor(Rng& rng) {
  const int u = rng.below(8);
  Json req = Json::object();
  req.set("design", "d");
  if (u < 4) {
    req.set("cmd", "slack");
  } else if (u < 6) {
    req.set("cmd", "endpoints").set("scenario", rng.below(2)).set("k", 5);
  } else if (u == 6) {
    req.set("cmd", "histogram").set("scenario", rng.below(2)).set("bins", 16);
  } else {
    req.set("cmd", "path").set("scenario", rng.below(2))
        .set("endpoint", rng.below(32));
  }
  return req;
}

Json ecoRequest(const EcoOp& op) {
  Json ops = Json::array();
  ops.push(serve::toJson(op));
  Json req = Json::object();
  req.set("cmd", "eco").set("design", "d").set("ops", std::move(ops));
  return req;
}

Json simpleRequest(const char* cmd) {
  Json req = Json::object();
  req.set("cmd", cmd).set("design", "d");
  return req;
}

bool replyOk(const Result<Json>& r) {
  return r.ok() && r.value()["ok"].asBool(false);
}

bool ecoOk(const Result<std::vector<Json>>& r) {
  if (!r.ok() || r.value().empty()) return false;
  for (const Json& line : r.value())
    if (!line["ok"].asBool(false)) return false;
  return r.value().back()["status"].asString() == "applied";
}

bool identicalEngines(const StaEngine& a, const StaEngine& b) {
  if (a.wns(Check::kSetup) != b.wns(Check::kSetup) ||
      a.wns(Check::kHold) != b.wns(Check::kHold) ||
      a.tns(Check::kSetup) != b.tns(Check::kSetup) ||
      a.tns(Check::kHold) != b.tns(Check::kHold))
    return false;
  const auto& ea = a.endpoints();
  const auto& eb = b.endpoints();
  if (ea.size() != eb.size()) return false;
  for (std::size_t i = 0; i < ea.size(); ++i)
    if (ea[i].setupSlack != eb[i].setupSlack ||
        ea[i].holdSlack != eb[i].holdSlack)
      return false;
  return true;
}

struct Sample {
  double dueMs = 0.0;      ///< schedule offset within the step
  double latencyMs = 0.0;  ///< completion - due
  double lateMs = 0.0;     ///< send - due (queueing behind earlier requests)
  double lagMs = 0.0;      ///< send - max(due, previous completion)
};

struct StepResult {
  double rate = 0.0;
  std::vector<Sample> samples;
  int failures = 0;
  std::string firstFailure;
  double p99 = 0.0, lagP99 = 0.0;
  bool valid = false;    ///< the generator kept its own schedule
  bool backlog = false;  ///< lateness grew across the step
  bool pass = false;
};

/// Three persistent reader connections; each step runs one thread per
/// connection, each sending its own Poisson stream of rate/3.
class Readers {
 public:
  Readers(int port, std::uint64_t seed) : seed_(seed) {
    for (auto& c : conns_)
      if (!c.connect("127.0.0.1", port).ok())
        throw SetupError{"reader could not connect to the server on port " +
                         std::to_string(port)};
  }

  StepResult step(double rate, double seconds, std::int64_t opBase) {
    StepResult res;
    res.rate = rate;
    std::vector<std::vector<Sample>> per(kReaders);
    std::vector<int> fails(kReaders, 0);
    std::vector<std::string> firstFail(kReaders);
    const Clock::time_point start = Clock::now() +
                                    std::chrono::milliseconds(2);
    std::vector<std::thread> threads;
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&, r] {
        ServeClient& cl = conns_[static_cast<std::size_t>(r)];
        Rng rng(seed_ * 1000003ull + static_cast<std::uint64_t>(stepIndex_) *
                                         16ull +
                static_cast<std::uint64_t>(r));
        const double perMs = rate / kReaders / 1e3;
        double t = 0.0;
        Clock::time_point prevDone = start;
        int pinLeft = 0;
        auto fail = [&](const std::string& why) {
          if (fails[static_cast<std::size_t>(r)]++ == 0)
            firstFail[static_cast<std::size_t>(r)] = why;
        };
        for (int k = 0;; ++k) {
          t += -std::log(1.0 - rng.uniform()) / perMs;
          if (t > seconds * 1e3) break;
          const Clock::time_point due =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double, std::milli>(t));
          const Json req = queryFor(rng);
          if (Clock::now() < due) std::this_thread::sleep_until(due);
          const Clock::time_point send = Clock::now();
          const std::int64_t op = opBase + k * kReaders + r;
          Span e("e2e", "query", op);
          if (r == 0 && k % kPinEvery == 0) {
            if (!replyOk(cl.callOne(simpleRequest("pin")))) fail("pin");
            pinLeft = kPinBurst;
          }
          Span s("serve", "ServeClient::call(" + req["cmd"].asString() + ")",
                 op);
          const bool ok = replyOk(cl.callOne(req));
          s.stop();
          if (!ok) fail(req["cmd"].asString() + " reply not ok");
          if (pinLeft > 0 && --pinLeft == 0 &&
              !replyOk(cl.callOne(simpleRequest("unpin"))))
            fail("unpin");
          e.stop();
          const Clock::time_point done = Clock::now();
          Sample smp;
          smp.dueMs = t;
          smp.latencyMs = msBetween(due, done);
          smp.lateMs = msBetween(due, send);
          smp.lagMs = msBetween(std::max(due, prevDone), send);
          per[static_cast<std::size_t>(r)].push_back(smp);
          prevDone = done;
        }
        // A burst cut short by the end of the step must not leave its epoch
        // pinned into the next phase.
        if (pinLeft > 0 && !replyOk(cl.callOne(simpleRequest("unpin"))))
          fail("unpin");
      });
    }
    for (auto& th : threads) th.join();
    ++stepIndex_;
    for (int r = 0; r < kReaders; ++r) {
      const auto& v = per[static_cast<std::size_t>(r)];
      res.samples.insert(res.samples.end(), v.begin(), v.end());
      res.failures += fails[static_cast<std::size_t>(r)];
      if (res.firstFailure.empty())
        res.firstFailure = firstFail[static_cast<std::size_t>(r)];
    }
    std::sort(res.samples.begin(), res.samples.end(),
              [](const Sample& a, const Sample& b) { return a.dueMs < b.dueMs; });
    std::vector<double> lat, lag;
    for (const Sample& s : res.samples) {
      lat.push_back(s.latencyMs);
      lag.push_back(s.lagMs);
    }
    res.p99 = percentile(lat, 99.0);
    res.lagP99 = percentile(lag, 99.0);
    res.valid = !res.samples.empty() && res.lagP99 <= kGenLagLimitMs;
    const std::size_t q = res.samples.size() / 4;
    if (q > 0) {
      double first = 0.0, last = 0.0;
      for (std::size_t i = 0; i < q; ++i) {
        first += res.samples[i].lateMs;
        last += res.samples[res.samples.size() - 1 - i].lateMs;
      }
      res.backlog = (last - first) / static_cast<double>(q) > kBacklogGrowthMs;
    }
    res.pass = res.valid && !res.backlog && res.p99 <= kSloMs &&
               res.failures == 0;
    return res;
  }

 private:
  std::uint64_t seed_;
  int stepIndex_ = 0;
  ServeClient conns_[kReaders];
};

DesignSnapshot snapshotOf(const Netlist& nl,
                          const std::vector<Scenario>& scenarios) {
  Span s("signoff", "makeSnapshot");
  return makeSnapshot(nl, scenarios, /*includeSpef=*/false);
}

/// The serial request script: the queries of one seeded stream with one of
/// the script's ECOs after every tenth query.
std::vector<std::string> replayScript(std::uint64_t seed,
                                      const std::vector<EcoOp>& ops) {
  Rng rng(seed * 7919ull + 17ull);
  std::vector<std::string> lines;
  int eco = 0;
  for (int q = 0; q < kScriptQueries; ++q) {
    lines.push_back(queryFor(rng).dump());
    if (q % 10 == 9 && eco < kScriptEcos)
      lines.push_back(ecoRequest(ops[kScriptOpBase + eco++]).dump());
  }
  return lines;
}

std::string cmdOf(const std::string& line) {
  auto j = Json::parse(line);
  return j.ok() ? j.value()["cmd"].asString() : std::string("?");
}

/// Everything one set-up builds. Members are destroyed clients first, so
/// every connection closes before its server goes away.
struct Served {
  std::vector<Scenario> scenarios;
  std::vector<EcoOp> ops;
  std::unique_ptr<Server> server;
  int port = 0;
  std::unique_ptr<ServeClient> writer;
  std::unique_ptr<Readers> readers;
  std::size_t committed = 0;
};

Netlist servedBlock(const std::shared_ptr<const Library>& lib,
                    std::uint64_t seed) {
  return generateBlock(lib, profileScaled(kBlockInstances, seed));
}

serve::ServeOptions serveOptions() {
  serve::ServeOptions so;
  so.engineThreads = 4;  // port 0: an ephemeral port
  return so;
}

/// One set-up: libraries, block, epoch 0, connections and two warm-up
/// commits (the first builds a fresh replica).
std::unique_ptr<Served> setUp(const RunArgs& args,
                              std::vector<LibraryPvt>* pvts, Report& rep) {
  auto sv = std::make_unique<Served>();
  const LibraryPvt tt{ProcessCorner::kTT, 0.9, 25.0};
  const LibraryPvt ssg{ProcessCorner::kSSG, 0.81, 125.0};
  *pvts = {tt, ssg};
  sv->scenarios.resize(2);
  sv->scenarios[0].name = "func_tt";
  sv->scenarios[0].lib = acquireLibrary(tt, true);
  sv->scenarios[1].name = "func_ssg_cw";
  sv->scenarios[1].lib = acquireLibrary(ssg, true);
  sv->scenarios[1].beol = BeolCorner::kCworst;
  sv->scenarios[1].derate.mode = DerateMode::kAocv;

  DesignSnapshot snap;
  {
    // The server keeps its own copy; the benchmark's is gone before the
    // timed part, so peak RSS counts the serving stack only.
    Span gen("network", "generateBlock");
    const Netlist base = servedBlock(sv->scenarios[0].lib, args.seed);
    rep.layer("network.netgen_ms", gen.stop(), "ms");
    sv->ops = seededEcoOps(base, args.seed, 4096);
    snap = snapshotOf(base, sv->scenarios);
  }

  sv->server = std::make_unique<Server>(serveOptions());
  {
    Span s("serve", "Server::addDesign");
    const Status st = sv->server->addDesign("d", std::move(snap));
    rep.layer("serve.epoch0_ms", s.stop(), "ms");
    if (!st.ok()) throw SetupError{"addDesign: " + st.message()};
  }
  auto port = sv->server->start();
  if (!port.ok())
    throw SetupError{"server start: " + port.status().message()};
  sv->port = port.value();
  sv->writer = std::make_unique<ServeClient>();
  if (!sv->writer->connect("127.0.0.1", sv->port).ok())
    throw SetupError{"writer could not connect"};
  for (; sv->committed < 2; ++sv->committed)
    if (!ecoOk(sv->writer->call(ecoRequest(sv->ops[sv->committed]))))
      throw SetupError{"warm-up ECO commit failed"};
  sv->readers = std::make_unique<Readers>(sv->port, args.seed);
  return sv;
}

}  // namespace

void runEcoServe(const RunArgs& args, Report& rep) {
  // One set-up per run: a second 100k server in the same process leaves
  // allocator arenas behind and moved peak RSS by a whole replica between
  // runs, so setup_s here is a single measurement.
  std::vector<LibraryPvt> pvts;
  std::unique_ptr<Served> sv = setUp(args, &pvts, rep);
  const double setupS = msSince(args.start) / 1e3;
  const std::vector<Scenario>& scenarios = sv->scenarios;
  const std::vector<EcoOp>& ops = sv->ops;
  Readers& readers = *sv->readers;
  std::size_t& committed = sv->committed;

  // --- timed ----------------------------------------------------------------
  // Three phases at one reference rate, then a search:
  //  1. reads only (35%): query latency, free of commit interference, whose
  //     CPU bursts would otherwise put the median on the edge between
  //     disturbed and undisturbed queries;
  //  2. reads while the writer commits (35%): ECO round trips and the query
  //     tail under writes, on shared replicas;
  //  3. the rate search (30%), writer still committing.
  const double phaseSeconds = 0.35 * args.seconds;
  const StepResult ref = readers.step(kReferenceRate, phaseSeconds, 0);

  const double reused0 = counterValue("serve.replica_reused");
  const double rebuilt0 = counterValue("serve.replica_rebuilt");
  std::atomic<bool> stopWriter{false};
  std::atomic<bool> mixedPhase{true};
  std::vector<double> ecoMs, mixedEcoMs;
  int ecoFailures = 0;
  std::thread writerThread([&] {
    while (!stopWriter.load() && committed < kScriptOpBase) {
      Span e("e2e", "eco_commit", static_cast<std::int64_t>(committed));
      Span s("serve", "ServeClient::call(eco)",
             static_cast<std::int64_t>(committed));
      const bool ok = ecoOk(sv->writer->call(ecoRequest(ops[committed])));
      s.stop();
      ecoMs.push_back(e.stop());
      if (mixedPhase.load()) mixedEcoMs.push_back(ecoMs.back());
      if (!ok) {
        ++ecoFailures;
        break;  // the op log and the oracle would part ways
      }
      ++committed;
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(kThinkMs));
    }
  });
  const StepResult mixed =
      readers.step(kReferenceRate, phaseSeconds, 2000000);
  mixedPhase.store(false);

  std::vector<StepResult> steps;
  const Clock::time_point searchStart = Clock::now();
  const double searchMs = (args.seconds - 2.0 * phaseSeconds) * 1e3;
  double lo = mixed.pass ? kReferenceRate : 0.0;
  double hi = mixed.pass ? 0.0 : kReferenceRate;
  while (msSince(searchStart) + kStepSeconds * 1e3 <= searchMs) {
    if (hi > 0.0 && lo > 0.0 && (hi - lo) <= 0.02 * lo) break;
    const double rate = hi > 0.0 ? 0.5 * (lo + hi) : 2.0 * lo;
    steps.push_back(readers.step(rate, kStepSeconds,
                                 static_cast<std::int64_t>(steps.size() + 3) *
                                     1000000));
    if (steps.back().pass)
      lo = std::max(lo, rate);
    else
      hi = rate;
  }
  stopWriter.store(true);
  writerThread.join();

  steps.insert(steps.begin(), mixed);

  std::vector<double> refLat, lags;
  for (const Sample& s : ref.samples) {
    refLat.push_back(s.latencyMs);
    lags.push_back(s.lagMs);
  }
  std::int64_t queries = static_cast<std::int64_t>(ref.samples.size());
  int queryFailures = ref.failures;
  std::string firstQueryFailure = ref.firstFailure;
  for (const StepResult& st : steps) {
    queries += static_cast<std::int64_t>(st.samples.size());
    queryFailures += st.failures;
    if (firstQueryFailure.empty()) firstQueryFailure = st.firstFailure;
    if (st.valid)
      for (const Sample& s : st.samples) lags.push_back(s.lagMs);
  }
  rep.tally(queries, queryFailures, "query replies not ok: " +
                                        firstQueryFailure);
  rep.tally(static_cast<std::int64_t>(ecoMs.size()), ecoFailures,
            "ECO commit not applied");
  if (!ref.valid)
    rep.check(false, "generator fell behind its schedule at the reference "
                     "rate (p99 lag " + std::to_string(ref.lagP99) + " ms)");

  // --- serial script over one connection: the gated latencies ------------
  // One request in flight at a time, so queueing and the writer's CPU
  // bursts stay out of the figures the benchmark gates on.
  const std::vector<std::string> script = replayScript(args.seed, ops);
  std::map<std::string, std::vector<double>> roundtrip;
  for (std::size_t i = 0; i < script.size(); ++i) {
    const auto req = Json::parse(script[i]);
    const std::string cmd = req.value()["cmd"].asString();
    Span e("e2e", "serial_request", static_cast<std::int64_t>(2000000 + i));
    Span s("serve", "ServeClient::call(" + cmd + ")",
           static_cast<std::int64_t>(2000000 + i));
    auto resp = sv->writer->call(req.value());
    roundtrip[cmd].push_back(s.stop());
    e.stop();
    bool ok = resp.ok() && !resp.value().empty();
    if (ok)
      for (const Json& line : resp.value()) ok = ok && line["ok"].asBool(false);
    if (cmd == "eco") ok = ok && ecoOk(resp);
    rep.check(ok, "serial script reply not ok (" + cmd + ")");
  }
  std::vector<double> serialQueries;
  for (const auto& [cmd, v] : roundtrip)
    if (cmd != "eco")
      serialQueries.insert(serialQueries.end(), v.begin(), v.end());
  // Before the oracle and the replays below build designs of their own.
  rep.e2eMetric("peak_rss_mb", peakRssMb(), "MB");

  // --- oracle: final epoch vs a fresh batch run of base + full op log ------
  const Netlist base = servedBlock(scenarios[0].lib, args.seed);
  {
    auto tip = sv->server->design("d")->current();
    bool same = tip->epoch() == committed + kScriptEcos;
    Netlist fresh = base;
    for (std::size_t i = 0; i < committed; ++i) applyEcoOp(fresh, ops[i]);
    for (int i = 0; i < kScriptEcos; ++i)
      applyEcoOp(fresh, ops[kScriptOpBase + static_cast<std::size_t>(i)]);
    for (std::size_t s = 0; same && s < scenarios.size(); ++s) {
      StaEngine oracle(fresh, scenarios[s]);
      oracle.run();
      same = identicalEngines(oracle, tip->engine(s));
    }
    rep.check(same, "final epoch differs from a fresh batch run of the base "
                    "design plus the op log");
  }
  const double reused = counterValue("serve.replica_reused") - reused0;
  const double rebuilt = counterValue("serve.replica_rebuilt") - rebuilt0;
  sv->readers.reset();
  sv->writer.reset();
  sv->server->stop();
  sv->server.reset();

  rep.e2eMetric("setup_s", setupS, "s");
  rep.e2eMetric("main_op_p50_ms", median(serialQueries), "ms");
  rep.e2eMetric("second_op_p50_ms", median(roundtrip["eco"]), "ms");
  rep.scalar("query_roundtrip_p50_ms", median(serialQueries), "ms");
  rep.scalar("eco_roundtrip_p50_ms", median(roundtrip["eco"]), "ms");
  rep.summary("query_latency_ms", refLat, "ms");
  rep.scalar("query_p50_ms", median(refLat), "ms");
  rep.scalar("query_p99_ms", percentile(refLat, 99.0), "ms");
  if (mixed.valid) rep.scalar("query_p99_ms_with_ecos", mixed.p99, "ms");
  rep.scalar("query_rate_at_slo", lo, "req/s");
  rep.summary("eco_commit_ms", mixedEcoMs, "ms");
  rep.scalar("eco_commit_p50_ms", median(mixedEcoMs), "ms");
  rep.scalar("eco_commit_p90_ms", percentile(mixedEcoMs, 90.0), "ms");
  rep.scalar("reference_rate", kReferenceRate, "req/s");
  rep.scalar("ecos_committed", static_cast<double>(committed), "count");
  {
    Json table = Json::array();
    for (const StepResult& st : steps) {
      Json j = Json::object();
      j.set("rate", st.rate)
          .set("n", static_cast<std::int64_t>(st.samples.size()))
          .set("p99_ms", st.p99)
          .set("gen_lag_p99_ms", st.lagP99)
          .set("valid", st.valid)
          .set("backlog", st.backlog)
          .set("pass", st.pass);
      table.push(std::move(j));
    }
    rep.named.set("rate_steps", std::move(table));
  }
  rep.layer("serve.gen_lag_ms_p99", percentile(lags, 99.0), "ms");
  rep.layer("serve.replica_reuse_ratio",
            reused + rebuilt > 0 ? reused / (reused + rebuilt) : 0.0,
            "fraction");
  rep.layer("serve.replica_publishes", reused + rebuilt, "count");

  if (args.trace) {
    // The script, replayed serially three more ways from epoch 0.
    std::map<std::string, std::vector<double>> process;
    std::vector<std::string> responses;
    {
      Server s3{serveOptions()};
      if (!s3.addDesign("d", snapshotOf(base, scenarios)).ok())
        throw SetupError{"in-process server addDesign failed"};
      Server::Session session;
      for (std::size_t i = 0; i < script.size(); ++i) {
        const std::string cmd = cmdOf(script[i]);
        Span s("serve", "Server::processLine(" + cmd + ")",
               static_cast<std::int64_t>(3000000 + i));
        auto out = s3.processLine(session, script[i]);
        process[cmd].push_back(s.stop());
        bool ok = !out.empty();
        for (const std::string& line : out) {
          const auto j = Json::parse(line);
          ok = ok && j.ok() && j.value()["ok"].asBool(false);
        }
        rep.check(ok, "processLine replay reply not ok (" + cmd + ")");
        responses.insert(responses.end(), out.begin(), out.end());
      }
    }
    for (const auto& [cmd, v] : roundtrip) {
      const double rt = median(v);
      const double pr = median(process[cmd]);
      rep.layer("serve.roundtrip_ms_p50." + cmd, rt, "ms");
      rep.layer("serve.process_ms_p50." + cmd, pr, "ms");
      rep.layer("serve.transport_ms_p50." + cmd, rt - pr, "ms");
    }
    rep.layer("serve.queue_ms_p99",
              percentile(refLat, 99.0) - percentile(serialQueries, 99.0),
              "ms");
    {
      ThreadPool pool(4);
      const double full0 = counterValue("sta.retime.full");
      const double incr0 = counterValue("sta.retime.incremental");
      const double hit0 = counterValue("delaycalc.rc_cache_hits");
      const double miss0 = counterValue("delaycalc.rc_cache_misses");
      serve::EpochManager mgr(snapshotOf(base, scenarios), &pool);
      std::vector<double> commitMs;
      for (int i = 0; i < kScriptEcos; ++i) {
        Span s("serve", "EpochManager::commit", 4000000 + i);
        const auto e =
            mgr.commit({ops[kScriptOpBase + static_cast<std::size_t>(i)]});
        commitMs.push_back(s.stop());
        rep.check(e.ok(), "EpochManager::commit replay rejected an op");
      }
      rep.layer("serve.commit_ms_p50", median(commitMs), "ms");
      rep.layer("serve.commit_ms_p90", percentile(commitMs, 90.0), "ms");
      rep.count("sta.retime_full", counterValue("sta.retime.full") - full0);
      rep.count("sta.retime_incremental",
                counterValue("sta.retime.incremental") - incr0);
      const double hits = counterValue("delaycalc.rc_cache_hits") - hit0;
      const double miss = counterValue("delaycalc.rc_cache_misses") - miss0;
      rep.layer("interconnect.rc_hit_ratio",
                hits + miss > 0 ? hits / (hits + miss) : 0.0, "fraction");
      rep.layer("interconnect.rc_lookups", hits + miss, "count");
    }
    ThreadPool pool(4);
    ProbeInput in;
    in.netlist = &base;
    in.scenarios = scenarios;
    in.pvts = pvts;
    in.quick = {true, true};
    in.ops.assign(ops.begin() + kScriptOpBase,
                  ops.begin() + kScriptOpBase + kScriptEcos);
    in.jsonLines = script;
    in.jsonLines.insert(in.jsonLines.end(), responses.begin(),
                        responses.end());
    runLayerProbes(in, pool, rep);
  }
}

}  // namespace pb
