/// \file closure.cpp
/// \brief Workload `closure`: bench_fig01_closure_loop's design and
/// ClosureConfig, the 5-iteration Figure-1 loop repeated from one starting
/// netlist. Each loop's final breakdown is checked against a fresh
/// StaEngine run on its final netlist and against the first loop's.

#include <algorithm>
#include <barrier>
#include <cmath>
#include <optional>
#include <thread>

#include "common.h"
#include "network/netgen.h"
#include "opt/closure.h"
#include "place/placement.h"
#include "sta/report.h"
#include "util/metrics.h"
#include "workloads.h"

namespace pb {

using namespace tc;

namespace {

constexpr int kDesigns = 16;
constexpr int kThreads = 4;  ///< generator threads, one per core
/// Set-up repeats until both limits are met; setup_s is their median.
constexpr std::size_t kSetupRepeats = 3;
constexpr double kSetupMinMs = 1000.0;

bool sameBreakdown(const FailureBreakdown& a, const FailureBreakdown& b) {
  return a.setupWns == b.setupWns && a.setupTns == b.setupTns &&
         a.setupViolations == b.setupViolations && a.holdWns == b.holdWns &&
         a.holdTns == b.holdTns && a.holdViolations == b.holdViolations &&
         a.maxTransViolations == b.maxTransViolations &&
         a.maxCapViolations == b.maxCapViolations;
}

/// The loop's own final-breakdown rule: setup and DRV from the setup
/// scenario, hold from the hold scenario.
FailureBreakdown freshBreakdown(const Netlist& nl, const Scenario& setup,
                                const Scenario& hold) {
  Span s("sta", "StaEngine::run(oracle)");
  StaEngine se(nl, setup);
  se.run();
  FailureBreakdown b = breakdown(se);
  StaEngine he(nl, hold);
  he.run();
  const FailureBreakdown hb = breakdown(he);
  b.holdWns = hb.holdWns;
  b.holdTns = hb.holdTns;
  b.holdViolations = hb.holdViolations;
  return b;
}

double closureEdits() {
  double total = 0.0;
  for (const MetricSnapshot& m :
       MetricsRegistry::global().snapshot("closure.edits."))
    total += m.value;
  return total;
}

/// One block's timed loops; only the thread that owns the block writes it.
struct BlockRuns {
  std::int64_t loops = 0;
  std::vector<double> loopMs, checkMs, staMs;
  std::vector<double> loopScaled, checkScaled;  ///< host-speed scaled, ms
  FailureBreakdown first;    ///< the first loop's final breakdown
  std::vector<std::string> failures;
};

struct Design {
  Netlist nl;
  Floorplan fp;
  Scenario setup, hold;
};

/// One block's set-up: generation, placement, scenarios and the clock
/// period at 0.88x the as-placed critical delay.
Design setUp(std::uint64_t seed, const std::shared_ptr<const Library>& lib,
             Report& rep) {
  BlockProfile p = profileC7552();
  p.seed = seed;
  Span gen("network", "generateBlock");
  Netlist nl = generateBlock(lib, p);
  rep.layer("network.netgen_ms", gen.stop(), "ms");
  const Floorplan fp = Floorplan::forDesign(nl, 0.65);
  Span pl("place", "placeDesign");
  placeDesign(nl, fp);
  rep.layer("place.place_ms", pl.stop(), "ms");

  Scenario setup;
  setup.lib = lib;
  setup.name = "setup_typ";
  setup.inputDelay = 250.0;
  Scenario hold = setup;
  hold.name = "hold_fast";
  hold.clockUncertaintyHold = 40.0;
  nl.clocks().front().period = 4000.0;
  {
    Span s("sta", "StaEngine::run(probe)");
    StaEngine probe(nl, setup);
    probe.run();
    const Ps critical = 4000.0 - probe.wns(Check::kSetup);
    if (!std::isfinite(critical) || critical <= 0.0)
      throw SetupError{"as-placed critical delay is not finite"};
    nl.clocks().front().period = 0.88 * critical;
  }
  return Design{std::move(nl), fp, setup, hold};
}

}  // namespace

void runClosure(const RunArgs& args, Report& rep) {
  // kDesigns blocks per run: one small block's loop time swings with its
  // violation mix, the median over several does not.
  // The first set-up acquires the library through characterizedLibrary()
  // (a disk-cache hit); repeats re-read the same cache entry.
  auto setUpAll = [&](bool first) {
    const auto lib = first ? acquireLibrary(LibraryPvt{}, false)
                           : reloadLibrary(LibraryPvt{}, false);
    std::vector<Design> ds;
    for (int k = 0; k < kDesigns; ++k)
      ds.push_back(setUp(args.seed * kDesigns + static_cast<std::uint64_t>(k),
                         lib, rep));
    return ds;
  };
  std::vector<double> setupMs;
  std::vector<Design> designs = setUpAll(true);
  setupMs.push_back(msSince(args.start));
  for (double spent = 0.0;
       setupMs.size() < kSetupRepeats || spent < kSetupMinMs;) {
    const Clock::time_point t = Clock::now();
    designs = setUpAll(false);
    setupMs.push_back(msSince(t));
    spent += setupMs.back();
  }

  ClosureConfig cfg;
  cfg.iterations = 5;
  cfg.stopWhenClean = false;
  cfg.repair.maxEdits = 350;
  cfg.fixMinIaAfterSwaps = true;

  // --- timed ----------------------------------------------------------------
  // kThreads generator threads, each a closed loop over its own blocks
  // (thread t owns blocks t, t + kThreads, ...) in whole rounds: a thread
  // starts a round while time remains, so its blocks have run equally often.
  // Every thread times the calibration kernel between its timed operations
  // (see Calibrated). After its first round's loops every thread waits while
  // the registry counters are read, and checks those loops after, so the
  // exact counts cover one loop per block and nothing else.
  std::vector<BlockRuns> runs(designs.size());
  std::vector<std::vector<double>> kernelSeen(kThreads);
  struct Finished {
    std::size_t block;
    Netlist netlist;
    FailureBreakdown final;
  };
  auto loopOnce = [&](std::size_t k, std::int64_t op,
                      Calibrated& cal) -> std::optional<Finished> {
    const Design& d = designs[k];
    BlockRuns& b = runs[k];
    ++b.loops;
    try {
      Netlist work = d.nl;
      Span e("e2e", "closure_loop", op);
      Span s("opt", "ClosureLoop::run", op);
      ClosureLoop loop(work, d.setup, d.hold, d.fp);
      const ClosureResult res = loop.run(cfg);
      b.loopMs.push_back(s.stop());
      e.stop();
      b.loopScaled.push_back(cal.after(b.loopMs.back()));
      b.staMs.push_back(res.staMs);
      if (b.loopMs.size() == 1) b.first = res.final;
      return Finished{k, std::move(work), res.final};
    } catch (const std::exception& ex) {
      b.failures.push_back(std::string("closure loop threw: ") + ex.what());
      return std::nullopt;
    }
  };
  auto check = [&](const Finished& f, Calibrated& cal) {
    const Design& d = designs[f.block];
    BlockRuns& b = runs[f.block];
    const Clock::time_point c0 = Clock::now();
    const FailureBreakdown fresh = freshBreakdown(f.netlist, d.setup, d.hold);
    b.checkMs.push_back(msSince(c0));
    b.checkScaled.push_back(cal.after(b.checkMs.back()));
    if (!sameBreakdown(f.final, fresh) || !sameBreakdown(f.final, b.first))
      b.failures.push_back("closure loop's final breakdown differs from a "
                           "fresh run on its final netlist or from the "
                           "block's first loop");
  };

  const double full0 = counterValue("sta.retime.full");
  const double incr0 = counterValue("sta.retime.incremental");
  const double hit0 = counterValue("delaycalc.rc_cache_hits");
  const double miss0 = counterValue("delaycalc.rc_cache_misses");
  const double edits0 = closureEdits();
  std::barrier firstRound(kThreads + 1);
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < static_cast<std::size_t>(kThreads); ++t) {
    threads.emplace_back([&, t] {
      Calibrated cal(kernelMs);
      std::vector<Finished> firstLoops;
      for (std::int64_t round = 0;; ++round) {
        for (std::size_t k = t; k < designs.size(); k += kThreads) {
          auto f = loopOnce(k, round * kDesigns + static_cast<std::int64_t>(k),
                            cal);
          if (f && round == 0)
            firstLoops.push_back(std::move(*f));
          else if (f)
            check(*f, cal);
        }
        if (round == 0) {
          firstRound.arrive_and_wait();  // the counters are read here
          firstRound.arrive_and_wait();
          cal.restart();
          for (const Finished& f : firstLoops) check(f, cal);
          firstLoops.clear();
        }
        if (msSince(t0) >= args.seconds * 1e3) break;
      }
      kernelSeen[t] = cal.kernelTimes();
    });
  }
  firstRound.arrive_and_wait();
  rep.count("sta.retime_full", counterValue("sta.retime.full") - full0);
  rep.count("sta.retime_incremental",
            counterValue("sta.retime.incremental") - incr0);
  rep.count("opt.edits", closureEdits() - edits0);
  const double hits = counterValue("delaycalc.rc_cache_hits") - hit0;
  const double misses = counterValue("delaycalc.rc_cache_misses") - miss0;
  firstRound.arrive_and_wait();
  for (std::thread& th : threads) th.join();

  std::vector<double> loopMs, checkMs, staMs, repairMs, loopScaled,
      checkScaled, kernel;
  for (const std::vector<double>& k : kernelSeen)
    kernel.insert(kernel.end(), k.begin(), k.end());
  for (const BlockRuns& b : runs) {
    rep.tally(b.loops, static_cast<std::int64_t>(b.failures.size()),
              b.failures.empty() ? std::string() : b.failures.front());
    for (std::size_t i = 0; i < b.loopMs.size(); ++i) {
      loopMs.push_back(b.loopMs[i]);
      staMs.push_back(b.staMs[i]);
      repairMs.push_back(b.loopMs[i] - b.staMs[i]);
    }
    checkMs.insert(checkMs.end(), b.checkMs.begin(), b.checkMs.end());
    loopScaled.insert(loopScaled.end(), b.loopScaled.begin(),
                      b.loopScaled.end());
    checkScaled.insert(checkScaled.end(), b.checkScaled.begin(),
                       b.checkScaled.end());
  }

  rep.e2eMetric("setup_s", median(setupMs) / 1e3, "s");
  rep.e2eMetric("peak_rss_mb", peakRssMb(), "MB");
  rep.e2eMetric("main_op_p50_ms", median(loopScaled), "ms");
  rep.e2eMetric("second_op_p50_ms", median(checkScaled), "ms");
  std::vector<double> loopS;
  for (double x : loopMs) loopS.push_back(x / 1e3);
  rep.summary("closure_loop_s", loopS, "s");
  rep.summary("closure_loop_scaled_ms", loopScaled, "ms");
  rep.summary("oracle_check_ms", checkMs, "ms");
  rep.summary("calibration_kernel_ms", kernel, "ms");
  Json byBlock = Json::array();
  for (const BlockRuns& b : runs) byBlock.push(median(b.loopMs));
  rep.named.set("closure_loop_ms_by_block", std::move(byBlock));
  double wns = runs[0].first.setupWns, violations = 0.0;
  for (const BlockRuns& b : runs) {
    const FailureBreakdown& f = b.first;
    wns = std::min(wns, f.setupWns);
    violations += f.setupViolations + f.holdViolations +
                  f.maxTransViolations + f.maxCapViolations;
  }
  rep.scalar("closure_wns_ps", wns, "ps");
  rep.scalar("closure_violations", violations, "count");
  rep.counts.set("closure_wns_ps", wns);
  rep.counts.set("closure_violations", violations);
  rep.layer("interconnect.rc_hit_ratio",
            hits + misses > 0 ? hits / (hits + misses) : 0.0, "fraction");
  rep.layer("interconnect.rc_lookups", hits + misses, "count");
  rep.layer("opt.sta_ms", median(staMs), "ms");
  rep.layer("opt.repair_ms", median(repairMs), "ms");

  if (args.trace) {
    const Design& d = designs.front();
    ThreadPool pool(4);
    ProbeInput in;
    in.netlist = &d.nl;
    in.scenarios = {d.setup, d.hold};
    in.pvts = {LibraryPvt{}};
    in.quick = {false};
    in.ops = seededEcoOps(d.nl, args.seed, 64);
    Netlist work = d.nl;
    ClosureLoop loop(work, d.setup, d.hold, d.fp);
    const ClosureResult res = loop.run(cfg);
    for (const IterationRecord& it : res.iterations) {
      Json j = Json::object();
      j.set("iteration", it.iteration)
          .set("setup_wns", it.before.setupWns)
          .set("setup_tns", it.before.setupTns)
          .set("hold_wns", it.before.holdWns)
          .set("vt_swaps", it.vtSwaps)
          .set("resizes", it.resizes)
          .set("buffers", it.buffers)
          .set("sta_ms", it.staMs);
      in.jsonLines.push_back(j.dump());
    }
    runLayerProbes(in, pool, rep);
  }
}

}  // namespace pb
