/// \file signoff.cpp
/// \brief Workload `signoff`: the corner explosion paid from nothing.
/// Characterize the 4-corner base set into an empty cache, generate a ~20k
/// block, then alternate a pooled MCMM pass over the base corners (PBA on
/// the 50 worst setup endpoints) with a pruned 216-scenario ladder pass
/// through the process farm.

#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "common.h"
#include "network/netgen.h"
#include "signoff/corners.h"
#include "signoff/farm.h"
#include "signoff/prune.h"
#include "signoff/snapshot.h"
#include "workloads.h"

namespace pb {

using namespace tc;

namespace {

constexpr int kBlockInstances = 20000;
constexpr int kPbaEndpoints = 50;
constexpr int kExactBudget = 40;

bool slotsIdentical(const ScenarioResult& x, const ScenarioResult& y) {
  bool ok = x.scenario == y.scenario && x.setupWns == y.setupWns &&
            x.holdWns == y.holdWns && x.setupTns == y.setupTns &&
            x.holdTns == y.holdTns &&
            x.setupViolations == y.setupViolations &&
            x.holdViolations == y.holdViolations &&
            x.drvViolations == y.drvViolations &&
            x.nanQuarantined == y.nanQuarantined &&
            x.pbaSetupWns == y.pbaSetupWns && x.pruned == y.pruned &&
            x.endpoints.size() == y.endpoints.size() &&
            x.pba.size() == y.pba.size() &&
            x.diagnostics.size() == y.diagnostics.size();
  for (std::size_t e = 0; ok && e < x.endpoints.size(); ++e)
    ok = x.endpoints[e].vertex == y.endpoints[e].vertex &&
         x.endpoints[e].setupSlack == y.endpoints[e].setupSlack &&
         x.endpoints[e].holdSlack == y.endpoints[e].holdSlack;
  for (std::size_t i = 0; ok && i < x.pba.size(); ++i)
    ok = x.pba[i].endpoint == y.pba[i].endpoint &&
         x.pba[i].pbaSlack == y.pba[i].pbaSlack;
  for (std::size_t d = 0; ok && d < x.diagnostics.size(); ++d)
    ok = x.diagnostics[d].code == y.diagnostics[d].code &&
         x.diagnostics[d].message == y.diagnostics[d].message;
  return ok;
}

bool resultsIdentical(const McmmResult& a, const McmmResult& b) {
  if (a.scenarios.size() != b.scenarios.size()) return false;
  if (a.merged.size() != b.merged.size()) return false;
  for (std::size_t s = 0; s < a.scenarios.size(); ++s)
    if (!slotsIdentical(a.scenarios[s], b.scenarios[s])) return false;
  return true;
}

bool prunedIdentical(const PrunedMcmmResult& a, const PrunedMcmmResult& b) {
  if (a.exactRuns != b.exactRuns || a.rounds != b.rounds ||
      a.certificates.size() != b.certificates.size() ||
      !resultsIdentical(a.result, b.result))
    return false;
  for (std::size_t i = 0; i < a.certificates.size(); ++i) {
    const PruneCertificate& x = a.certificates[i];
    const PruneCertificate& y = b.certificates[i];
    if (x.scenario != y.scenario || x.boundSetupWns != y.boundSetupWns ||
        x.boundHoldWns != y.boundHoldWns ||
        x.evidenceSetup != y.evidenceSetup ||
        x.evidenceHold != y.evidenceHold)
      return false;
  }
  return true;
}

/// bench_corner_pruning's 4-corner base set (three quick libraries).
std::vector<Scenario> baseCorners(std::vector<LibraryPvt>* pvts) {
  const LibraryPvt tt{ProcessCorner::kTT, 0.9, 25.0};
  const LibraryPvt ssg{ProcessCorner::kSSG, 0.81, 125.0};
  const LibraryPvt ffg{ProcessCorner::kFFG, 0.99, -40.0};
  *pvts = {tt, ssg, ffg};
  const auto libTT = acquireLibrary(tt, true);
  const auto libSSG = acquireLibrary(ssg, true);
  const auto libFFG = acquireLibrary(ffg, true);
  std::vector<Scenario> out(4);
  out[0].name = "func_tt";
  out[0].lib = libTT;
  out[1].name = "func_ssg_cw";
  out[1].lib = libSSG;
  out[1].beol = BeolCorner::kCworst;
  out[1].derate.mode = DerateMode::kAocv;
  out[2].name = "func_ffg_cb";
  out[2].lib = libFFG;
  out[2].beol = BeolCorner::kCbest;
  out[3].name = "func_tt_lvf";
  out[3].lib = libTT;
  out[3].derate.mode = DerateMode::kLvf;
  return out;
}

}  // namespace

void runSignoff(const RunArgs& args, Report& rep) {
  namespace fs = std::filesystem;
  // Cold start: the run's own cache directory must be empty.
  const char* cacheDir = std::getenv("TC_LIB_CACHE_DIR");
  if (!cacheDir || !fs::is_directory(cacheDir) ||
      !fs::is_empty(cacheDir))
    throw SetupError{"signoff needs TC_LIB_CACHE_DIR set to an empty "
                     "directory (cold characterization)"};

  std::vector<LibraryPvt> pvts;
  Span charSpan("setup", "characterize");
  const std::vector<Scenario> base = baseCorners(&pvts);
  rep.layer("liberty.build_s", charSpan.stop() / 1e3, "s");

  Span gen("network", "generateBlock");
  const Netlist nl =
      generateBlock(base[0].lib, profileScaled(kBlockInstances, args.seed));
  rep.layer("network.netgen_ms", gen.stop(), "ms");

  OcvLadderSpec spec;
  spec.sigmaCounts = {3.0, 4.0};
  const std::vector<Scenario> ladder = deriveOcvLadder(base, spec);
  if (ladder.size() != 216)
    throw SetupError{"OCV ladder has " + std::to_string(ladder.size()) +
                     " scenarios, expected 216"};

  ThreadPool pool(4);
  McmmRunner runner(nl, base);
  McmmOptions serial;
  serial.pbaEndpoints = kPbaEndpoints;
  McmmOptions pooled = serial;
  pooled.pool = &pool;

  McmmResult reference;
  {
    Span s("signoff", "McmmRunner::run(serial)");
    reference = runner.run(serial);
  }
  // Untimed pooled passes until the pass time settles (within 5% of the
  // previous one, at most eight).
  double prev = 0.0;
  for (int k = 0; k < 8; ++k) {
    Span s("signoff", "McmmRunner::run(warm-up)");
    const McmmResult& r = runner.run(pooled);
    const double ms = s.stop();
    if (!resultsIdentical(r, reference))
      throw SetupError{"warm-up pooled pass differs from the serial "
                       "reference"};
    if (k > 0 && std::abs(ms - prev) <= 0.05 * ms) break;
    prev = ms;
  }

  PruneOptions popt;
  popt.maxExactRuns = kExactBudget;
  FarmOptions fopt;
  fopt.workers = 4;
  fopt.workerPath = args.workerPath;
  fopt.scratchDir = args.workDir;
  if (access(fopt.workerPath.c_str(), X_OK) != 0)
    throw SetupError{"farm worker not executable: " + fopt.workerPath};

  const double setupS = msSince(args.start) / 1e3;

  // --- timed: alternate pooled MCMM passes and pruned ladder passes ------
  // Both keep four cores busy (pool workers, farm processes), so the
  // calibration kernel between them runs on every pool worker at once.
  Calibrated cal([&pool] { return poolKernelMs(pool); });
  std::vector<double> mcmmMs, ladderMs, scenarioMs, mcmmScaled, ladderScaled;
  double busyMs = 0.0;
  std::vector<double> farmStatsAttempts, farmRetries;
  int quarantined = 0;
  PrunedMcmmResult firstLadder;
  bool haveFirst = false;
  const double retimeFull0 = counterValue("sta.retime.full");
  const double retimeIncr0 = counterValue("sta.retime.incremental");
  const double rcHit0 = counterValue("delaycalc.rc_cache_hits");
  const double rcMiss0 = counterValue("delaycalc.rc_cache_misses");
  const Clock::time_point t0 = Clock::now();
  std::int64_t op = 0;
  while (msSince(t0) < args.seconds * 1e3) {
    {
      double busy0 = 0.0;
      for (int w = 0; w < pool.threadCount(); ++w)
        busy0 += pool.workerBusyMs(w);
      Span e("e2e", "mcmm_pass", op);
      Span s("signoff", "McmmRunner::run", op);
      const McmmResult& r = runner.run(pooled);
      const double ms = s.stop();
      e.stop();
      ++op;
      mcmmMs.push_back(ms);
      double busy1 = 0.0;
      for (int w = 0; w < pool.threadCount(); ++w)
        busy1 += pool.workerBusyMs(w);
      busyMs += busy1 - busy0;
      mcmmScaled.push_back(cal.after(ms));
      for (double x : runner.scenarioElapsedMs()) scenarioMs.push_back(x);
      rep.check(resultsIdentical(r, reference),
                "pooled MCMM pass differs from the serial reference");
      if (mcmmMs.size() == 1) {
        rep.count("sta.retime_full",
                  counterValue("sta.retime.full") - retimeFull0);
        rep.count("sta.retime_incremental",
                  counterValue("sta.retime.incremental") - retimeIncr0);
        const double hits = counterValue("delaycalc.rc_cache_hits") - rcHit0;
        const double miss =
            counterValue("delaycalc.rc_cache_misses") - rcMiss0;
        rep.layer("interconnect.rc_hit_ratio",
                  hits + miss > 0 ? hits / (hits + miss) : 0.0, "fraction");
        rep.layer("interconnect.rc_lookups", hits + miss, "count");
      }
    }
    {
      FarmStats stats;
      Span e("e2e", "ladder_pass", op);
      Span s("signoff", "runMcmmFarmPruned", op);
      PrunedMcmmResult r = runMcmmFarmPruned(nl, ladder, popt, fopt, &stats);
      const double ms = s.stop();
      e.stop();
      ++op;
      ladderMs.push_back(ms);
      ladderScaled.push_back(cal.after(ms));
      quarantined += stats.quarantined;
      farmStatsAttempts.push_back(stats.attemptsLaunched);
      farmRetries.push_back(stats.retries);
      const bool exactOk = r.exactRuns <= kExactBudget &&
                           r.exactRuns + static_cast<int>(
                                             r.certificates.size()) == 216;
      if (!haveFirst) {
        firstLadder = std::move(r);
        haveFirst = true;
        rep.check(exactOk && stats.quarantined == 0,
                  "ladder pass broke the exact budget or quarantined " +
                      std::to_string(stats.quarantined) + " corners");
      } else {
        rep.check(exactOk && stats.quarantined == 0 &&
                      prunedIdentical(r, firstLadder),
                  "ladder pass differs from the first ladder pass or "
                  "quarantined " + std::to_string(stats.quarantined) +
                      " corners");
      }
    }
  }

  rep.e2eMetric("setup_s", setupS, "s");
  rep.e2eMetric("peak_rss_mb", peakRssMb(), "MB");
  rep.e2eMetric("main_op_p50_ms", median(mcmmScaled), "ms");
  rep.e2eMetric("second_op_p50_ms", median(ladderScaled), "ms");
  std::vector<double> mcmmS, ladderS;
  for (double x : mcmmMs) mcmmS.push_back(x / 1e3);
  for (double x : ladderMs) ladderS.push_back(x / 1e3);
  rep.summary("mcmm_pass_s", mcmmS, "s");
  rep.summary("ladder_pass_s", ladderS, "s");
  rep.summary("mcmm_pass_scaled_ms", mcmmScaled, "ms");
  rep.summary("ladder_pass_scaled_ms", ladderScaled, "ms");
  rep.summary("calibration_kernel_ms", cal.kernelTimes(), "ms");

  rep.layer("signoff.scenario_ms_p50", median(scenarioMs), "ms");
  rep.layer("signoff.scenario_ms_max", percentile(scenarioMs, 100.0), "ms");
  double mcmmTotal = 0.0;
  for (double x : mcmmMs) mcmmTotal += x;
  rep.layer("signoff.pool_busy_frac",
            busyMs / (pool.threadCount() * mcmmTotal), "fraction");
  rep.count("signoff.exact_runs", firstLadder.exactRuns);
  rep.layer("signoff.exact_share", firstLadder.exactRuns / 216.0,
            "fraction");
  rep.layer("signoff.rounds", firstLadder.rounds, "count");
  rep.layer("signoff.farm_ms_per_run",
            median(ladderMs) * fopt.workers / firstLadder.exactRuns, "ms");
  rep.layer("signoff.farm_attempts", median(farmStatsAttempts), "count");
  rep.layer("signoff.farm_retries", median(farmRetries), "count");
  rep.layer("signoff.farm_quarantined", quarantined, "count");

  if (args.trace) {
    {
      Span s("signoff", "runMcmmPruned");
      const PrunedMcmmResult r = runMcmmPruned(nl, ladder, popt, pooled);
      const double ms = s.stop();
      rep.layer("signoff.inproc_ms_per_run",
                ms * pool.threadCount() / r.exactRuns, "ms");
    }
    {
      Span s("signoff", "makeSnapshot+writeSnapshot");
      const DesignSnapshot snap = makeSnapshot(nl, ladder, false);
      std::ostringstream os;
      const Status st = writeSnapshot(snap, os);
      rep.layer("signoff.snapshot_ms", s.stop(), "ms");
      rep.layer("signoff.snapshot_bytes",
                static_cast<double>(os.str().size()), "bytes");
      if (!st.ok()) throw SetupError{"writeSnapshot: " + st.message()};
    }
    ProbeInput in;
    in.netlist = &nl;
    in.scenarios = base;
    in.pvts = pvts;
    in.quick = {true, true, true};
    in.ops = seededEcoOps(nl, args.seed, 64);
    for (const ScenarioResult& r : reference.scenarios) {
      Json j = Json::object();
      j.set("scenario", r.scenario)
          .set("setup_wns", r.setupWns)
          .set("hold_wns", r.holdWns)
          .set("setup_tns", r.setupTns)
          .set("endpoints", static_cast<std::int64_t>(r.endpoints.size()));
      Json eps = Json::array();
      for (std::size_t e = 0; e < r.endpoints.size() && e < 256; ++e)
        eps.push(r.endpoints[e].setupSlack);
      j.set("slacks", std::move(eps));
      in.jsonLines.push_back(j.dump());
    }
    runLayerProbes(in, pool, rep);
  }
}

}  // namespace pb
