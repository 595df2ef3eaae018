/// \file main.cpp
/// \brief perfbench: one workload of the repo benchmark per process.
///
///   perfbench --workload signoff|eco_serve|closure --seed N --seconds S
///             --trace 0|1 --work-dir DIR --worker PATH [--spans FILE]
///   perfbench --warm-cache
///
/// The last stdout line is the run's result document (see Report). A
/// set-up step that cannot complete prints its cause to stderr and exits
/// 2 without a result; a failed oracle check is counted in the result and
/// makes run.py exit nonzero.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "common.h"
#include "liberty/builder.h"
#include "liberty/serialize.h"
#include "workloads.h"

namespace {

/// Characterize (or load) every library the warm-cache workloads use, so
/// the build under test fills the shared cache before any timed run.
void warmLibraryCache() {
  struct Entry {
    tc::LibraryPvt pvt;
    bool quick;
  };
  const Entry entries[] = {
      {{tc::ProcessCorner::kTT, 0.9, 25.0}, true},
      {{tc::ProcessCorner::kSSG, 0.81, 125.0}, true},
      {tc::LibraryPvt{}, false},
  };
  for (const Entry& e : entries) {
    pb::acquireLibrary(e.pvt, e.quick);
    tc::CharConfig cfg;
    cfg.quick = e.quick;
    const std::string path =
        tc::libraryCachePath(e.pvt, tc::charConfigDigest(cfg));
    if (!std::filesystem::exists(path))
      throw pb::SetupError{"library cache entry was not written: " + path};
  }
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload signoff|eco_serve|closure "
               "--seed N --seconds S --trace 0|1 --work-dir DIR --worker "
               "PATH [--spans FILE]\n"
               "       perfbench --warm-cache\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  pb::RunArgs args;
  args.start = pb::Clock::now();
  std::string spansPath;
  bool warm = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      args.workload = value();
    } else if (a == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::atof(value().c_str());
    } else if (a == "--trace") {
      args.trace = value() == "1";
    } else if (a == "--work-dir") {
      args.workDir = value();
    } else if (a == "--worker") {
      args.workerPath = value();
    } else if (a == "--spans") {
      spansPath = value();
    } else if (a == "--warm-cache") {
      warm = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }

  try {
    if (warm) {
      warmLibraryCache();
      return 0;
    }
    if (args.seconds <= 0.0) usage("--seconds must be positive");
    if (args.workDir.empty() || !std::filesystem::is_directory(args.workDir))
      usage("--work-dir must name an existing directory");
    pb::Tracer::get().setEnabled(args.trace);
    tc::registerCharMetrics();

    pb::Report rep;
    rep.workload = args.workload;
    rep.seed = args.seed;
    rep.trace = args.trace;
    const double sim0 = pb::counterValue("liberty.char.sim_queries");
    if (args.workload == "signoff")
      pb::runSignoff(args, rep);
    else if (args.workload == "eco_serve")
      pb::runEcoServe(args, rep);
    else if (args.workload == "closure")
      pb::runClosure(args, rep);
    else
      usage(("unknown workload " + args.workload).c_str());
    rep.count("device.sim_queries",
              pb::counterValue("liberty.char.sim_queries") - sim0);

    if (!spansPath.empty()) {
      std::ofstream out(spansPath);
      out << pb::Tracer::get().dump();
      if (!out) {
        std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                     spansPath.c_str());
        return 2;
      }
    }
    std::printf("%s\n", rep.render().c_str());
    return 0;
  } catch (const pb::SetupError& e) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: set-up failed with exception: %s\n",
                 e.what());
  }
  return 2;
}
