#pragma once
/// \file workloads.h
/// \brief The three benchmark workloads. Each fills the Report with its
/// end-to-end metrics and (with RunArgs::trace) its per-layer metrics, and
/// throws SetupError when a set-up step cannot complete.

#include "common.h"

namespace pb {

void runSignoff(const RunArgs& args, Report& rep);
void runEcoServe(const RunArgs& args, Report& rep);
void runClosure(const RunArgs& args, Report& rep);

}  // namespace pb
