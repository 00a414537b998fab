// The benchmark workloads. Each runs for opt.seconds of measurement,
// checks the program's outputs, and fills `r` with the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run). NOTES.md says why
// each workload exists and which layer it stresses.
#pragma once

#include "trace.h"

namespace rtctbench {

void run_lockstep_sim(const RunOptions& opt, RunResult& r);
void run_rollback_sim(const RunOptions& opt, RunResult& r);
void run_relay_live(const RunOptions& opt, RunResult& r);

/// SplitMix64 step: derives independent per-session seeds from --seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace rtctbench
