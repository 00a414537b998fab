// T-EMU — substrate sanity: the emulator must be far cheaper than the
// 16.7 ms frame budget, or the "frame_compute_time" model parameter (and
// the whole real-time analysis) would be fiction. google-benchmark
// microbenchmarks of the VM, state hashing, snapshots and the assembler.
//
// Two modes:
//   emu_perf                        google-benchmark microbenchmarks
//   emu_perf --json PATH            hand-rolled per-scenario comparison,
//                                   written as "rtct.bench.v1" JSON (the
//                                   ctest + rtct_trace --check CI gate).
//
// The JSON mode carries the perf acceptance gates (exit code != 0 on any
// failure):
//   * sparse-frame v3 digest >= 5x faster than the full v1 rehash (the
//     incremental dirty-page digest must actually be incremental);
//   * duel fast-interpreter step >= 6x faster than the reference
//     interpreter measured in the same process (sanitized builds too);
//   * torture fast-interpreter step >= 5x faster than the reference
//     interpreter in the same process (4x in sanitized builds): torture
//     runs no fill loop, so this ratio is per-instruction dispatch alone,
//     which duel's no longer shows;
//   * duel absolute step_ns at most a third of the committed pre-fast-path
//     baseline (skipped under sanitizers: absolute wall-clock there
//     measures the sanitizer, not the interpreter);
//   * the sparse scenario must not regress: its fast step stays within
//     1.5x of the reference step;
//   * agent86:skirmish rollback restore (load_state of a snapshot 4 frames
//     old + the v3 digest after it) at most a third of the full v1 rehash:
//     restore must dirty only the pages the rollback actually changes;
//   * agent86:skirmish fast-interpreter step >= 1.5x faster than its
//     reference interpreter measured in the same process.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/common/random.h"
#include "src/cores/agent86/games.h"
#include "src/cores/registry.h"
#include "src/emu/assembler.h"
#include "src/emu/cpu.h"
#include "src/emu/machine.h"
#include "src/games/roms.h"

namespace {

using namespace rtct;

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

/// Committed duel step_ns from the last baseline *before* the fast
/// interpreter landed (bench/baselines/BENCH_emu_perf.json at that
/// revision). The fast path must hold at least a 3x win over it.
constexpr double kPreFastPathDuelStepNs = 182802.43;

/// duel fast step must beat the reference interpreter, timed in the same
/// run, by at least this factor. On a 4-vCPU x86-64 VM the pointer-fetch
/// interpreter read 6.4-8.0x over 36 runs (8.2-9.0x under ASan+UBSan);
/// the shared-tail interpreter before it read 4.9-6.3x (4.3-4.7x).
constexpr double kDuelStepRatioFloor = 6.0;

/// torture fast step must beat the reference interpreter, timed in the
/// same run, by at least this factor (the second one in sanitized builds).
/// duel's frame is now almost all one fill loop, run as a block store, so
/// its ratio no longer measures dispatch; torture has no fill loop
/// (FillLoopTable in emu_differential_test pins that). On a 4-vCPU x86-64
/// VM torture read 6.0-7.4x over ten runs interleaved with ten of the
/// interpreter before fill loops (6.0-8.1x), 5.9-7.3x in four more and
/// 14.1x in one, and 4.6-5.2x over six ASan+UBSan runs.
constexpr double kTortureStepRatioFloor = 5.0;
constexpr double kSanitizedTortureStepRatioFloor = 4.0;

/// Absolute step budget for the agent86 core: ~8x headroom over the
/// reference interpreter's skirmish step on the baseline machine, and
/// still <1% of the 16.7 ms frame.
constexpr double kA86StepBudgetNs = 100000.0;

/// agent86:skirmish fast step must beat its reference interpreter, timed
/// in the same run, by at least this factor.
constexpr double kA86StepRatioFloor = 1.5;

void BM_StepFrame(benchmark::State& state, const char* game, bool reference) {
  auto m = games::make_machine(game, {100000, reference});
  Rng rng(1);
  for (auto _ : state) {
    m->step_frame(static_cast<InputWord>(rng.next_u64() & 0xFFFF));
    if (m->faulted()) state.SkipWithError("machine faulted");
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["cycles/frame"] = static_cast<double>(m->last_frame_cycles());
}
BENCHMARK_CAPTURE(BM_StepFrame, pong, "pong", false);
BENCHMARK_CAPTURE(BM_StepFrame, duel, "duel", false);
BENCHMARK_CAPTURE(BM_StepFrame, invaders, "invaders", false);
BENCHMARK_CAPTURE(BM_StepFrame, torture, "torture", false);
// The reference byte-fetch interpreter, for A/B against the fast path.
BENCHMARK_CAPTURE(BM_StepFrame, duel_reference, "duel", true);
BENCHMARK_CAPTURE(BM_StepFrame, torture_reference, "torture", true);

// The second core, through the registry: cross-VM transparency has to be
// cheap, not just correct.
void BM_CoreStepFrame(benchmark::State& state, const char* qualified) {
  auto m = cores::make_game(qualified);
  Rng rng(1);
  for (auto _ : state) {
    m->step_frame(static_cast<InputWord>(rng.next_u64() & 0xFFFF));
    if (m->faulted()) state.SkipWithError("machine faulted");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_CoreStepFrame, a86_skirmish, "agent86:skirmish");
BENCHMARK_CAPTURE(BM_CoreStepFrame, a86_pong, "agent86:pong");
BENCHMARK_CAPTURE(BM_CoreStepFrame, a86_havoc, "agent86:havoc");

void BM_CoreStateDigestPerFrame(benchmark::State& state, const char* qualified,
                                int version) {
  auto m = cores::make_game(qualified);
  for (int i = 0; i < 60; ++i) m->step_frame(0x0404);
  for (auto _ : state) {
    m->step_frame(0x0404);
    benchmark::DoNotOptimize(m->state_digest(version));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_CoreStateDigestPerFrame, a86_skirmish_v1, "agent86:skirmish", 1);
BENCHMARK_CAPTURE(BM_CoreStateDigestPerFrame, a86_skirmish_v3, "agent86:skirmish", 3);

void BM_StateHash(benchmark::State& state) {
  auto m = games::make_machine("duel");
  for (int i = 0; i < 60; ++i) m->step_frame(0x0404);
  for (auto _ : state) benchmark::DoNotOptimize(m->state_hash());
}
BENCHMARK(BM_StateHash);

// Per-frame digest cost, v1 (full image) vs v3 (dirty pages only). The
// step_frame inside the loop is what makes this honest: v3's cost is a
// function of the pages each frame dirties, so it must be measured on a
// freshly-stepped machine, not a quiescent one.
void BM_StateDigestPerFrame(benchmark::State& state, const char* game, int version) {
  auto m = games::make_machine(game);
  for (int i = 0; i < 60; ++i) m->step_frame(0x0404);
  for (auto _ : state) {
    m->step_frame(0x0404);
    benchmark::DoNotOptimize(m->state_digest(version));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_StateDigestPerFrame, duel_v1, "duel", 1);
BENCHMARK_CAPTURE(BM_StateDigestPerFrame, duel_v3, "duel", 3);

void BM_SaveState(benchmark::State& state) {
  auto m = games::make_machine("duel");
  for (int i = 0; i < 60; ++i) m->step_frame(0x0404);
  for (auto _ : state) benchmark::DoNotOptimize(m->save_state());
}
BENCHMARK(BM_SaveState);

// The allocation-free variant: identical bytes, reused capacity.
void BM_SaveStateInto(benchmark::State& state) {
  auto m = games::make_machine("duel");
  for (int i = 0; i < 60; ++i) m->step_frame(0x0404);
  std::vector<std::uint8_t> scratch;
  for (auto _ : state) {
    m->save_state_into(scratch);
    benchmark::DoNotOptimize(scratch.data());
  }
}
BENCHMARK(BM_SaveStateInto);

void BM_LoadState(benchmark::State& state) {
  auto m = games::make_machine("duel");
  for (int i = 0; i < 60; ++i) m->step_frame(0x0404);
  const auto snap = m->save_state();
  for (auto _ : state) benchmark::DoNotOptimize(m->load_state(snap));
}
BENCHMARK(BM_LoadState);

void BM_AssemblePong(benchmark::State& state) {
  // Re-assembling the ROM source measures the toolchain, not the cache.
  const std::string source = R"asm(
.equ FB, 0xA000
.entry main
main:
    LDI r0, FB
    LDI r1, 3072
loop:
    LDI r2, 1
    STB r0, r2
    ADDI r0, 1
    SUBI r1, 1
    JNZ loop
    HALT
    JMP main
)asm";
  for (auto _ : state) {
    auto result = emu::assemble(source, "bench");
    if (!result.ok()) state.SkipWithError("assembly failed");
    benchmark::DoNotOptimize(result.rom.image.data());
  }
}
BENCHMARK(BM_AssemblePong);

// ---- hand-rolled JSON mode --------------------------------------------------

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A deliberately sparse workload: one RAM byte written per frame, so the
/// v3 digest has exactly one dirty page to rehash. This is the far end of
/// the sparseness spectrum real games sit on (duel is the other point).
std::unique_ptr<emu::IDeterministicGame> make_sparse_machine(emu::MachineConfig cfg) {
  const std::string source = R"asm(
.entry main
main:
    LDI r0, 0x8100
    LDI r1, 0
tick:
    ADDI r1, 1
    STB r0, r1
    HALT
    JMP tick
)asm";
  auto result = emu::assemble(source, "sparse");
  if (!result.ok()) return nullptr;
  return std::make_unique<emu::ArcadeMachine>(result.rom, cfg);
}

/// Produces the scenario's replica; `cfg.reference_interpreter` selects
/// the interpreter backend.
using MachineFactory =
    std::function<std::unique_ptr<emu::IDeterministicGame>(emu::MachineConfig)>;

struct ScenarioPoint {
  std::string scenario;
  double step_ns = 0;       ///< fast interpreter (the production config)
  double ref_step_ns = 0;   ///< reference byte-fetch interpreter
  double step_speedup = 0;  ///< ref / fast, same process, same inputs
  double digest_v1_ns = 0;
  double digest_v3_ns = 0;
  double speedup = 0;  ///< digest v1 / v3
  double save_state_ns = 0;
  double save_state_into_ns = 0;
  /// load_state of the snapshot taken 4 frames earlier + the v3 digest: the
  /// fixed cost of one rollback before re-simulation starts.
  double restore_digest_ns = 0;
  /// Derived capacity figure: 60 Hz emulation sessions one core could in
  /// principle sustain on step cost alone (1e9 / step_ns / 60).
  double sessions_per_core = 0;
};

/// Mean ns of `digest(version)` measured across `frames` freshly-stepped
/// frames (one digest per step, like the drivers do).
double time_digest(emu::IDeterministicGame& m, int version, int frames) {
  std::int64_t total = 0;
  for (int i = 0; i < frames; ++i) {
    m.step_frame(0x0404);
    const std::int64_t t0 = now_ns();
    benchmark::DoNotOptimize(m.state_digest(version));
    total += now_ns() - t0;
  }
  return static_cast<double>(total) / frames;
}

/// Mean ns of a rollback restore: snapshot, step 4 frames (digesting each,
/// like the drivers), then time load_state(snapshot) + the v3 digest;
/// re-simulating the 4 frames moves the machine on for the next round.
double time_restore_digest(emu::IDeterministicGame& m, int rounds) {
  constexpr int kDepth = 4;
  std::vector<std::uint8_t> snap;
  std::int64_t total = 0;
  for (int i = 0; i < rounds; ++i) {
    m.save_state_into(snap);
    for (int j = 0; j < kDepth; ++j) {
      m.step_frame(0x0404);
      benchmark::DoNotOptimize(m.state_digest(emu::kStateDigestVersion));
    }
    const std::int64_t t0 = now_ns();
    benchmark::DoNotOptimize(m.load_state(snap));
    benchmark::DoNotOptimize(m.state_digest(emu::kStateDigestVersion));
    total += now_ns() - t0;
    for (int j = 0; j < kDepth; ++j) m.step_frame(0x0404);
  }
  return static_cast<double>(total) / rounds;
}

std::int64_t time_steps(emu::IDeterministicGame& m, int frames) {
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < frames; ++i) m.step_frame(0x0404);
  return now_ns() - t0;
}

ScenarioPoint measure_scenario(const std::string& name, const MachineFactory& make) {
  // Eight scenarios now run per invocation (sparse + every bundled game),
  // so the per-scenario frame counts are smaller than the old two-scenario
  // version; step costs are stable well below these counts.
  constexpr int kWarm = 30;
  constexpr int kFastSteps = 1200;  // both multiples of kChunks below
  constexpr int kRefSteps = 400;    // the AC16 reference is ~5x slower per frame
  constexpr int kDigestFrames = 800;
  constexpr int kSnaps = 800;
  constexpr int kRestores = 300;

  ScenarioPoint p;
  p.scenario = name;

  auto fast = make(emu::MachineConfig{});
  auto ref = make(emu::MachineConfig{100000, true});
  for (int i = 0; i < kWarm; ++i) {
    fast->step_frame(0x0404);
    ref->step_frame(0x0404);
  }
  // Mean ns per step. The two backends run in interleaved chunks, so a
  // burst of load from outside the process lands on both, not on one
  // side of the ratio.
  constexpr int kChunks = 8;
  std::int64_t fast_ns = 0, ref_ns = 0;
  for (int c = 0; c < kChunks; ++c) {
    fast_ns += time_steps(*fast, kFastSteps / kChunks);
    ref_ns += time_steps(*ref, kRefSteps / kChunks);
  }
  p.step_ns = static_cast<double>(fast_ns) / kFastSteps;
  p.ref_step_ns = static_cast<double>(ref_ns) / kRefSteps;
  p.step_speedup = p.ref_step_ns / p.step_ns;
  p.sessions_per_core = 1e9 / p.step_ns / 60.0;

  p.digest_v1_ns = time_digest(*fast, 1, kDigestFrames);
  p.digest_v3_ns = time_digest(*fast, emu::kStateDigestVersion, kDigestFrames);
  p.speedup = p.digest_v1_ns / p.digest_v3_ns;

  {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kSnaps; ++i) benchmark::DoNotOptimize(fast->save_state());
    p.save_state_ns = static_cast<double>(now_ns() - t0) / kSnaps;
  }
  {
    std::vector<std::uint8_t> scratch;
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kSnaps; ++i) {
      fast->save_state_into(scratch);
      benchmark::DoNotOptimize(scratch.data());
    }
    p.save_state_into_ns = static_cast<double>(now_ns() - t0) / kSnaps;
  }
  p.restore_digest_ns = time_restore_digest(*fast, kRestores);
  if (fast->faulted() || ref->faulted()) p.scenario += " [FAULTED]";
  return p;
}

struct Gate {
  std::string what;
  bool passed;
};

int run_json_mode(const std::string& path) {
  std::vector<ScenarioPoint> points;
  points.push_back(measure_scenario("sparse", make_sparse_machine));
  for (const std::string_view game : games::game_names()) {
    points.push_back(measure_scenario(
        std::string(game), [game](emu::MachineConfig cfg) {
          return games::make_machine(game, cfg);
        }));
  }
  for (const std::string_view game : a86::game_names()) {
    points.push_back(measure_scenario(
        "agent86:" + std::string(game), [game](emu::MachineConfig cfg) {
          a86::MachineConfig mc;
          mc.reference_interpreter = cfg.reference_interpreter;
          return a86::make_machine(game, mc);
        }));
  }

  std::printf("=== EMU-PERF: interpreter, digest + snapshot costs ===\n");
  std::printf("dispatch: %s%s\n\n", emu::dispatch_backend_name(),
              kSanitized ? " (sanitized build)" : "");
  std::printf("%-10s %10s %12s %8s %12s %12s %8s %13s %13s %10s\n", "scenario",
              "step ns", "ref step ns", "speedup", "digest v1 ns",
              "digest v3 ns", "speedup", "save_state ns", "restore ns", "sess/core");
  std::string scenario_csv;
  for (const auto& p : points) {
    std::printf("%-10s %10.0f %12.0f %7.1fx %12.0f %12.0f %7.1fx %13.0f %13.0f %10.0f\n",
                p.scenario.c_str(), p.step_ns, p.ref_step_ns, p.step_speedup,
                p.digest_v1_ns, p.digest_v3_ns, p.speedup, p.save_state_ns,
                p.restore_digest_ns, p.sessions_per_core);
    if (!scenario_csv.empty()) scenario_csv += ',';
    scenario_csv += p.scenario;
  }

  JsonWriter w;
  w.begin_object();
  w.key("schema").value("rtct.bench.v1");
  w.key("name").value("emu_perf");
  w.key("meta").begin_object();
  w.key("scenarios").value(scenario_csv);
  w.key("dispatch").value(emu::dispatch_backend_name());
  w.key("sanitized").value(static_cast<std::uint64_t>(kSanitized ? 1 : 0));
  w.key("digest_page_bytes").value(static_cast<std::uint64_t>(emu::kPageSize));
  w.end_object();
  w.key("series").begin_object();
  auto series = [&w, &points](const char* key, auto proj) {
    w.key(key).begin_array();
    for (const auto& p : points) w.value(proj(p));
    w.end_array();
  };
  series("scenario_index",
         [&points](const ScenarioPoint& p) {
           return static_cast<std::uint64_t>(&p - points.data());
         });
  series("step_ns", [](const ScenarioPoint& p) { return p.step_ns; });
  series("ref_step_ns", [](const ScenarioPoint& p) { return p.ref_step_ns; });
  series("step_speedup", [](const ScenarioPoint& p) { return p.step_speedup; });
  series("digest_v1_ns", [](const ScenarioPoint& p) { return p.digest_v1_ns; });
  series("digest_v3_ns", [](const ScenarioPoint& p) { return p.digest_v3_ns; });
  series("digest_speedup", [](const ScenarioPoint& p) { return p.speedup; });
  series("save_state_ns", [](const ScenarioPoint& p) { return p.save_state_ns; });
  series("save_state_into_ns",
         [](const ScenarioPoint& p) { return p.save_state_into_ns; });
  series("restore_digest_ns",
         [](const ScenarioPoint& p) { return p.restore_digest_ns; });
  series("sessions_per_core",
         [](const ScenarioPoint& p) { return p.sessions_per_core; });
  w.end_object();
  w.end_object();

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::printf("FAILED to write %s\n", path.c_str());
    return 1;
  }
  out << w.take() << '\n';
  std::printf("\nwrote %s\n", path.c_str());

  const ScenarioPoint& sparse = points[0];
  const ScenarioPoint* duel = nullptr;
  const ScenarioPoint* torture = nullptr;
  const ScenarioPoint* a86 = nullptr;
  for (const auto& p : points) {
    if (p.scenario == "duel") duel = &p;
    if (p.scenario == "torture") torture = &p;
    if (p.scenario == "agent86:skirmish") a86 = &p;
  }
  if (duel == nullptr || torture == nullptr || a86 == nullptr) {
    std::printf("FAILED: missing duel, torture or agent86:skirmish scenario\n");
    return 1;
  }

  std::vector<Gate> gates;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "sparse digest speedup (v1/v3) %.1fx >= 5x", sparse.speedup);
  gates.push_back({buf, sparse.speedup >= 5.0});
  std::snprintf(buf, sizeof buf,
                "duel fast-vs-reference step speedup %.2fx >= %.1fx",
                duel->step_speedup, kDuelStepRatioFloor);
  gates.push_back({buf, duel->step_speedup >= kDuelStepRatioFloor});
  const double torture_floor =
      kSanitized ? kSanitizedTortureStepRatioFloor : kTortureStepRatioFloor;
  std::snprintf(buf, sizeof buf,
                "torture fast-vs-reference step speedup %.2fx >= %.1fx",
                torture->step_speedup, torture_floor);
  gates.push_back({buf, torture->step_speedup >= torture_floor});
  std::snprintf(buf, sizeof buf,
                "sparse fast step %.0f ns <= 1.5x reference %.0f ns",
                sparse.step_ns, sparse.ref_step_ns);
  gates.push_back({buf, sparse.step_ns <= sparse.ref_step_ns * 1.5});
  if (!kSanitized) {
    std::snprintf(buf, sizeof buf,
                  "duel step %.0f ns <= pre-fast-path baseline %.0f / 3",
                  duel->step_ns, kPreFastPathDuelStepNs);
    gates.push_back({buf, duel->step_ns <= kPreFastPathDuelStepNs / 3.0});
  } else {
    std::printf("gate SKIP: absolute duel step bound (sanitized build)\n");
  }
  // agent86 gates: (a) a genuinely incremental v3 digest, (b) the fast
  // path's same-run win over its reference interpreter, and (c) an
  // absolute step budget far under the 16.7 ms frame (the
  // substrate-sanity claim, per core).
  std::snprintf(buf, sizeof buf,
                "agent86:skirmish digest speedup (v1/v3) %.1fx >= 5x",
                a86->speedup);
  gates.push_back({buf, a86->speedup >= 5.0});
  std::snprintf(buf, sizeof buf,
                "agent86:skirmish restore+digest %.0f ns <= full v1 rehash %.0f ns / 3",
                a86->restore_digest_ns, a86->digest_v1_ns);
  gates.push_back({buf, a86->restore_digest_ns <= a86->digest_v1_ns / 3.0});
  std::snprintf(buf, sizeof buf,
                "agent86:skirmish fast-vs-reference step speedup %.2fx >= %.1fx",
                a86->step_speedup, kA86StepRatioFloor);
  gates.push_back({buf, a86->step_speedup >= kA86StepRatioFloor});
  if (!kSanitized) {
    std::snprintf(buf, sizeof buf,
                  "agent86:skirmish step %.0f ns <= %.0f ns budget",
                  a86->step_ns, kA86StepBudgetNs);
    gates.push_back({buf, a86->step_ns <= kA86StepBudgetNs});
  } else {
    std::printf("gate SKIP: absolute agent86 step bound (sanitized build)\n");
  }

  int rc = 0;
  for (const auto& g : gates) {
    std::printf("gate %s: %s\n", g.passed ? "PASS" : "FAIL", g.what.c_str());
    if (!g.passed) rc = 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      return run_json_mode(argv[i + 1]);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
