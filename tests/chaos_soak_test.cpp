// The deterministic chaos soak (ctest labels: soak, slow).
//
// Runs 100+ distinct seeds through each topology — two-site, mesh,
// spectator — with seeded fault injection (loss bursts, reorder storms,
// duplication, latency spikes, asymmetric-path flips, config flaps, peer
// stalls, observer churn) and requires every machine-readable invariant
// to hold on every run. On failure the full minimized repro document is
// printed; replay it with `rtct_chaos replay` after saving it to a file.
//
// Everything runs on the virtual clock: ~17 ms of host CPU per case, and
// the same seed always produces byte-identical repro output (asserted
// below — determinism is itself part of the contract).
#include <gtest/gtest.h>

#include <memory>

#include "src/chaos/fault_script.h"
#include "src/chaos/soak.h"
#include "src/cores/agent86/games.h"
#include "src/cores/registry.h"
#include "src/emu/machine.h"
#include "src/games/roms.h"

namespace rtct::chaos {
namespace {

constexpr std::uint64_t kFirstSeed = 1;
constexpr int kSeeds = 100;

class ChaosSoak : public ::testing::TestWithParam<Topology> {};

TEST_P(ChaosSoak, AllSeedsSatisfyAllInvariants) {
  const Topology topology = GetParam();
  int failures = 0;
  for (std::uint64_t seed = kFirstSeed; seed < kFirstSeed + kSeeds; ++seed) {
    const SoakOutcome o = run_soak_case(seed, topology);
    if (!o.passed()) {
      ++failures;
      ADD_FAILURE() << "seed " << seed << " on " << topology_name(topology)
                    << ": " << o.violations.size() << " violation(s)\n"
                    << outcome_to_json(o);
    }
  }
  EXPECT_EQ(failures, 0);
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, ChaosSoak,
                         ::testing::Values(Topology::kTwoSite, Topology::kMesh,
                                           Topology::kSpectator),
                         [](const auto& param_info) {
                           return std::string(topology_name(param_info.param));
                         });

// The same seeds, with both sites opted into rollback: every fault script
// the lockstep soak survives, the speculation/restore engine must survive
// too — including the rollback-twin invariant (confirmed history equals a
// straight-line replay, digest for digest).
class RollbackChaosSoak : public ::testing::TestWithParam<Topology> {};

TEST_P(RollbackChaosSoak, AllSeedsSatisfyAllInvariants) {
  const Topology topology = GetParam();
  int failures = 0;
  for (std::uint64_t seed = kFirstSeed; seed < kFirstSeed + kSeeds; ++seed) {
    FaultScript script = generate_fault_script(seed, topology);
    script.rollback = true;
    const SoakOutcome o = run_soak_case(script);
    if (!o.passed()) {
      ++failures;
      ADD_FAILURE() << "seed " << seed << " on " << topology_name(topology)
                    << " (rollback): " << o.violations.size() << " violation(s)\n"
                    << outcome_to_json(o);
    }
  }
  EXPECT_EQ(failures, 0);
}

INSTANTIATE_TEST_SUITE_P(RollbackTopologies, RollbackChaosSoak,
                         ::testing::Values(Topology::kTwoSite, Topology::kSpectator),
                         [](const auto& param_info) {
                           return std::string(topology_name(param_info.param));
                         });

class EmulatorChaosSoak : public ::testing::TestWithParam<Topology> {};

TEST_P(EmulatorChaosSoak, DirtyPageDigestSurvivesChaosWithCrossCheck) {
  // The soak normally runs the cheap native game, which never exercises
  // the emulator's incremental v3 digest. Re-run a slice of seeds on an
  // ArcadeMachine with the full-rehash cross-check armed: every
  // v3 digest recomputes all 128 pages from scratch and any
  // disagreement with the dirty-page cache counts as a failure. Chaos is
  // exactly the load that would expose a missed-invalidation bug (stalls,
  // churned observers loading snapshots, handshake races).
  const Topology topology = GetParam();
  emu::set_state_digest_cross_check(true);
  int failures = 0;
  for (std::uint64_t seed = kFirstSeed; seed < kFirstSeed + 10; ++seed) {
    FaultScript script = generate_fault_script(seed, topology);
    testbed::ExperimentConfig cfg = lower_two_site(script);
    cfg.game_factory = [] { return games::make_machine("duel"); };
    const testbed::ExperimentResult r = testbed::run_experiment(cfg);
    const auto violations = check_two_site(cfg, r);
    if (!violations.empty()) {
      ++failures;
      ADD_FAILURE() << "seed " << seed << " on " << topology_name(topology) << ": "
                    << violations.size() << " violation(s), first: "
                    << violations[0].invariant << " — " << violations[0].detail;
    }
  }
  emu::set_state_digest_cross_check(false);
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(emu::state_digest_cross_check_failures(), 0u)
      << "incremental digest disagreed with the full rehash";
}

TEST_P(EmulatorChaosSoak, FastAndReferenceInterpretersAgreeUnderChaos) {
  // Differential check under network chaos: alternate replicas between the
  // fast (predecoded / devirtualized / threaded-dispatch) interpreter and
  // the reference byte-fetch interpreter. The soak's per-frame state-hash
  // agreement invariant then *is* the equivalence assertion — any backend
  // divergence shows up as a two-site hash mismatch, and it is exercised
  // through snapshot load (observer churn), stalls, and handshake races
  // that the plain lockstep differential test never reaches.
  const Topology topology = GetParam();
  int failures = 0;
  for (std::uint64_t seed = kFirstSeed; seed < kFirstSeed + 8; ++seed) {
    FaultScript script = generate_fault_script(seed, topology);
    testbed::ExperimentConfig cfg = lower_two_site(script);
    auto counter = std::make_shared<int>(0);
    cfg.game_factory = [counter] {
      emu::MachineConfig mc;
      mc.reference_interpreter = ((*counter)++ % 2) == 1;
      return games::make_machine("duel", mc);
    };
    const testbed::ExperimentResult r = testbed::run_experiment(cfg);
    const auto violations = check_two_site(cfg, r);
    if (!violations.empty()) {
      ++failures;
      ADD_FAILURE() << "seed " << seed << " on " << topology_name(topology)
                    << " (mixed backends): " << violations.size()
                    << " violation(s), first: " << violations[0].invariant
                    << " — " << violations[0].detail;
    }
  }
  EXPECT_EQ(failures, 0);
}

INSTANTIATE_TEST_SUITE_P(EmulatorTopologies, EmulatorChaosSoak,
                         ::testing::Values(Topology::kTwoSite, Topology::kSpectator),
                         [](const auto& param_info) {
                           return std::string(topology_name(param_info.param));
                         });

// The cross-core invariant: every fault script the soak generates also
// runs against an agent86 topology, with the incremental-digest
// cross-check armed and per-frame digest agreement required. Any
// behavioural dependency on the AC16 machine hiding in the sync layer —
// a hardcoded page count, a snapshot-size assumption, a digest-version
// special case — surfaces here as a two-site violation on a core that
// shares zero code with AC16's interpreter.
class Agent86ChaosSoak : public ::testing::TestWithParam<Topology> {};

TEST_P(Agent86ChaosSoak, EveryFaultScriptHoldsOnAnAgent86Topology) {
  const Topology topology = GetParam();
  const auto factory = [] { return cores::make_game("agent86:skirmish"); };
  emu::set_state_digest_cross_check(true);
  int failures = 0;
  for (std::uint64_t seed = kFirstSeed; seed < kFirstSeed + kSeeds; ++seed) {
    const FaultScript script = generate_fault_script(seed, topology);
    std::vector<Violation> violations;
    if (topology == Topology::kMesh) {
      testbed::MeshExperimentConfig cfg = lower_mesh(script);
      cfg.game_factory = factory;
      const auto r = testbed::run_mesh_experiment(cfg);
      // Fault-free twin as the pacing baseline, as run_soak_case does —
      // mesh re-convergence is judged against the same script minus its
      // faults, not against the nominal period.
      FaultScript clean = script;
      clean.faults.clear();
      testbed::MeshExperimentConfig ref_cfg = lower_mesh(clean);
      ref_cfg.game_factory = factory;
      const auto ref = testbed::run_mesh_experiment(ref_cfg);
      violations = check_mesh(cfg, r, &ref);
    } else {
      testbed::ExperimentConfig cfg = lower_two_site(script);
      cfg.game_factory = factory;
      violations = check_two_site(cfg, testbed::run_experiment(cfg));
    }
    if (!violations.empty()) {
      ++failures;
      ADD_FAILURE() << "seed " << seed << " on " << topology_name(topology)
                    << " (agent86): " << violations.size()
                    << " violation(s), first: " << violations[0].invariant
                    << " — " << violations[0].detail;
    }
  }
  emu::set_state_digest_cross_check(false);
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(emu::state_digest_cross_check_failures(), 0u)
      << "agent86 incremental digest disagreed with the full rehash";
}

INSTANTIATE_TEST_SUITE_P(Agent86Topologies, Agent86ChaosSoak,
                         ::testing::Values(Topology::kTwoSite, Topology::kMesh,
                                           Topology::kSpectator),
                         [](const auto& param_info) {
                           return std::string(topology_name(param_info.param));
                         });

// The agent86 twin of FastAndReferenceInterpretersAgreeUnderChaos, in
// rollback mode: replicas alternate between the predecoded fast path and
// the reference interpreter, so every restore and re-simulation crosses
// backends (a snapshot saved by one backend is loaded into code pages the
// other one decoded). Any divergence, or a stale predecoded page after a
// restore, shows up as a two-site violation.
class Agent86MixedBackendChaosSoak : public ::testing::TestWithParam<Topology> {};

TEST_P(Agent86MixedBackendChaosSoak, RollbackAcrossMixedBackendsHoldsEveryInvariant) {
  const Topology topology = GetParam();
  emu::set_state_digest_cross_check(true);
  int failures = 0;
  std::uint64_t rollbacks = 0;
  for (std::uint64_t seed = kFirstSeed; seed < kFirstSeed + 8; ++seed) {
    FaultScript script = generate_fault_script(seed, topology);
    script.rollback = true;
    testbed::ExperimentConfig cfg = lower_two_site(script);
    auto counter = std::make_shared<int>(0);
    cfg.game_factory = [counter]() -> std::unique_ptr<emu::IDeterministicGame> {
      a86::MachineConfig mc;
      mc.reference_interpreter = ((*counter)++ % 2) == 1;
      return a86::make_machine("skirmish", mc);
    };
    const testbed::ExperimentResult r = testbed::run_experiment(cfg);
    for (const auto& site : r.site) {
      EXPECT_TRUE(site.rollback_mode) << "seed " << seed;
      rollbacks += site.rollback_stats.rollbacks;
    }
    const auto violations = check_two_site(cfg, r);
    if (!violations.empty()) {
      ++failures;
      ADD_FAILURE() << "seed " << seed << " on " << topology_name(topology)
                    << " (agent86 rollback, mixed backends): " << violations.size()
                    << " violation(s), first: " << violations[0].invariant << " — "
                    << violations[0].detail;
    }
  }
  emu::set_state_digest_cross_check(false);
  EXPECT_EQ(failures, 0);
  EXPECT_GT(rollbacks, 0u) << "no restore ran, so no backend crossing was tested";
  EXPECT_EQ(emu::state_digest_cross_check_failures(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Agent86MixedBackendTopologies, Agent86MixedBackendChaosSoak,
                         ::testing::Values(Topology::kTwoSite, Topology::kSpectator),
                         [](const auto& param_info) {
                           return std::string(topology_name(param_info.param));
                         });

TEST(ChaosSoakDeterminism, SameSeedYieldsByteIdenticalRepro) {
  for (const Topology t :
       {Topology::kTwoSite, Topology::kMesh, Topology::kSpectator}) {
    const std::string a = outcome_to_json(run_soak_case(17, t));
    const std::string b = outcome_to_json(run_soak_case(17, t));
    EXPECT_EQ(a, b) << topology_name(t);
  }
}

}  // namespace
}  // namespace rtct::chaos
