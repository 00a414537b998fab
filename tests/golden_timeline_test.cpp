// Golden timeline table: the virtual-time testbed pinned as data.
//
// Each case runs one deterministic simulated session and folds everything
// it produced into one u64: every FrameTimeline column of every site (the
// mesh's compute column excepted, see fold_mesh), each site's replay
// bytes, SyncPeerStats, RollbackStats, and every observer's replayed
// (frame, hash) pairs. The table below was produced by the frame
// loop as it stood before the drivers shared one implementation, so any
// change to the loop's order of operations — when it samples, submits,
// waits, executes, digests, records or paces — shows up here as a
// mismatch, on every build leg (timelines embed state digests, so the
// portable switch dispatch must reproduce them too).
//
// sync_sweep_baseline pins the two-site lockstep RTT sweep; these cases
// cover what it does not: rollback, stalls and boot skew with churning
// observers, the TCP-like transport, adaptive-lag negotiation, and the
// N-site mesh (N=4 and N=2; N=2 pins the mesh's 4-bit input pre-mask).
//
// On a mismatch the test prints the freshly computed table in source form.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "src/testbed/experiment.h"
#include "src/testbed/mesh_experiment.h"

namespace rtct {
namespace {

using testbed::ExperimentConfig;
using testbed::ExperimentResult;
using testbed::MeshExperimentConfig;
using testbed::MeshExperimentResult;

struct Fold {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
    h ^= h >> 29;
  }
  void add_i(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
};

void fold_timeline(Fold& f, const core::FrameTimeline& t, bool with_compute = true) {
  f.add(t.size());
  for (const auto& r : t.records()) {
    f.add_i(r.frame);
    f.add_i(r.begin_time);
    f.add_i(r.input_ready_time);
    if (with_compute) f.add_i(r.compute);
    f.add_i(r.wait);
    f.add_i(r.stall);
    f.add(r.state_hash);
  }
}

void fold_sync(Fold& f, const core::SyncPeerStats& s) {
  f.add(s.messages_made);
  f.add(s.messages_ingested);
  f.add(s.inputs_sent);
  f.add(s.inputs_retransmitted);
  f.add(s.duplicate_inputs_rcvd);
  f.add(s.stale_messages);
  f.add(s.rtt_samples);
  f.add(s.rto_fires);
  f.add(s.redundant_inputs_sent);
}

std::uint64_t fold_experiment(const ExperimentResult& r) {
  Fold f;
  for (const auto& s : r.site) {
    fold_timeline(f, s.timeline);
    fold_sync(f, s.sync_stats);
    for (const std::uint8_t b : s.replay.serialize()) f.add(b);
    f.add_i(s.buf_frames);
    f.add_i(s.frames_completed);
    f.add(s.aborted);
    f.add(s.session_failed);
    f.add_i(s.desync_frame);
    f.add(s.rollback_mode);
    const core::RollbackStats& rb = s.rollback_stats;
    f.add(rb.frames_executed);
    f.add(rb.frames_resimulated);
    f.add(rb.rollbacks);
    f.add(rb.predicted_frames);
    f.add(rb.mispredicted_frames);
    f.add_i(rb.max_rollback_depth);
  }
  f.add(r.observers.size());
  for (const auto& o : r.observers) {
    f.add(o.joined);
    f.add(o.left);
    f.add_i(o.snapshot_frame);
    f.add_i(o.last_applied);
    f.add(o.hashes.size());
    for (const auto& [frame, hash] : o.hashes) {
      f.add_i(frame);
      f.add(hash);
    }
  }
  return f.h;
}

std::uint64_t fold_mesh(const MeshExperimentResult& r) {
  Fold f;
  f.add(r.sites.size());
  for (const auto& s : r.sites) {
    // The mesh's own frame loop never filled FrameRecord::compute (it
    // stayed 0); the shared loop records the modelled cost there like the
    // two-site harness does, so that one column is left out of the fold.
    fold_timeline(f, s.timeline, /*with_compute=*/false);
    fold_sync(f, s.sync_stats);
    f.add_i(s.frames_completed);
    f.add(s.aborted);
  }
  return f.h;
}

// ---- the cases -------------------------------------------------------------

std::uint64_t rollback_skirmish() {
  ExperimentConfig cfg;
  cfg.game = "agent86:skirmish";
  cfg.frames = 360;
  cfg.sync.rollback = true;
  cfg.sync.replay_keyframe_interval = 120;
  cfg.set_rtt(milliseconds(240));  // past lockstep's ~180 ms threshold
  cfg.net_a_to_b.jitter = milliseconds(8);
  cfg.net_b_to_a.loss = 0.02;
  cfg.site_boot_delay[1] = milliseconds(30);
  cfg.observers = 1;
  cfg.observer_join_delay = milliseconds(1500);
  cfg.net_seed = 11;
  const ExperimentResult r = testbed::run_experiment(cfg);
  EXPECT_TRUE(r.converged());
  EXPECT_TRUE(r.site[0].rollback_mode);
  EXPECT_GT(r.site[0].rollback_stats.rollbacks + r.site[1].rollback_stats.rollbacks, 0u);
  EXPECT_TRUE(r.observers_consistent());
  return fold_experiment(r);
}

std::uint64_t lockstep_duel_stalls_churn() {
  ExperimentConfig cfg;
  cfg.game = "duel";
  cfg.frames = 360;
  cfg.sync.replay_keyframe_interval = 90;
  cfg.set_rtt(milliseconds(100));
  cfg.net_a_to_b.loss = 0.01;
  cfg.net_b_to_a.loss = 0.01;
  cfg.site_boot_delay[0] = milliseconds(45);
  cfg.stall_events = {{milliseconds(2000), milliseconds(150), 0},
                      {milliseconds(3500), milliseconds(90), 1}};
  cfg.observers = 2;
  cfg.observer_join_delays = {milliseconds(700), milliseconds(1200)};
  cfg.observer_leave_after = {0, milliseconds(2000)};  // the second one churns
  cfg.net_seed = 23;
  const ExperimentResult r = testbed::run_experiment(cfg);
  EXPECT_TRUE(r.converged());
  EXPECT_TRUE(r.observers_consistent());
  EXPECT_TRUE(r.observers[1].left);
  return fold_experiment(r);
}

std::uint64_t tcp_like_duel() {
  ExperimentConfig cfg;
  cfg.game = "duel";
  cfg.frames = 300;
  cfg.set_rtt(milliseconds(80));
  cfg.net_a_to_b.loss = 0.02;
  cfg.net_b_to_a.loss = 0.02;
  cfg.transport = ExperimentConfig::Transport::kTcpLike;
  cfg.net_seed = 5;
  const ExperimentResult r = testbed::run_experiment(cfg);
  EXPECT_TRUE(r.converged());
  return fold_experiment(r);
}

std::uint64_t adaptive_lag_pong() {
  ExperimentConfig cfg;
  cfg.game = "pong";
  cfg.frames = 300;
  cfg.sync.adaptive_lag = true;
  cfg.sync.adaptive_resend = true;
  cfg.sync.redundant_inputs = 4;
  cfg.set_rtt(milliseconds(150));
  cfg.net_a_to_b.jitter = milliseconds(5);
  cfg.net_b_to_a.loss = 0.03;
  cfg.site_boot_delay[1] = milliseconds(60);
  cfg.net_seed = 9;
  const ExperimentResult r = testbed::run_experiment(cfg);
  EXPECT_TRUE(r.converged());
  EXPECT_NE(r.site[0].buf_frames, cfg.sync.buf_frames);  // negotiated, not fixed
  return fold_experiment(r);
}

std::uint64_t mesh_case(const std::string& game, int num_sites, std::uint64_t seed) {
  MeshExperimentConfig cfg;
  cfg.game = game;
  cfg.num_sites = num_sites;
  cfg.frames = 300;
  cfg.net = net::NetemConfig::for_rtt(milliseconds(60));
  cfg.net.loss = 0.01;
  cfg.boot_stagger = milliseconds(35);
  MeshExperimentConfig::NetEvent ev;
  ev.at = milliseconds(2500);
  ev.config = net::NetemConfig::for_rtt(milliseconds(140));
  ev.config.loss = 0.03;
  cfg.net_events = {ev};
  cfg.net_seed = seed;
  const MeshExperimentResult r = testbed::run_mesh_experiment(cfg);
  EXPECT_TRUE(r.converged());
  return fold_mesh(r);
}

struct Case {
  const char* name;
  std::uint64_t (*run)();
};

const Case kCases[] = {
    {"rollback_skirmish", rollback_skirmish},
    {"lockstep_duel_stalls_churn", lockstep_duel_stalls_churn},
    {"tcp_like_duel", tcp_like_duel},
    {"adaptive_lag_pong", adaptive_lag_pong},
    {"mesh_quadtron_4", [] { return mesh_case("quadtron", 4, 31); }},
    {"mesh_cellwars_2", [] { return mesh_case("native:cellwars", 2, 47); }},
};

struct Golden {
  const char* name;
  std::uint64_t value;
};

// clang-format off
constexpr Golden kTable[] = {
    {"rollback_skirmish", 0x20d4d5e1e3055634ull},
    {"lockstep_duel_stalls_churn", 0xa32ae078c379a6a9ull},
    {"tcp_like_duel", 0x4edf6e7828deaef7ull},
    {"adaptive_lag_pong", 0xe3c0c4af116de867ull},
    {"mesh_quadtron_4", 0xd26ab30e03c7fd55ull},
    {"mesh_cellwars_2", 0x4163a6458f6f16dcull},
};
// clang-format on

TEST(GoldenTimeline, EveryCaseMatchesTheCommittedFold) {
  static_assert(std::size(kTable) == std::size(kCases));
  std::vector<std::uint64_t> fresh;
  bool all_match = true;
  for (std::size_t i = 0; i < std::size(kCases); ++i) {
    ASSERT_STREQ(kCases[i].name, kTable[i].name);
    fresh.push_back(kCases[i].run());
    if (fresh.back() != kTable[i].value) {
      all_match = false;
      ADD_FAILURE() << kCases[i].name << ": fold 0x" << std::hex << fresh.back()
                    << " != golden 0x" << kTable[i].value;
    }
  }
  if (!all_match) {
    std::printf("// clang-format off\nconstexpr Golden kTable[] = {\n");
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      std::printf("    {\"%s\", 0x%016llxull},\n", kCases[i].name,
                  static_cast<unsigned long long>(fresh[i]));
    }
    std::printf("};\n// clang-format on\n");
  }
}

// The fold itself must be deterministic within one process (no hidden
// global state leaks between runs of the same case).
TEST(GoldenTimeline, RerunIsBitIdentical) {
  EXPECT_EQ(tcp_like_duel(), tcp_like_duel());
}

}  // namespace
}  // namespace rtct
