// Golden timeline table: the virtual-time testbed pinned as data.
//
// Each case runs one deterministic simulated session and folds everything
// it produced into two u64s. The state-digest values go into the hash
// column: every FrameRecord::state_hash, each replay's digest version and
// keyframe digests, and every observer's replayed hashes. Everything else
// goes into the timing column: every other FrameTimeline column of every
// site (the mesh's compute column excepted, see fold_mesh), each replay's
// inputs, keyframe frames and snapshot bytes, SyncPeerStats,
// RollbackStats, and the observers' frames. The timing column was produced
// by the frame loop as it stood before the drivers shared one
// implementation, so any change to the loop's order of operations — when
// it samples, submits, waits, executes, digests, records or paces — shows
// up here as a mismatch, on every build leg (the portable switch dispatch
// must reproduce the digests too). A change to the digest function alone
// moves only the hash column.
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

/// The two columns of one case.
struct Folds {
  Fold timing;
  Fold hashes;
};

void fold_timeline(Folds& f, const core::FrameTimeline& t, bool with_compute = true) {
  f.timing.add(t.size());
  for (const auto& r : t.records()) {
    f.timing.add_i(r.frame);
    f.timing.add_i(r.begin_time);
    f.timing.add_i(r.input_ready_time);
    if (with_compute) f.timing.add_i(r.compute);
    f.timing.add_i(r.wait);
    f.timing.add_i(r.stall);
    f.hashes.add(r.state_hash);
  }
}

void fold_replay(Folds& f, const core::Replay& r) {
  f.timing.add_i(r.container_version());
  f.timing.add(r.content_id());
  f.timing.add_i(r.cfps());
  f.timing.add_i(r.buf_frames());
  f.timing.add_i(r.keyframe_interval());
  for (const InputWord w : r.inputs()) f.timing.add(w);
  for (const char c : r.game_name()) f.timing.add(static_cast<std::uint8_t>(c));
  f.hashes.add_i(r.digest_version());
  for (const auto& kf : r.keyframes()) {
    f.timing.add_i(kf.frame);
    for (const std::uint8_t b : kf.state) f.timing.add(b);
    f.hashes.add(kf.digest);
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

Folds fold_experiment(const ExperimentResult& r) {
  Folds folds;
  Fold& f = folds.timing;
  for (const auto& s : r.site) {
    fold_timeline(folds, s.timeline);
    fold_sync(f, s.sync_stats);
    fold_replay(folds, s.replay);
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
      folds.hashes.add(hash);
    }
  }
  return folds;
}

Folds fold_mesh(const MeshExperimentResult& r) {
  Folds folds;
  Fold& f = folds.timing;
  f.add(r.sites.size());
  for (const auto& s : r.sites) {
    // The mesh's own frame loop never filled FrameRecord::compute (it
    // stayed 0); the shared loop records the modelled cost there like the
    // two-site harness does, so that one column is left out of the fold.
    fold_timeline(folds, s.timeline, /*with_compute=*/false);
    fold_sync(f, s.sync_stats);
    f.add_i(s.frames_completed);
    f.add(s.aborted);
  }
  return folds;
}

// ---- the cases -------------------------------------------------------------

Folds rollback_skirmish() {
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

Folds lockstep_duel_stalls_churn() {
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

Folds tcp_like_duel() {
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

Folds adaptive_lag_pong() {
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

Folds mesh_case(const std::string& game, int num_sites, std::uint64_t seed) {
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
  Folds (*run)();
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
  std::uint64_t timing;
  std::uint64_t hashes;
};

// clang-format off
constexpr Golden kTable[] = {
    {"rollback_skirmish", 0x4c3ce9ea8b861e74ull, 0xb3f6e6d8c6fa4179ull},
    {"lockstep_duel_stalls_churn", 0x3a437b0aac89a3aeull, 0x678c546e439675cbull},
    {"tcp_like_duel", 0xd70675a16dab1412ull, 0x40fb1fa5a8500927ull},
    {"adaptive_lag_pong", 0x37429423a64028ceull, 0x83c9b55d9dad705eull},
    {"mesh_quadtron_4", 0xf491f28e9b2f468eull, 0x3b51746b61321210ull},
    {"mesh_cellwars_2", 0x8e863608c556aac8ull, 0x09732338bf77c800ull},
};
// clang-format on

TEST(GoldenTimeline, EveryCaseMatchesTheCommittedFold) {
  static_assert(std::size(kTable) == std::size(kCases));
  std::vector<Folds> fresh;
  bool all_match = true;
  for (std::size_t i = 0; i < std::size(kCases); ++i) {
    ASSERT_STREQ(kCases[i].name, kTable[i].name);
    fresh.push_back(kCases[i].run());
    const Folds& f = fresh.back();
    if (f.timing.h != kTable[i].timing) {
      all_match = false;
      ADD_FAILURE() << kCases[i].name << ": timing fold 0x" << std::hex << f.timing.h
                    << " != golden 0x" << kTable[i].timing;
    }
    if (f.hashes.h != kTable[i].hashes) {
      all_match = false;
      ADD_FAILURE() << kCases[i].name << ": hash fold 0x" << std::hex << f.hashes.h
                    << " != golden 0x" << kTable[i].hashes;
    }
  }
  if (!all_match) {
    std::printf("// clang-format off\nconstexpr Golden kTable[] = {\n");
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      std::printf("    {\"%s\", 0x%016llxull, 0x%016llxull},\n", kCases[i].name,
                  static_cast<unsigned long long>(fresh[i].timing.h),
                  static_cast<unsigned long long>(fresh[i].hashes.h));
    }
    std::printf("};\n// clang-format on\n");
  }
}

// The fold itself must be deterministic within one process (no hidden
// global state leaks between runs of the same case).
TEST(GoldenTimeline, RerunIsBitIdentical) {
  const Folds a = tcp_like_duel();
  const Folds b = tcp_like_duel();
  EXPECT_EQ(a.timing.h, b.timing.h);
  EXPECT_EQ(a.hashes.h, b.hashes.h);
}

}  // namespace
}  // namespace rtct
