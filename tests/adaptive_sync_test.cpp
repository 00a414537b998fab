// Loss x duplication x reorder sweep of SyncPeer pairs over NetemModel.
//
// The sync_peer unit tests drive single branches; this suite runs whole
// 120-frame sessions through the same link model the testbed uses (§4's
// Netem box) across a grid of impairments, in BOTH transport policies:
// the paper's every-flush go-back-N and the adaptive RTO + redundancy
// mode. For every cell it asserts the three things that must survive any
// packet mangling:
//   (a) no desync — both replicas deliver identical merged inputs, equal
//       to the submitted scripts shifted by the local lag;
//   (b) bounded stall — the pointer never stops progressing for longer
//       than the retransmission machinery can explain;
//   (c) sane stats — counters consistent with what the link reports.
// The sweep ends with the same policy under the other two consumers of a
// SyncPeer: rollback's speculative consumption and a 4-site mesh.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "src/common/random.h"
#include "src/core/sync_peer.h"
#include "src/core/wire.h"
#include "src/games/cellwars.h"
#include "src/net/netem.h"
#include "src/testbed/experiment.h"
#include "src/testbed/mesh_experiment.h"

namespace rtct::core {
namespace {

using SweepTuple = std::tuple<double, double, double, bool>;

class AdaptiveSyncSweepTest : public ::testing::TestWithParam<SweepTuple> {};

std::string sweep_name(const ::testing::TestParamInfo<SweepTuple>& info) {
  const double loss = std::get<0>(info.param);
  const double dup = std::get<1>(info.param);
  const double reorder = std::get<2>(info.param);
  const bool adaptive = std::get<3>(info.param);
  return "loss" + std::to_string(static_cast<int>(loss * 100)) + "_dup" +
         std::to_string(static_cast<int>(dup * 100)) + "_reorder" +
         std::to_string(static_cast<int>(reorder * 100)) +
         (adaptive ? "_adaptive" : "_paper");
}

INSTANTIATE_TEST_SUITE_P(
    LossDupReorder, AdaptiveSyncSweepTest,
    ::testing::Combine(::testing::Values(0.0, 0.1, 0.3),   // loss
                       ::testing::Values(0.0, 0.2),        // duplication
                       ::testing::Values(0.0, 0.25),       // reorder
                       ::testing::Bool()),                 // adaptive transport
    sweep_name);

TEST_P(AdaptiveSyncSweepTest, LockstepSurvivesAndProgresses) {
  const auto [loss, dup, reorder, adaptive] = GetParam();

  SyncConfig cfg;
  if (adaptive) {
    cfg.adaptive_resend = true;
    cfg.redundant_inputs = 2;
  }

  net::NetemConfig link;
  link.delay = milliseconds(30);  // RTT 60 ms
  link.loss = loss;
  link.duplicate = dup;
  link.reorder = reorder;
  link.reorder_extra = milliseconds(25);

  const std::uint64_t seed =
      1 + static_cast<std::uint64_t>(loss * 100) * 7 +
      static_cast<std::uint64_t>(dup * 100) * 131 +
      static_cast<std::uint64_t>(reorder * 100) * 1009 + (adaptive ? 1u : 0u);
  Rng rng(seed);
  net::NetemModel links[2] = {net::NetemModel(link, rng.fork()),
                              net::NetemModel(link, rng.fork())};

  SyncPeer peers[2] = {SyncPeer(0, cfg), SyncPeer(1, cfg)};

  constexpr FrameNo kFrames = 120;
  std::vector<std::uint8_t> script[2];
  for (int s = 0; s < 2; ++s) {
    for (FrameNo f = 0; f < kFrames; ++f) {
      script[s].push_back(static_cast<std::uint8_t>(rng.next_u64()));
    }
  }

  struct Pkt {
    Time at;
    SyncMsg msg;
  };
  std::vector<Pkt> inflight[2];  // indexed by RECEIVING site

  std::vector<InputWord> delivered[2];
  FrameNo submitted[2] = {0, 0};
  Time next_flush[2] = {0, 0};
  Time last_progress[2] = {0, 0};
  Dur max_stall = 0;
  Time now = 0;
  const Time deadline = seconds(120);

  while ((delivered[0].size() < kFrames || delivered[1].size() < kFrames) &&
         now < deadline) {
    now += milliseconds(1);
    for (int s = 0; s < 2; ++s) {
      auto& peer = peers[s];

      for (auto it = inflight[s].begin(); it != inflight[s].end();) {
        if (it->at <= now) {
          links[1 - s].on_arrival();
          peer.ingest(it->msg, now);
          it = inflight[s].erase(it);
        } else {
          ++it;
        }
      }

      // Frame loop emulation: submit when the pointer caught up, pop when
      // ready (the real drivers pace this; the protocol must not care).
      if (submitted[s] < kFrames && peer.pointer() == submitted[s]) {
        peer.submit_local(submitted[s],
                          s == 0 ? make_input(script[0][submitted[s]], 0)
                                 : make_input(0, script[1][submitted[s]]));
        ++submitted[s];
      }
      if (delivered[s].size() < kFrames && peer.ready() && peer.pointer() < submitted[s]) {
        delivered[s].push_back(peer.pop());
        last_progress[s] = now;
      } else if (delivered[s].size() < kFrames) {
        max_stall = std::max(max_stall, now - last_progress[s]);
      }

      if (now >= next_flush[s]) {
        next_flush[s] = now + cfg.send_flush_period;
        if (auto m = peer.make_message(1 - s, now)) {
          const auto size = encode_message(Message{*m}).size();
          const auto verdict = links[s].offer(now, size);
          if (verdict.delivered) {
            inflight[1 - s].push_back({verdict.arrival, *m});
            if (verdict.duplicate) inflight[1 - s].push_back({verdict.dup_arrival, *m});
          }
        }
      }
    }
  }

  // (a) No desync: both sessions finished with the identical merged input
  // stream, equal to the scripts shifted by the local lag.
  ASSERT_EQ(delivered[0].size(), static_cast<std::size_t>(kFrames))
      << "site 0 deadlocked (seed " << seed << ")";
  ASSERT_EQ(delivered[1].size(), static_cast<std::size_t>(kFrames))
      << "site 1 deadlocked (seed " << seed << ")";
  for (FrameNo f = 0; f < kFrames; ++f) {
    ASSERT_EQ(delivered[0][f], delivered[1][f]) << "divergence at frame " << f;
    const InputWord expect =
        f < cfg.buf_frames
            ? 0
            : make_input(script[0][f - cfg.buf_frames], script[1][f - cfg.buf_frames]);
    ASSERT_EQ(delivered[0][f], expect) << "wrong input at frame " << f;
  }
  for (int s = 0; s < 2; ++s) {
    EXPECT_FALSE(peers[s].desync_detected());
  }

  // (b) Bounded stall: even at 30% loss a gap is repaired within a couple
  // of (backed-off) retransmission timeouts; max_rto caps each wait at 2 s.
  EXPECT_LT(max_stall, seconds(10)) << "pointer stalled too long";

  // (c) Stats consistent with the link's account of the session.
  for (int s = 0; s < 2; ++s) {
    const auto& st = peers[s].stats();
    const auto& tx = links[s].stats();          // this site's outgoing link
    const auto& peer_st = peers[1 - s].stats();
    EXPECT_EQ(st.stale_messages, 0u);
    EXPECT_EQ(st.messages_made, tx.packets_offered);
    // Copies still in flight when both sites finished were never ingested.
    EXPECT_EQ(peer_st.messages_ingested + inflight[1 - s].size(), tx.packets_delivered);
    EXPECT_GE(st.inputs_sent, static_cast<std::uint64_t>(kFrames));
    EXPECT_GT(st.rtt_samples, 0u);
    EXPECT_EQ(st.rtt_samples, peers[s].rtt_estimator(1 - s).sample_count());
    EXPECT_TRUE(peers[s].rtt_estimator(1 - s).has_sample());
    // RTT through a 30 ms-each-way link can never read below 60 ms.
    EXPECT_GE(peers[s].rtt(1 - s), milliseconds(60));
    if (!adaptive) {
      EXPECT_EQ(st.rto_fires, 0u);
      EXPECT_EQ(st.redundant_inputs_sent, 0u);
    } else if (loss == 0.0 && reorder == 0.0) {
      // Clean in-order link: acks return in ~RTT + flush < initial RTO.
      EXPECT_EQ(st.rto_fires, 0u);
    }
    if (loss == 0.0 && dup == 0.0) {
      EXPECT_EQ(tx.dropped_loss, 0u);
      EXPECT_EQ(tx.duplicated, 0u);
    }
  }
}

// ---- the adaptive policy in every mode ---------------------------------------
// adaptive_resend lives in the one SyncPeer, so it applies wherever a peer
// carries the inputs. Each session must converge under loss, and the
// adaptive machinery must have run: a timer expiry or a redundancy-tail
// entry (both stay zero under the paper's go-back-N).

void adapt(SyncConfig& cfg) {
  cfg.adaptive_resend = true;
  cfg.redundant_inputs = 2;
}

TEST(AdaptiveResendEveryModeTest, RollbackSessionConvergesUnderLoss) {
  testbed::ExperimentConfig cfg;
  cfg.game_factory = games::make_cellwars;
  cfg.frames = 600;
  cfg.sync.rollback = true;
  adapt(cfg.sync);
  cfg.set_rtt(milliseconds(80));
  cfg.net_a_to_b.loss = 0.1;
  cfg.net_b_to_a.loss = 0.1;
  const auto r = testbed::run_experiment(cfg);
  ASSERT_TRUE(r.converged());
  for (const auto& site : r.site) {
    EXPECT_TRUE(site.rollback_mode);
    EXPECT_EQ(site.desync_frame, -1);
    EXPECT_GT(site.sync_stats.rto_fires + site.sync_stats.redundant_inputs_sent, 0u);
  }
}

TEST(AdaptiveResendEveryModeTest, FourSiteMeshConvergesUnderLoss) {
  testbed::MeshExperimentConfig cfg;
  cfg.game_factory = games::make_cellwars;
  cfg.num_sites = 4;
  cfg.frames = 600;
  adapt(cfg.sync);
  cfg.net = net::NetemConfig::for_rtt(milliseconds(60));
  cfg.net.loss = 0.1;
  const auto r = testbed::run_mesh_experiment(cfg);
  ASSERT_TRUE(r.converged());
  for (const auto& site : r.sites) {
    EXPECT_GT(site.sync_stats.rto_fires + site.sync_stats.redundant_inputs_sent, 0u);
  }
}

}  // namespace
}  // namespace rtct::core
