// Tests for the divergence bisector (src/core/bisect.h): given two
// recordings of nominally the same session, name the first divergent frame
// and the exact 256 B page(s) that differ — the offline root-causing tool
// the RTCTRPL2 keyframes exist for.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/common/random.h"
#include "src/core/bisect.h"
#include "src/core/metrics.h"
#include "src/core/replay.h"
#include "src/emu/machine.h"
#include "src/games/roms.h"
#include "src/testbed/experiment.h"

namespace rtct::core {
namespace {

GameFactory torture_factory() {
  return [] {
    return std::unique_ptr<emu::IDeterministicGame>(games::make_machine("torture"));
  };
}

/// Records a torture session with embedded keyframes; inputs come from
/// `rng`, optionally overridden from `override_from` on by `override_bit`
/// (to build input-divergent twins off one stream).
Replay record_torture(int frames, int interval, Rng rng, FrameNo override_from = -1,
                      InputWord override_bit = 0) {
  auto m = games::make_machine("torture");
  SyncConfig cfg;
  cfg.replay_keyframe_interval = interval;
  Replay rec(m->content_id(), cfg);
  for (int f = 0; f < frames; ++f) {
    auto input = static_cast<InputWord>(rng.next_u64());
    if (override_from >= 0 && f >= override_from) input ^= override_bit;
    m->step_frame(input);
    rec.record(input);
    if (rec.keyframe_due()) rec.record_keyframe(*m);
  }
  return rec;
}

/// Forges a single-byte RAM mutation into the embedded keyframe at
/// `frame`: flips one byte of `page`, then restamps the keyframe digest so
/// the snapshot is internally consistent (the divergence evidence is the
/// digest leaving the deterministic line, not a corrupt blob).
void mutate_keyframe(Replay* r, FrameNo frame, int page) {
  for (ReplayKeyframe& kf : r->keyframes_mutable()) {
    if (kf.frame != frame) continue;
    const std::size_t header = kf.state.size() - (0x10000 - emu::kRamBase);
    kf.state[header + static_cast<std::size_t>(page) * emu::kPageSize + 3] ^= 0x01;
    auto scratch = games::make_machine("torture");
    ASSERT_TRUE(scratch->load_state(kf.state));
    kf.digest = scratch->state_digest(r->digest_version());
    return;
  }
  FAIL() << "no keyframe at frame " << frame;
}

TEST(BisectTest, MutatedKeyframeNamesExactFrameAndPage) {
  // One byte of one embedded snapshot differs (frame 449, page 23). The
  // bisector must name exactly that frame, attribute side "b" (the
  // deterministic re-simulation agrees with A), and name exactly that
  // 256 B page with its real RAM address.
  const Replay a = record_torture(600, 150, Rng(11));
  Replay b = a;
  mutate_keyframe(&b, 449, 23);

  const BisectReport rep = bisect_replays(a, b, torture_factory());
  EXPECT_EQ(rep.verdict, "diverged");
  EXPECT_EQ(rep.first_divergent_frame, 449);
  EXPECT_EQ(rep.first_input_divergence, -1);
  EXPECT_EQ(rep.diverged_side, "b");
  EXPECT_EQ(rep.keyframe_used, 299);  // last agreeing keyframe
  EXPECT_EQ(rep.resimulated_frames, 150);
  ASSERT_EQ(rep.pages.size(), 1u);
  EXPECT_EQ(rep.pages[0].page, 23);
  EXPECT_EQ(rep.pages[0].addr, emu::kRamBase + 23u * emu::kPageSize);
  EXPECT_NE(rep.pages[0].digest_a, rep.pages[0].digest_b);

  // Mutating A instead attributes side "a" at the same coordinates.
  Replay a2 = a;
  mutate_keyframe(&a2, 449, 23);
  const BisectReport rep2 = bisect_replays(a2, a, torture_factory());
  EXPECT_EQ(rep2.verdict, "diverged");
  EXPECT_EQ(rep2.first_divergent_frame, 449);
  EXPECT_EQ(rep2.diverged_side, "a");
}

TEST(BisectTest, IdenticalTwinsGetCleanVerdict) {
  const Replay a = record_torture(600, 150, Rng(12));
  const BisectReport rep = bisect_replays(a, a, torture_factory());
  EXPECT_EQ(rep.verdict, "identical");
  EXPECT_EQ(rep.first_divergent_frame, -1);
  EXPECT_EQ(rep.first_input_divergence, -1);
  EXPECT_TRUE(rep.pages.empty());
  EXPECT_EQ(rep.common_frames, 600);
}

TEST(BisectTest, InputDivergenceSingleStepsToTheExactFrame) {
  // The input logs split at frame 317 (a flipped button bit): per-frame
  // evidence exists on both sides, so the bisector restores the last
  // agreeing keyframe (299) and single-steps to the exact frame.
  const Replay a = record_torture(600, 150, Rng(13));
  const Replay b = record_torture(600, 150, Rng(13), 317, 0x0004);
  const BisectReport rep = bisect_replays(a, b, torture_factory());
  EXPECT_EQ(rep.verdict, "diverged");
  EXPECT_EQ(rep.first_input_divergence, 317);
  EXPECT_EQ(rep.first_divergent_frame, 317);
  EXPECT_EQ(rep.diverged_side, "input");
  EXPECT_EQ(rep.keyframe_used, 299);
  EXPECT_LE(rep.resimulated_frames, 2 * (317 - 299));
  EXPECT_FALSE(rep.pages.empty());
}

TEST(BisectTest, ContentMismatchIsAnError) {
  const Replay a = record_torture(100, 50, Rng(14));
  auto duel = games::make_machine("duel");
  SyncConfig cfg;
  Replay b(duel->content_id(), cfg);
  const BisectReport rep = bisect_replays(a, b, torture_factory());
  EXPECT_EQ(rep.verdict, "error");
  EXPECT_FALSE(rep.error.empty());
}

TEST(BisectTest, ReplayVsTimelineFindsTamperedFrame) {
  // Archive the per-frame digests of the session, then corrupt the
  // archived hash of frame 387 only: every keyframe still agrees, so the
  // bisector must fall back to a full gap-by-gap audit — and still name
  // the exact frame, with the timeline ("b") as the side that left the
  // line.
  const Replay a = record_torture(500, 150, Rng(15));
  FrameTimeline timeline;
  auto m = games::make_machine("torture");
  ASSERT_TRUE(a.apply(*m,
                      [&](FrameNo f, std::uint64_t h) {
                        FrameRecord rec;
                        rec.frame = f;
                        rec.state_hash = h;
                        timeline.add(rec);
                      },
                      emu::kStateDigestVersion));

  const BisectReport clean =
      bisect_replay_vs_timeline(a, timeline, emu::kStateDigestVersion, torture_factory());
  EXPECT_EQ(clean.verdict, "identical");

  FrameTimeline tampered = timeline;
  tampered.set_state_hash(387, 0xBAD0BAD0BAD0BAD0ull);
  const BisectReport rep = bisect_replay_vs_timeline(a, tampered, emu::kStateDigestVersion,
                                                    torture_factory());
  EXPECT_EQ(rep.verdict, "diverged");
  EXPECT_EQ(rep.first_divergent_frame, 387);
  EXPECT_EQ(rep.diverged_side, "b");
  EXPECT_EQ(rep.keyframe_used, 299);       // restore point of the bad gap
  EXPECT_LE(rep.resimulated_frames, 387);  // full audit, minus keyframe frames
  EXPECT_TRUE(rep.pages.empty());          // a timeline carries no state

  // A real desync is monotone — every archived hash from 387 on differs —
  // so keyframe 449 disagrees and brackets the divergence to one gap of
  // re-simulation.
  FrameTimeline desynced = timeline;
  for (FrameNo f = 387; f < 500; ++f) {
    desynced.set_state_hash(f, 0xBAD0000000000000ull + static_cast<std::uint64_t>(f));
  }
  const BisectReport fast = bisect_replay_vs_timeline(a, desynced, emu::kStateDigestVersion,
                                                     torture_factory());
  EXPECT_EQ(fast.verdict, "diverged");
  EXPECT_EQ(fast.first_divergent_frame, 387);
  EXPECT_EQ(fast.diverged_side, "b");
  EXPECT_EQ(fast.keyframe_used, 299);      // keyframe evidence bracketed it
  EXPECT_LE(fast.resimulated_frames, 150); // ...to one interval of resim
}

TEST(BisectTest, RollbackRecordingBisectsOverConfirmedFramesOnly) {
  // A rollback session's recording carries only confirmed frames and
  // confirmed-state keyframes; the bisector needs no mode flag — forging a
  // mutation into a confirmed keyframe is found exactly like lockstep.
  testbed::ExperimentConfig cfg;
  cfg.frames = 300;
  cfg.sync.rollback = true;
  cfg.sync.replay_keyframe_interval = 80;
  cfg.set_rtt(milliseconds(40));
  const auto r = testbed::run_experiment(cfg);
  ASSERT_TRUE(r.converged());
  ASSERT_TRUE(r.site[0].rollback_mode);
  const Replay& a = r.site[0].replay;
  ASSERT_GE(a.keyframes().size(), 2u);
  for (const ReplayKeyframe& kf : a.keyframes()) {
    ASSERT_LT(kf.frame, a.frames());  // confirmed history only
  }

  const auto factory = [&cfg]() -> std::unique_ptr<emu::IDeterministicGame> {
    return games::make_machine(cfg.game);
  };
  const BisectReport clean = bisect_replays(a, r.site[1].replay, factory);
  EXPECT_EQ(clean.verdict, "identical");

  Replay b = a;
  const FrameNo victim = b.keyframes().back().frame;
  ReplayKeyframe& kf = b.keyframes_mutable().back();
  const std::size_t header = kf.state.size() - (0x10000 - emu::kRamBase);
  kf.state[header + 5 * emu::kPageSize] ^= 0x80;
  auto scratch = games::make_machine(cfg.game);
  ASSERT_TRUE(scratch->load_state(kf.state));
  kf.digest = scratch->state_digest(b.digest_version());

  const BisectReport rep = bisect_replays(a, b, factory);
  EXPECT_EQ(rep.verdict, "diverged");
  EXPECT_EQ(rep.first_divergent_frame, victim);
  EXPECT_EQ(rep.diverged_side, "b");
  ASSERT_EQ(rep.pages.size(), 1u);
  EXPECT_EQ(rep.pages[0].page, 5);
}

TEST(BisectTest, ReportJsonIsDeterministic) {
  const Replay a = record_torture(600, 150, Rng(16));
  Replay b = a;
  mutate_keyframe(&b, 299, 7);
  const std::string j1 = bisect_report_to_json(bisect_replays(a, b, torture_factory()));
  const std::string j2 = bisect_report_to_json(bisect_replays(a, b, torture_factory()));
  EXPECT_EQ(j1, j2);
  EXPECT_NE(j1.find("\"schema\":\"rtct.bisect.v1\""), std::string::npos);
  EXPECT_NE(j1.find("\"first_divergent_frame\":299"), std::string::npos);
  EXPECT_NE(j1.find("\"page\":7"), std::string::npos);
}

TEST(BisectTest, NoKeyframesFallsBackToGenesisResimulation) {
  // v1-style recordings (no keyframes) still bisect — from genesis, with
  // per-frame stepping once the inputs split.
  auto m1 = games::make_machine("torture");
  auto m2 = games::make_machine("torture");
  SyncConfig cfg;
  cfg.replay_keyframe_interval = 0;
  Replay a(m1->content_id(), cfg);
  Replay b(m2->content_id(), cfg);
  Rng rng(17);
  for (int f = 0; f < 200; ++f) {
    const auto input = static_cast<InputWord>(rng.next_u64());
    a.record(input);
    b.record(f >= 123 ? static_cast<InputWord>(input ^ 1) : input);
  }
  const BisectReport rep = bisect_replays(a, b, torture_factory());
  EXPECT_EQ(rep.verdict, "diverged");
  EXPECT_EQ(rep.first_input_divergence, 123);
  EXPECT_EQ(rep.first_divergent_frame, 123);
  EXPECT_EQ(rep.keyframe_used, -1);
  EXPECT_EQ(rep.diverged_side, "input");
}

}  // namespace
}  // namespace rtct::core
