// Tests for session recording / deterministic replay.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>

#include "src/chaos/fault_script.h"
#include "src/chaos/soak.h"
#include "src/common/hash.h"
#include "src/common/random.h"
#include "src/core/replay.h"
#include "src/games/roms.h"
#include "src/testbed/experiment.h"

namespace rtct::core {
namespace {

Replay make_recorded_session(const char* game, int frames, std::uint64_t seed,
                             std::uint64_t* final_hash) {
  auto m = games::make_machine(game);
  Replay rec(m->content_id(), SyncConfig{});
  Rng rng(seed);
  for (int f = 0; f < frames; ++f) {
    const auto input = static_cast<InputWord>(rng.next_u64());
    m->step_frame(input);
    rec.record(input);
  }
  *final_hash = m->state_hash();
  return rec;
}

TEST(ReplayTest, SerializeParseRoundTrip) {
  std::uint64_t hash;
  const Replay rec = make_recorded_session("duel", 100, 5, &hash);
  const auto parsed = Replay::parse(rec.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->content_id(), rec.content_id());
  EXPECT_EQ(parsed->cfps(), 60);
  EXPECT_EQ(parsed->buf_frames(), 6);
  EXPECT_EQ(parsed->inputs(), rec.inputs());
}

TEST(ReplayTest, ApplyReproducesTheSessionBitExactly) {
  std::uint64_t original_hash;
  const Replay rec = make_recorded_session("torture", 200, 7, &original_hash);
  auto replica = games::make_machine("torture");
  FrameNo frames_seen = 0;
  ASSERT_TRUE(rec.apply(*replica, [&](FrameNo f, std::uint64_t) { frames_seen = f; }));
  EXPECT_EQ(frames_seen, 199);
  EXPECT_EQ(replica->state_hash(), original_hash);
}

TEST(ReplayTest, ApplyRefusesWrongGame) {
  std::uint64_t hash;
  const Replay rec = make_recorded_session("pong", 10, 1, &hash);
  auto other = games::make_machine("tron");
  EXPECT_FALSE(rec.apply(*other));
}

TEST(ReplayTest, CorruptionRejected) {
  std::uint64_t hash;
  const Replay rec = make_recorded_session("pong", 50, 2, &hash);
  auto bytes = rec.serialize();
  EXPECT_TRUE(Replay::parse(bytes).has_value());
  bytes[bytes.size() / 2] ^= 1;
  EXPECT_FALSE(Replay::parse(bytes).has_value());
  bytes[bytes.size() / 2] ^= 1;
  bytes.resize(bytes.size() - 1);
  EXPECT_FALSE(Replay::parse(bytes).has_value());
  EXPECT_FALSE(Replay::parse({}).has_value());
}

TEST(ReplayTest, GameNameRoundTripsInBothContainerVersions) {
  // v1 (no keyframe policy) carries the optional name trailer too.
  auto m = games::make_machine("duel");
  SyncConfig v1_cfg;
  v1_cfg.replay_keyframe_interval = 0;  // linear recording => v1 container
  Replay v1(m->content_id(), v1_cfg, m->content_name());
  v1.record(0x0101);
  ASSERT_EQ(v1.container_version(), 1);
  auto parsed1 = Replay::parse(v1.serialize());
  ASSERT_TRUE(parsed1.has_value());
  EXPECT_EQ(parsed1->game_name(), "ac16:duel");

  SyncConfig kf_cfg;
  kf_cfg.replay_keyframe_interval = 10;
  Replay v2(m->content_id(), kf_cfg, "agent86:skirmish");
  for (int f = 0; f < 25; ++f) {
    m->step_frame(0);
    v2.record(0);
    if (v2.keyframe_due()) v2.record_keyframe(*m);
  }
  ASSERT_EQ(v2.container_version(), 2);
  auto parsed2 = Replay::parse(v2.serialize());
  ASSERT_TRUE(parsed2.has_value());
  EXPECT_EQ(parsed2->game_name(), "agent86:skirmish");
  // branch() propagates the name into the fork.
  EXPECT_EQ(parsed2->branch(12).game_name(), "agent86:skirmish");
}

TEST(ReplayTest, NamelessRecordingsSerializeAndParseAsBefore) {
  // A Replay with no name must serialize byte-identically to the
  // pre-field layout — and a legacy (name-less) file parses with an
  // empty name. The two halves of the compatibility promise.
  std::uint64_t hash;
  const Replay named = make_recorded_session("pong", 30, 4, &hash);
  auto bytes = named.serialize();  // make_recorded_session passes no name
  const auto parsed = Replay::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->game_name().empty());

  // Forged trailer corruption: a zero-length name field is rejected
  // outright (an honest writer omits the section instead).
  bytes.insert(bytes.end() - 8, 0x00);
  std::uint64_t crc = fnv1a64({bytes.data(), bytes.size() - 8});
  std::memcpy(bytes.data() + bytes.size() - 8, &crc, 8);
  EXPECT_FALSE(Replay::parse(bytes).has_value());

  // A declared name length that overruns the remaining bytes is rejected.
  auto good = named.serialize();
  good.insert(good.end() - 8, {0x04, 'd', 'u'});  // says 4, carries 2
  crc = fnv1a64({good.data(), good.size() - 8});
  std::memcpy(good.data() + good.size() - 8, &crc, 8);
  EXPECT_FALSE(Replay::parse(good).has_value());
}

TEST(ReplayTest, FileRoundTrip) {
  std::uint64_t hash;
  const Replay rec = make_recorded_session("tanks", 60, 3, &hash);
  const std::string path = ::testing::TempDir() + "/rtct_replay_test.rpl";
  ASSERT_TRUE(rec.save_file(path));
  const auto back = Replay::load_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->inputs(), rec.inputs());
  std::remove(path.c_str());
  EXPECT_FALSE(Replay::load_file("/no/such/replay.rpl").has_value());
}

TEST(ReplayTest, DistributedSessionRecordingReplaysIdentically) {
  // End-to-end: record a full two-site lockstep session in the testbed,
  // then replay either site's recording on a fresh machine and match the
  // recorded per-frame hashes.
  testbed::ExperimentConfig cfg;
  cfg.frames = 300;
  cfg.set_rtt(milliseconds(60));
  cfg.net_a_to_b.loss = 0.03;
  const auto r = testbed::run_experiment(cfg);
  ASSERT_TRUE(r.converged());

  // Both sites recorded the identical session.
  ASSERT_EQ(r.site[0].replay.inputs(), r.site[1].replay.inputs());
  ASSERT_EQ(r.site[0].replay.frames(), 300);

  auto replica = games::make_machine(cfg.game);
  std::size_t mismatches = 0;
  ASSERT_TRUE(r.site[0].replay.apply(
      *replica,
      [&](FrameNo f, std::uint64_t h) {
        if (r.site[0].timeline.records()[static_cast<std::size_t>(f)].state_hash != h) {
          ++mismatches;
        }
      },
      emu::kStateDigestVersion));
  EXPECT_EQ(mismatches, 0u);
}

TEST(ReplayTest, ChaoticSessionRecordingReplaysIdentically) {
  // The chaos-harness version of the round trip: a session driven by a
  // seeded fault script (loss bursts, stalls, path flips...) must still
  // record a replay that reproduces every frame hash on a fresh replica —
  // network chaos may stall the session but can never leak into the
  // deterministic input record.
  chaos::FaultScript script =
      chaos::generate_fault_script(21, chaos::Topology::kTwoSite);
  const testbed::ExperimentConfig cfg = chaos::lower_two_site(script);
  const auto r = testbed::run_experiment(cfg);
  ASSERT_TRUE(r.converged());
  ASSERT_EQ(r.site[0].replay.inputs(), r.site[1].replay.inputs());
  ASSERT_EQ(r.site[0].replay.frames(), script.frames);

  auto replica = cfg.game_factory();
  std::size_t mismatches = 0;
  ASSERT_TRUE(r.site[0].replay.apply(
      *replica,
      [&](FrameNo f, std::uint64_t h) {
        if (r.site[0].timeline.records()[static_cast<std::size_t>(f)].state_hash != h) {
          ++mismatches;
        }
      },
      emu::kStateDigestVersion));
  EXPECT_EQ(mismatches, 0u);
}

// ---- RTCTRPL2: keyframes, seek, branch --------------------------------------

/// Records `frames` of torture with keyframes every `interval`, capturing
/// the straight-line digest of EVERY frame under both digest versions —
/// the ground truth every random-access path must reproduce.
Replay make_keyframed_session(int frames, int interval, std::uint64_t seed,
                              std::vector<std::uint64_t>* linear_v1,
                              std::vector<std::uint64_t>* linear_v3) {
  auto m = games::make_machine("torture");
  SyncConfig cfg;
  cfg.replay_keyframe_interval = interval;
  Replay rec(m->content_id(), cfg);
  Rng rng(seed);
  for (int f = 0; f < frames; ++f) {
    const auto input = static_cast<InputWord>(rng.next_u64());
    m->step_frame(input);
    rec.record(input);
    if (rec.keyframe_due()) rec.record_keyframe(*m);
    if (linear_v1 != nullptr) linear_v1->push_back(m->state_digest(1));
    if (linear_v3 != nullptr) linear_v3->push_back(m->state_digest(emu::kStateDigestVersion));
  }
  return rec;
}

TEST(ReplayTest, SeekEqualsLinearEverywhereProperty) {
  // The RTCTRPL2 correctness property: for ANY frame f, seeking (restore
  // nearest keyframe + re-simulate) must land on the exact state the
  // straight-line replay reaches at f — under digest v1 AND v3, including
  // on/just-before/just-after every keyframe boundary.
  constexpr int kFrames = 2000;
  constexpr int kInterval = 150;
  std::vector<std::uint64_t> v1, v3;
  const Replay rec = make_keyframed_session(kFrames, kInterval, 99, &v1, &v3);
  ASSERT_EQ(rec.container_version(), 2);
  ASSERT_FALSE(rec.keyframes().empty());

  // The parsed copy must behave identically to the in-memory recording.
  const auto parsed = Replay::parse(rec.serialize());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->keyframes(), rec.keyframes());

  std::vector<FrameNo> targets;
  Rng rng(1234);
  for (int i = 0; i < 200; ++i) {
    targets.push_back(static_cast<FrameNo>(rng.uniform(0, kFrames - 1)));
  }
  for (const ReplayKeyframe& kf : rec.keyframes()) {
    if (kf.frame > 0) targets.push_back(kf.frame - 1);
    targets.push_back(kf.frame);
    if (kf.frame + 1 < kFrames) targets.push_back(kf.frame + 1);
  }

  auto m = games::make_machine("torture");
  for (const FrameNo f : targets) {
    Replay::SeekStats st;
    const auto d1 = parsed->seek(*m, f, 1, &st);
    ASSERT_TRUE(d1.has_value()) << "frame " << f;
    EXPECT_EQ(*d1, v1[static_cast<std::size_t>(f)]) << "digest v1 at frame " << f;
    EXPECT_LT(st.resimulated, kInterval + 1) << "seek cost blew the interval bound";
    const auto d3 = parsed->seek(*m, f, emu::kStateDigestVersion);
    ASSERT_TRUE(d3.has_value()) << "frame " << f;
    EXPECT_EQ(*d3, v3[static_cast<std::size_t>(f)]) << "digest v3 at frame " << f;
  }
}

TEST(ReplayTest, SeekUsesNearestKeyframeAndReportsStats) {
  const Replay rec = make_keyframed_session(400, 100, 5, nullptr, nullptr);
  // Writer places keyframes at 99, 199, 299, 399.
  ASSERT_EQ(rec.keyframes().size(), 4u);
  EXPECT_EQ(rec.keyframes()[0].frame, 99);
  auto m = games::make_machine("torture");

  Replay::SeekStats st;
  ASSERT_TRUE(rec.seek(*m, 250, 0, &st).has_value());
  EXPECT_EQ(st.keyframe, 199);
  EXPECT_EQ(st.resimulated, 51);

  // Before the first keyframe: genesis restart.
  ASSERT_TRUE(rec.seek(*m, 42, 0, &st).has_value());
  EXPECT_EQ(st.keyframe, -1);
  EXPECT_EQ(st.resimulated, 43);

  // Dead on a keyframe: zero re-simulation.
  ASSERT_TRUE(rec.seek(*m, 299, 0, &st).has_value());
  EXPECT_EQ(st.keyframe, 299);
  EXPECT_EQ(st.resimulated, 0);

  // Out of range.
  EXPECT_FALSE(rec.seek(*m, 400).has_value());
  EXPECT_FALSE(rec.seek(*m, -1).has_value());
}

TEST(ReplayTest, CorruptKeyframeStateFailsSeekNotParse) {
  const Replay rec = make_keyframed_session(300, 100, 6, nullptr, nullptr);
  auto parsed = Replay::parse(rec.serialize());
  ASSERT_TRUE(parsed.has_value());
  // Flip one byte of an embedded snapshot's RAM image. parse() cannot
  // catch this (we also re-stamp nothing — the flip happens after parse),
  // but seek()'s restore-integrity check must.
  ASSERT_EQ(parsed->keyframes().size(), 3u);
  parsed->keyframes_mutable()[1].state.back() ^= 0x40;
  auto m = games::make_machine("torture");
  EXPECT_FALSE(parsed->seek(*m, 250).has_value());   // lands on keyframe 199
  EXPECT_TRUE(parsed->seek(*m, 150).has_value());    // keyframe 99 is intact
}

TEST(ReplayTest, RefusesDigestVersion2WithAnExplicitError) {
  // Recordings stamp digest version 3. A version-2 file's keyframe digests
  // cannot be verified any more, so parse() refuses it and says why rather
  // than failing every seek as "corrupt". Version 1 files still parse.
  const Replay rec = make_keyframed_session(120, 50, 3, nullptr, nullptr);
  EXPECT_EQ(rec.digest_version(), emu::kStateDigestVersion);
  const auto good = rec.serialize();
  constexpr std::size_t kOffDigestVersion = 24;  // see the RTCTRPL2 layout
  ASSERT_EQ(good[kOffDigestVersion], emu::kStateDigestVersion);
  const auto restamp = [&good](std::uint8_t version) {
    auto bytes = good;
    bytes[kOffDigestVersion] = version;
    const std::uint64_t crc = fnv1a64({bytes.data(), bytes.size() - 8});
    std::memcpy(bytes.data() + bytes.size() - 8, &crc, 8);
    return bytes;
  };
  std::string why;
  EXPECT_FALSE(Replay::parse(restamp(2), &why).has_value());
  EXPECT_NE(why.find("digest version 2 is not supported"), std::string::npos) << why;
  const auto v1 = Replay::parse(restamp(1));
  ASSERT_TRUE(v1.has_value());
  EXPECT_EQ(v1->digest_version(), 1);
  const auto v3 = Replay::parse(good);
  ASSERT_TRUE(v3.has_value());
  EXPECT_EQ(v3->digest_version(), emu::kStateDigestVersion);
}

TEST(ReplayTest, BranchKeepsPrefixInputsAndKeyframes) {
  std::vector<std::uint64_t> v3;
  const Replay rec = make_keyframed_session(500, 100, 7, nullptr, &v3);
  const Replay cut = rec.branch(250);
  EXPECT_EQ(cut.frames(), 251);
  ASSERT_EQ(cut.keyframes().size(), 2u);  // 99 and 199
  EXPECT_EQ(cut.keyframes()[1].frame, 199);
  EXPECT_EQ(cut.content_id(), rec.content_id());

  // The fork replays to exactly the state the original had at frame 250.
  auto m = games::make_machine("torture");
  const auto d = cut.seek(*m, 250, emu::kStateDigestVersion);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, v3[250]);

  // Branch past the end is a full copy; branch before 0 is empty.
  EXPECT_EQ(rec.branch(10'000).frames(), 500);
  EXPECT_EQ(rec.branch(-1).frames(), 0);
}

TEST(ReplayTest, V1ContainerStillParsesAndReplays) {
  // Writers with keyframes disabled must keep emitting the PR-1 linear
  // container, and the parser must keep accepting it.
  auto m = games::make_machine("duel");
  SyncConfig cfg;
  cfg.replay_keyframe_interval = 0;
  Replay rec(m->content_id(), cfg);
  Rng rng(8);
  for (int f = 0; f < 120; ++f) {
    const auto input = static_cast<InputWord>(rng.next_u64());
    m->step_frame(input);
    rec.record(input);
  }
  EXPECT_FALSE(rec.keyframe_due());  // interval 0: never due
  EXPECT_EQ(rec.container_version(), 1);
  const auto bytes = rec.serialize();
  ASSERT_GE(bytes.size(), 8u);
  EXPECT_EQ(std::memcmp(bytes.data(), "RTCTRPL1", 8), 0);

  const auto parsed = Replay::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->container_version(), 1);
  EXPECT_EQ(parsed->keyframe_interval(), 0);
  EXPECT_TRUE(parsed->keyframes().empty());
  EXPECT_EQ(parsed->inputs(), rec.inputs());
  auto replica = games::make_machine("duel");
  ASSERT_TRUE(parsed->apply(*replica));
  EXPECT_EQ(replica->state_hash(), m->state_hash());
}

TEST(ReplayTest, ForgedFrameCountRejectedBeforeAllocation) {
  // Regression for the header-trust bug: a v1/v2 container whose declared
  // frame count exceeds the actual payload must be rejected up front —
  // previously the parser reserved `count` entries first, so a 16M forged
  // count in a 100-byte file was an OOM lever. The CRC is re-stamped so
  // this exercises the count validation itself, not the checksum.
  const auto forge = [](std::vector<std::uint8_t> bytes, std::size_t count_off) {
    const std::uint32_t huge = 0x00FF'FFFFu;
    std::memcpy(bytes.data() + count_off, &huge, 4);
    const std::uint64_t crc = fnv1a64({bytes.data(), bytes.size() - 8});
    std::memcpy(bytes.data() + bytes.size() - 8, &crc, 8);
    return bytes;
  };

  std::uint64_t hash;
  SyncConfig v1cfg;
  v1cfg.replay_keyframe_interval = 0;
  auto m = games::make_machine("pong");
  Replay v1rec(m->content_id(), v1cfg);
  for (int f = 0; f < 50; ++f) v1rec.record(static_cast<InputWord>(f));
  // v1 layout: count at offset 24; v2 layout: count at offset 29.
  EXPECT_FALSE(Replay::parse(forge(v1rec.serialize(), 24)).has_value());

  const Replay v2rec = make_recorded_session("pong", 50, 2, &hash);
  ASSERT_EQ(v2rec.container_version(), 2);
  EXPECT_FALSE(Replay::parse(forge(v2rec.serialize(), 29)).has_value());
}

TEST(ReplayTest, LockstepTestbedSessionEmbedsKeyframes) {
  // End-to-end: the distributed lockstep driver itself must now produce a
  // seekable recording whose keyframes agree with its own timeline.
  testbed::ExperimentConfig cfg;
  cfg.frames = 300;
  cfg.sync.replay_keyframe_interval = 90;
  cfg.set_rtt(milliseconds(40));
  const auto r = testbed::run_experiment(cfg);
  ASSERT_TRUE(r.converged());
  const Replay& rep = r.site[0].replay;
  ASSERT_EQ(rep.frames(), 300);
  ASSERT_EQ(rep.keyframes().size(), 3u);  // 89, 179, 269
  EXPECT_EQ(rep.keyframes()[0].frame, 89);
  for (const ReplayKeyframe& kf : rep.keyframes()) {
    EXPECT_EQ(kf.digest,
              r.site[0].timeline.records()[static_cast<std::size_t>(kf.frame)].state_hash);
  }
  // Both sites embed identical keyframes — the recording stays
  // site-independent in v2 exactly as it was in v1.
  EXPECT_EQ(r.site[0].replay.serialize(), r.site[1].replay.serialize());

  auto replica = games::make_machine(cfg.game);
  const auto d = rep.seek(*replica, 200);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, r.site[0].timeline.records()[200].state_hash);
}

TEST(ReplayTest, RollbackTestbedSessionEmbedsConfirmedKeyframes) {
  // Under rollback the recorder may only snapshot *confirmed* state; the
  // keyframes land at the first confirmed watermark past each interval
  // (not exact multiples), and every one must match the backfilled
  // confirmed timeline digest.
  testbed::ExperimentConfig cfg;
  cfg.frames = 300;
  cfg.sync.rollback = true;
  cfg.sync.replay_keyframe_interval = 90;
  cfg.set_rtt(milliseconds(40));
  const auto r = testbed::run_experiment(cfg);
  ASSERT_TRUE(r.converged());
  ASSERT_TRUE(r.site[0].rollback_mode);
  const Replay& rep = r.site[0].replay;
  ASSERT_GE(rep.keyframes().size(), 2u);
  FrameNo prev = -1;
  for (const ReplayKeyframe& kf : rep.keyframes()) {
    EXPECT_GT(kf.frame, prev);
    prev = kf.frame;
    ASSERT_LT(kf.frame, rep.frames());  // confirmed frames only
    EXPECT_EQ(kf.digest,
              r.site[0].timeline.records()[static_cast<std::size_t>(kf.frame)].state_hash);
  }
  // Seek through an embedded confirmed snapshot reproduces the timeline.
  auto replica = games::make_machine(cfg.game);
  const FrameNo target = rep.keyframes().back().frame;
  const auto d = rep.seek(*replica, target);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, r.site[0].timeline.records()[static_cast<std::size_t>(target)].state_hash);
}

TEST(ReplayTest, TruncatedFileFailsCleanly) {
  std::uint64_t hash;
  const Replay rec = make_recorded_session("tanks", 60, 4, &hash);
  const std::string path = ::testing::TempDir() + "/rtct_replay_trunc.rpl";
  ASSERT_TRUE(rec.save_file(path));
  const auto full = Replay::load_file(path);
  ASSERT_TRUE(full.has_value());

  // Re-save every strict prefix a crashed or interrupted writer could
  // leave behind: all must be rejected, none may crash.
  const auto bytes = rec.serialize();
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, std::size_t{7}, bytes.size() / 2,
        bytes.size() - 1}) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(keep));
    out.close();
    EXPECT_FALSE(Replay::load_file(path).has_value()) << keep << " bytes";
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rtct::core
