// The GameCore registry: qualified-name resolution, the core/game
// catalogue, render access without downcasting, and — the paper's §2
// "same game image" rule made cross-core — the regression that two sites
// loading the *same game name* on *different cores* refuse to pair. Also
// the hostile-snapshot contract both paged cores share.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/core/bisect.h"
#include "src/core/replay.h"
#include "src/core/session.h"
#include "src/cores/agent86/isa.h"
#include "src/cores/registry.h"
#include "src/emu/cpu.h"
#include "src/emu/isa.h"
#include "src/emu/game.h"
#include "src/testbed/experiment.h"

namespace rtct::cores {
namespace {

TEST(SplitQualifiedTest, BareNamesResolveToDefaultCore) {
  const auto q = split_qualified("duel");
  EXPECT_EQ(q.core, "ac16");
  EXPECT_EQ(q.game, "duel");
}

TEST(SplitQualifiedTest, QualifiedNamesSplitAtColon) {
  const auto q = split_qualified("agent86:skirmish");
  EXPECT_EQ(q.core, "agent86");
  EXPECT_EQ(q.game, "skirmish");
}

TEST(RegistryTest, BuiltInCoresAreRegistered) {
  auto& reg = CoreRegistry::instance();
  EXPECT_NE(reg.core("ac16"), nullptr);
  EXPECT_NE(reg.core("agent86"), nullptr);
  EXPECT_NE(reg.core("native"), nullptr);
  EXPECT_EQ(reg.core("zx81"), nullptr);
}

TEST(RegistryTest, MakeGameResolvesBareAndQualifiedNames) {
  // Bare name: backwards compatible with every existing CLI flag.
  auto bare = make_game("duel");
  ASSERT_NE(bare, nullptr);
  EXPECT_EQ(bare->content_name(), "ac16:duel");

  auto qualified = make_game("ac16:duel");
  ASSERT_NE(qualified, nullptr);
  EXPECT_EQ(qualified->content_id(), bare->content_id());

  auto a86 = make_game("agent86:skirmish");
  ASSERT_NE(a86, nullptr);
  EXPECT_EQ(a86->content_name(), "agent86:skirmish");

  auto native = make_game("native:cellwars");
  ASSERT_NE(native, nullptr);
  EXPECT_EQ(native->content_name(), "native:cellwars");

  EXPECT_EQ(make_game("ac16:nosuchgame"), nullptr);
  EXPECT_EQ(make_game("nosuchcore:duel"), nullptr);
}

TEST(RegistryTest, HasGameAgreesWithMakeGame) {
  std::vector<std::string> names = {"duel", "ac16:nosuchgame", "nosuchcore:duel",
                                    "agent86:duel", ""};
  for (const auto& e : list_games()) names.push_back(e.qualified());
  for (const auto& name : names) {
    EXPECT_EQ(has_game(name), make_game(name) != nullptr) << name;
  }
  EXPECT_TRUE(has_game("duel"));
  EXPECT_FALSE(has_game("agent86:duel"));
}

TEST(RegistryTest, CatalogueCoversAllCoresWithDistinctContentIds) {
  const auto entries = list_games();
  std::set<std::string> cores_seen;
  std::set<std::uint64_t> ids;
  for (const auto& e : entries) {
    cores_seen.insert(e.core);
    EXPECT_NE(e.content_id, 0u) << e.qualified();
    EXPECT_TRUE(ids.insert(e.content_id).second)
        << "duplicate content id for " << e.qualified();
    // The catalogue's id matches what a live instance reports.
    auto g = make_game(e.qualified());
    ASSERT_NE(g, nullptr) << e.qualified();
    EXPECT_EQ(g->content_id(), e.content_id) << e.qualified();
    EXPECT_EQ(g->content_name(), e.qualified());
  }
  EXPECT_TRUE(cores_seen.count("ac16"));
  EXPECT_TRUE(cores_seen.count("agent86"));
  EXPECT_TRUE(cores_seen.count("native"));
}

TEST(RegistryTest, ContentIdRoundTripsThroughLookup) {
  for (const auto& e : list_games()) {
    auto name = find_content_name(e.content_id);
    ASSERT_TRUE(name.has_value()) << e.qualified();
    EXPECT_EQ(*name, e.qualified());
    auto g = make_game_for_content(e.content_id);
    ASSERT_NE(g, nullptr) << e.qualified();
    EXPECT_EQ(g->content_id(), e.content_id);
  }
  EXPECT_EQ(find_content_name(0xDEADBEEF), std::nullopt);
  EXPECT_EQ(make_game_for_content(0xDEADBEEF), nullptr);
}

TEST(RegistryTest, EveryCoreRendersWithoutDowncasting) {
  // The testbed/tools contract: render access goes through
  // IDeterministicGame::renderable(), never dynamic_cast.
  for (const char* name : {"ac16:duel", "agent86:pong", "native:cellwars"}) {
    auto g = make_game(name);
    ASSERT_NE(g, nullptr) << name;
    const emu::IRenderableGame* r = g->renderable();
    ASSERT_NE(r, nullptr) << name;
    EXPECT_GT(r->fb_cols(), 0) << name;
    EXPECT_GT(r->fb_rows(), 0) << name;
    EXPECT_EQ(r->framebuffer().size(),
              static_cast<std::size_t>(r->fb_cols() * r->fb_rows()))
        << name;
  }
}

TEST(RegistryTest, SameGameNameOnDifferentCoresHasDifferentContentId) {
  // "pong" exists on both ac16 and agent86 — same name, different images.
  auto ac16 = make_game("ac16:pong");
  auto a86 = make_game("agent86:pong");
  ASSERT_NE(ac16, nullptr);
  ASSERT_NE(a86, nullptr);
  EXPECT_NE(ac16->content_id(), a86->content_id());
}

// Delivers a poll()ed session message from one side into the other.
bool relay(core::SessionControl& from, core::SessionControl& to, Time now) {
  if (auto m = from.poll(now)) {
    to.ingest(*m, now);
    return true;
  }
  return false;
}

TEST(CrossCorePairingTest, SameNameDifferentCoreRefusesHandshake) {
  // §2's "same game image" requirement, cross-core: a site running
  // ac16:pong and a site running agent86:pong must NOT pair, even though
  // both typed "pong".
  auto ac16 = make_game("ac16:pong");
  auto a86 = make_game("agent86:pong");
  ASSERT_NE(ac16, nullptr);
  ASSERT_NE(a86, nullptr);

  core::SessionControl master(0, ac16->content_id(), core::SyncConfig{});
  core::SessionControl slave(1, a86->content_id(), core::SyncConfig{});

  ASSERT_TRUE(relay(slave, master, 0));  // incompatible HELLO arrives
  EXPECT_FALSE(master.running());
  EXPECT_FALSE(master.poll(0).has_value());  // no START goes back
  EXPECT_FALSE(slave.running());

  // Control: the same core on both sides pairs fine.
  core::SessionControl m2(0, a86->content_id(), core::SyncConfig{});
  core::SessionControl s2(1, a86->content_id(), core::SyncConfig{});
  ASSERT_TRUE(relay(s2, m2, 0));
  EXPECT_TRUE(m2.running());
}

// ---------------------------------------------------------------------------
// The transparency proof, end to end: the full distributed stack — lockstep,
// rollback, spectators, RTCTRPL2 replay seek, and page-level divergence
// bisection — over a core that shares no code with the AC16 interpreter.

TEST(Agent86TestbedTest, TwoSiteLockstepSessionConverges) {
  testbed::ExperimentConfig cfg;
  cfg.game = "agent86:skirmish";
  cfg.frames = 600;
  cfg.set_rtt(milliseconds(60));
  cfg.net_a_to_b.loss = 0.03;
  const auto r = testbed::run_experiment(cfg);
  EXPECT_TRUE(r.converged());
  EXPECT_EQ(r.first_divergence(), -1);
  EXPECT_EQ(r.site[0].desync_frame, -1);
  // Both sites rendered the same 64x32 agent86 screen.
  EXPECT_EQ(r.site[0].fb_cols, a86::kFbCols);
  EXPECT_EQ(r.site[0].fb_rows, a86::kFbRows);
  EXPECT_EQ(r.site[0].final_framebuffer, r.site[1].final_framebuffer);
  // The recording carries the qualified name, so offline tooling can
  // re-instantiate the right core without a content-id scan.
  EXPECT_EQ(r.site[0].replay.game_name(), "agent86:skirmish");
}

TEST(Agent86TestbedTest, RollbackSessionConvergesAndReplays) {
  testbed::ExperimentConfig cfg;
  cfg.game = "agent86:pong";
  cfg.frames = 600;
  cfg.set_rtt(milliseconds(80));
  cfg.sync.rollback = true;
  const auto r = testbed::run_experiment(cfg);
  ASSERT_TRUE(r.converged());
  EXPECT_TRUE(r.site[0].rollback_mode);
  // The confirmed-history recording replays onto a fresh replica.
  auto replica = make_game("agent86:pong");
  ASSERT_NE(replica, nullptr);
  EXPECT_TRUE(r.site[0].replay.apply(*replica));
}

TEST(Agent86TestbedTest, RollbackSlavePacesToTheMasterPastLockstepsThreshold) {
  // Algorithm 4 must subtract the lag the session runs with — under
  // rollback, the input delay, not BufFrame. Subtracting BufFrame (6) from
  // a watermark offset by the 2-frame delay parks the slave ~4 frames
  // (~67 ms) behind the master. Shape: 150 ms RTT with jitter and loss,
  // where rollback is the mode to use.
  testbed::ExperimentConfig cfg;
  cfg.game = "agent86:skirmish";
  cfg.frames = 900;
  cfg.sync.rollback = true;
  for (auto* net : {&cfg.net_a_to_b, &cfg.net_b_to_a}) {
    net->delay = milliseconds(75);
    net->jitter = milliseconds(10);
    net->loss = 0.02;
  }
  const auto r = testbed::run_experiment(cfg);
  ASSERT_TRUE(r.converged());
  ASSERT_TRUE(r.site[0].rollback_mode);
  EXPECT_EQ(r.site[0].buf_frames, cfg.sync.rollback_input_delay);
  EXPECT_LT(r.synchrony_ms(), 20.0);
}

TEST(Agent86TestbedTest, SpectatorJoinsAnAgent86Session) {
  testbed::ExperimentConfig cfg;
  cfg.game = "agent86:skirmish";
  cfg.frames = 500;
  cfg.set_rtt(milliseconds(40));
  cfg.observers = 1;
  cfg.observer_join_delay = seconds(2);
  const auto r = testbed::run_experiment(cfg);
  ASSERT_TRUE(r.converged());
  EXPECT_TRUE(r.observers_consistent());  // snapshot + feed on agent86
}

/// Records an agent86 skirmish session with embedded keyframes.
core::Replay record_a86(int frames, int interval, Rng rng) {
  auto m = make_game("agent86:skirmish");
  core::SyncConfig cfg;
  cfg.replay_keyframe_interval = interval;
  core::Replay rec(m->content_id(), cfg, m->content_name());
  for (int f = 0; f < frames; ++f) {
    const auto input = static_cast<InputWord>(rng.next_u64());
    m->step_frame(input);
    rec.record(input);
    if (rec.keyframe_due()) rec.record_keyframe(*m);
  }
  return rec;
}

TEST(Agent86ReplayTest, SeekMatchesLinearReplayThroughTheContainer) {
  const core::Replay rec = record_a86(450, 100, Rng(7));
  // Round-trip through the serialized container (name included).
  const auto parsed = core::Replay::parse(rec.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->game_name(), "agent86:skirmish");
  ASSERT_FALSE(parsed->keyframes().empty());

  // Linear digests for the whole session.
  std::vector<std::uint64_t> linear;
  auto lin = make_game("agent86:skirmish");
  ASSERT_TRUE(parsed->apply(*lin, [&](FrameNo, std::uint64_t d) { linear.push_back(d); }, 2));

  auto m = make_game("agent86:skirmish");
  for (const FrameNo f : {FrameNo{0}, FrameNo{99}, FrameNo{250}, FrameNo{449}, FrameNo{101}}) {
    core::Replay::SeekStats stats;
    const auto d = parsed->seek(*m, f, 2, &stats);
    ASSERT_TRUE(d.has_value()) << "frame " << f;
    EXPECT_EQ(*d, linear[static_cast<std::size_t>(f)]) << "frame " << f;
    EXPECT_LT(stats.resimulated, 101) << "keyframe not used at frame " << f;
  }
}

TEST(Agent86BisectTest, MutatedKeyframeNamesRealPageAddress) {
  // Flip one RAM byte inside an embedded keyframe and restamp its digest:
  // the bisector must name that frame and that 256 B page with its real
  // agent86 address (page_digest_base() == 0 — flat 64 KiB, unlike AC16's
  // kRamBase-offset pages).
  const int kPage = 0x40;  // scratch RAM the games never touch
  const core::Replay a = record_a86(600, 150, Rng(21));
  core::Replay b = a;
  bool mutated = false;
  for (core::ReplayKeyframe& kf : b.keyframes_mutable()) {
    if (kf.frame != 449) continue;
    const std::size_t header = kf.state.size() - a86::kMemSize;
    kf.state[header + kPage * emu::kPageSize + 7] ^= 0x01;
    auto scratch = make_game("agent86:skirmish");
    ASSERT_TRUE(scratch->load_state(kf.state));
    kf.digest = scratch->state_digest(b.digest_version());
    mutated = true;
  }
  ASSERT_TRUE(mutated) << "no keyframe at frame 449";

  const auto factory = [] { return make_game("agent86:skirmish"); };
  const core::BisectReport rep = core::bisect_replays(a, b, factory);
  EXPECT_EQ(rep.verdict, "diverged");
  EXPECT_EQ(rep.first_divergent_frame, 449);
  EXPECT_EQ(rep.first_input_divergence, -1);
  EXPECT_EQ(rep.diverged_side, "b");
  ASSERT_EQ(rep.pages.size(), 1u);
  EXPECT_EQ(rep.pages[0].page, kPage);
  EXPECT_EQ(rep.pages[0].addr, static_cast<std::uint32_t>(kPage * emu::kPageSize));
  EXPECT_NE(rep.pages[0].digest_a, rep.pages[0].digest_b);
}

// ---- hostile snapshots ----------------------------------------------------
// Both paged cores load snapshots through one framing (emu::PagedState).
// Every malformed snapshot is refused before the machine is touched; the
// top values save_state can write still load.

struct PagedCore {
  const char* prefix;
  std::size_t flags_at;  ///< version(1) + content id(8) + registers + pc/ip(2)
  std::uint8_t top_fault;
};
constexpr PagedCore kPagedCores[] = {
    {"ac16:", 9 + 2 * emu::kNumRegs + 2, static_cast<std::uint8_t>(emu::Fault::kBrk)},
    {"agent86:", 9 + 2 * a86::kNumRegs + 2,
     static_cast<std::uint8_t>(a86::Fault::kBudgetExceeded)},
};

std::vector<std::string> paged_games() {
  std::vector<std::string> names;
  for (const auto& e : list_games()) {
    if (e.core == "ac16" || e.core == "agent86") names.push_back(e.qualified());
  }
  return names;
}

class HostileSnapshotTest : public ::testing::TestWithParam<std::string> {};

TEST_P(HostileSnapshotTest, RejectedUntouchedAndTopValidValuesLoad) {
  const std::string& name = GetParam();
  const PagedCore* core = nullptr;
  for (const auto& c : kPagedCores) {
    if (name.starts_with(c.prefix)) core = &c;
  }
  ASSERT_NE(core, nullptr);
  const std::size_t flags_at = core->flags_at;
  const std::size_t fault_at = flags_at + 1;

  auto g = make_game(name);
  Rng rng(8);
  for (int i = 0; i < 3; ++i) g->step_frame(static_cast<InputWord>(rng.next_u64()));
  const auto old_snap = g->save_state();
  for (int i = 0; i < 3; ++i) g->step_frame(static_cast<InputWord>(rng.next_u64()));
  const auto before = g->save_state();
  const auto digest = g->state_digest(emu::kStateDigestVersion);
  ASSERT_NE(old_snap, before);

  const auto edited = [&old_snap](auto&& edit) {
    auto snap = old_snap;
    edit(snap);
    return snap;
  };
  const std::pair<const char*, std::vector<std::uint8_t>> bad[] = {
      {"wrong version", edited([](auto& s) { s[0] ^= 0xFF; })},
      {"wrong content id", edited([](auto& s) { s[3] ^= 0x01; })},
      {"one byte short", edited([](auto& s) { s.pop_back(); })},
      {"half the bytes", edited([](auto& s) { s.resize(s.size() / 2); })},
      {"one byte long", edited([](auto& s) { s.push_back(0); })},
      {"fault one past the top enumerator",
       edited([&](auto& s) { s[fault_at] = static_cast<std::uint8_t>(core->top_fault + 1); })},
      {"flags bit 3", edited([&](auto& s) { s[flags_at] |= 0x08; })},
  };
  for (const auto& [what, snap] : bad) {
    EXPECT_FALSE(g->load_state(snap)) << what;
    EXPECT_EQ(g->save_state(), before) << what;
    EXPECT_EQ(g->state_digest(emu::kStateDigestVersion), digest) << what;
  }

  const auto top = edited([&](auto& s) {
    s[fault_at] = core->top_fault;
    s[flags_at] = 0x07;
  });
  ASSERT_TRUE(g->load_state(top));
  EXPECT_TRUE(g->faulted());
  EXPECT_EQ(g->save_state(), top);
  ASSERT_TRUE(g->load_state(old_snap));  // and the machine is still usable
  EXPECT_EQ(g->save_state(), old_snap);
}

INSTANTIATE_TEST_SUITE_P(PagedCores, HostileSnapshotTest, ::testing::ValuesIn(paged_games()),
                         [](const auto& param_info) {
                           std::string n = param_info.param;
                           std::replace(n.begin(), n.end(), ':', '_');
                           return n;
                         });

}  // namespace
}  // namespace rtct::cores
