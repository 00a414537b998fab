// Golden digest table: the determinism contract pinned as data.
//
// Every registered core:game runs 300 frames of SplitMix64-scripted input;
// the per-frame state_digest(1) and state_digest(2) values are folded into
// one u64 per game and version and compared against the committed table
// below. The table was produced by the code before the shared page-digest
// cache existed, so any change to the digest functions, to the dirty-page
// bookkeeping, or to the cores' behaviour shows up here as a mismatch on
// every build leg (default, sanitize, portable switch dispatch).
//
// Two more runs must reproduce the same chains:
//   * a restore-heavy run that, every 7 frames, loads the snapshot taken
//     4 frames earlier and re-steps (with the full-rehash cross-check
//     armed) — restores must be invisible to both digest versions;
//   * the AC16 and agent86 games on their reference byte-fetch
//     interpreters, straight and restore-heavy.
//
// On a mismatch the test prints the freshly computed table in source form.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/cores/agent86/games.h"
#include "src/cores/registry.h"
#include "src/emu/machine.h"
#include "src/games/roms.h"

namespace rtct {
namespace {

constexpr int kFrames = 300;
constexpr int kRestoreEvery = 7;
constexpr int kRestoreDepth = 4;

struct Golden {
  const char* game;
  std::uint64_t v1;
  std::uint64_t v2;
};

// clang-format off
constexpr Golden kTable[] = {
    {"ac16:pong", 0xd7272547ccc869d8ull, 0x2012fe21c3573ddcull},
    {"ac16:duel", 0x69f4ed6257c45846ull, 0xf341c3fe1c526b4bull},
    {"ac16:invaders", 0xc0ef211ae1cffa90ull, 0x1b9ab39fec0621c0ull},
    {"ac16:tron", 0x123ce4a356403c3bull, 0xda6a147b0aa159d7ull},
    {"ac16:tanks", 0xfd234cb8ce0032efull, 0x804bc14fba4edd71ull},
    {"ac16:quadtron", 0x423b28c04d7e2fc8ull, 0xb4f802299192e851ull},
    {"ac16:torture", 0xa154134ea8783cc2ull, 0x3280f7972b2622c9ull},
    {"agent86:skirmish", 0x8b7e76bcbbf7a15full, 0xc86ee5226c9ad15bull},
    {"agent86:pong", 0x0136e01da47a4f9cull, 0x29ff3d5f5b17ee17ull},
    {"agent86:havoc", 0xe82db2ed6bd2de7eull, 0xc6c1d3003433863eull},
    {"native:cellwars", 0x109de438efc998a8ull, 0x109de438efc998a8ull},
};
// clang-format on

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<InputWord> scripted_inputs(const std::string& game) {
  std::uint64_t s = fnv1a64({reinterpret_cast<const std::uint8_t*>(game.data()), game.size()});
  std::vector<InputWord> in(kFrames);
  for (auto& w : in) w = static_cast<InputWord>(splitmix64(s));
  return in;
}

struct Chains {
  std::uint64_t v1;
  std::uint64_t v2;
};

Chains straight_chain(emu::IDeterministicGame& g, const std::vector<InputWord>& in) {
  Fnv1a64 c1, c2;
  for (const InputWord w : in) {
    g.step_frame(w);
    c1.update_u64(g.state_digest(1));
    c2.update_u64(g.state_digest(2));
  }
  return {c1.digest(), c2.digest()};
}

/// Same chain, but every kRestoreEvery frames the game loads the snapshot
/// taken kRestoreDepth frames earlier and re-steps the frames in between.
/// Only the first visit of each frame is folded into the chain.
Chains restore_heavy_chain(emu::IDeterministicGame& g, const std::vector<InputWord>& in) {
  Fnv1a64 c1, c2;
  std::deque<std::vector<std::uint8_t>> snaps;  // snaps.back(): state before frame f
  for (int f = 0; f < kFrames; ++f) {
    snaps.push_back(g.save_state());
    if (snaps.size() > kRestoreDepth + 1) snaps.pop_front();
    if (f % kRestoreEvery == 0 && f >= kRestoreDepth) {
      EXPECT_TRUE(g.load_state(snaps.front())) << "frame " << f;
      (void)g.state_digest(2);
      for (int j = f - kRestoreDepth; j < f; ++j) {
        g.step_frame(in[static_cast<std::size_t>(j)]);
        (void)g.state_digest(2);
      }
    }
    g.step_frame(in[static_cast<std::size_t>(f)]);
    c1.update_u64(g.state_digest(1));
    c2.update_u64(g.state_digest(2));
  }
  return {c1.digest(), c2.digest()};
}

const Golden* find_golden(const std::string& game) {
  for (const auto& row : kTable) {
    if (game == row.game) return &row;
  }
  return nullptr;
}

std::vector<std::string> all_games() {
  std::vector<std::string> names;
  for (const auto& e : cores::list_games()) names.push_back(e.qualified());
  return names;
}

TEST(GoldenDigest, StraightChainsMatchTable) {
  std::string table;
  bool all_match = true;
  for (const auto& name : all_games()) {
    auto g = cores::make_game(name);
    ASSERT_NE(g, nullptr) << name;
    const Chains c = straight_chain(*g, scripted_inputs(name));
    char row[160];
    std::snprintf(row, sizeof row, "    {\"%s\", 0x%016llxull, 0x%016llxull},\n", name.c_str(),
                  static_cast<unsigned long long>(c.v1), static_cast<unsigned long long>(c.v2));
    table += row;
    const Golden* want = find_golden(name);
    if (want == nullptr || want->v1 != c.v1 || want->v2 != c.v2) all_match = false;
    EXPECT_NE(want, nullptr) << name << " has no golden row";
    if (want == nullptr) continue;
    EXPECT_EQ(c.v1, want->v1) << name << " v1 chain";
    EXPECT_EQ(c.v2, want->v2) << name << " v2 chain";
  }
  if (!all_match) std::printf("computed table:\n%s", table.c_str());
}

TEST(GoldenDigest, TableCoversEveryRegisteredGame) {
  EXPECT_EQ(all_games().size(), std::size(kTable));
}

TEST(GoldenDigest, RestoreHeavyChainsEqualStraightChains) {
  emu::set_state_digest_cross_check(true);
  for (const auto& name : all_games()) {
    const Golden* want = find_golden(name);
    ASSERT_NE(want, nullptr) << name;
    auto g = cores::make_game(name);
    const Chains c = restore_heavy_chain(*g, scripted_inputs(name));
    EXPECT_EQ(c.v1, want->v1) << name << " v1 chain with restores";
    EXPECT_EQ(c.v2, want->v2) << name << " v2 chain with restores";
  }
  emu::set_state_digest_cross_check(false);
  EXPECT_EQ(emu::state_digest_cross_check_failures(), 0u);
}

TEST(GoldenDigest, Ac16ReferenceInterpreterMatchesTable) {
  for (const auto game : games::game_names()) {
    const std::string name = "ac16:" + std::string(game);
    const Golden* want = find_golden(name);
    ASSERT_NE(want, nullptr) << name;
    emu::MachineConfig cfg;
    cfg.reference_interpreter = true;
    auto m = games::make_machine(game, cfg);
    const auto in = scripted_inputs(name);
    const Chains c = straight_chain(*m, in);
    EXPECT_EQ(c.v1, want->v1) << name << " v1 chain, reference interpreter";
    EXPECT_EQ(c.v2, want->v2) << name << " v2 chain, reference interpreter";
    auto r = games::make_machine(game, cfg);
    const Chains rc = restore_heavy_chain(*r, in);
    EXPECT_EQ(rc.v1, want->v1) << name << " v1 chain, reference interpreter with restores";
    EXPECT_EQ(rc.v2, want->v2) << name << " v2 chain, reference interpreter with restores";
  }
}

TEST(GoldenDigest, Agent86ReferenceInterpreterMatchesTable) {
  for (const auto game : a86::game_names()) {
    const std::string name = "agent86:" + std::string(game);
    const Golden* want = find_golden(name);
    ASSERT_NE(want, nullptr) << name;
    a86::MachineConfig cfg;
    cfg.reference_interpreter = true;
    auto m = a86::make_machine(game, cfg);
    const auto in = scripted_inputs(name);
    const Chains c = straight_chain(*m, in);
    EXPECT_EQ(c.v1, want->v1) << name << " v1 chain, reference interpreter";
    EXPECT_EQ(c.v2, want->v2) << name << " v2 chain, reference interpreter";
    auto r = a86::make_machine(game, cfg);
    const Chains rc = restore_heavy_chain(*r, in);
    EXPECT_EQ(rc.v1, want->v1) << name << " v1 chain, reference interpreter with restores";
    EXPECT_EQ(rc.v2, want->v2) << name << " v2 chain, reference interpreter with restores";
  }
}

}  // namespace
}  // namespace rtct
