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
// On a mismatch the test prints a diff between the committed table and
// the one the current code computes. After a deliberate digest change,
// `golden_digest_test --regenerate` prints the replacement kTable block
// (rows in registry order) to paste over the one below and review as a
// diff; it exits 1 instead when a restore-heavy run disagrees with the
// straight run, because no table can pin both.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
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

using Rows = std::vector<std::pair<std::string, Chains>>;

/// The kTable block in source form.
std::string table_source(const Rows& rows) {
  std::string out = "// clang-format off\nconstexpr Golden kTable[] = {\n";
  for (const auto& [game, c] : rows) {
    char row[160];
    std::snprintf(row, sizeof row, "    {\"%s\", 0x%016llxull, 0x%016llxull},\n", game.c_str(),
                  static_cast<unsigned long long>(c.v1), static_cast<unsigned long long>(c.v2));
    out += row;
  }
  return out + "};\n// clang-format on\n";
}

Rows committed_rows() {
  Rows out;
  for (const auto& row : kTable) out.emplace_back(row.game, Chains{row.v1, row.v2});
  return out;
}

/// Every registered game's straight chains, as the current code computes them.
Rows computed_rows() {
  Rows out;
  for (const auto& name : all_games()) {
    auto g = cores::make_game(name);
    if (g == nullptr) {
      ADD_FAILURE() << name << " is listed but cannot be made";
      continue;
    }
    out.emplace_back(name, straight_chain(*g, scripted_inputs(name)));
  }
  return out;
}

TEST(GoldenDigest, StraightChainsMatchTable) {
  EXPECT_EQ(table_source(computed_rows()), table_source(committed_rows()))
      << "for a deliberate change, review and paste the output of "
         "golden_digest_test --regenerate";
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

/// The --regenerate mode: prints the computed kTable block.
int regenerate() {
  const Rows rows = computed_rows();
  int disagreements = 0;
  emu::set_state_digest_cross_check(true);
  for (const auto& [name, c] : rows) {
    auto g = cores::make_game(name);
    const Chains rc = restore_heavy_chain(*g, scripted_inputs(name));
    if (rc.v1 != c.v1 || rc.v2 != c.v2) {
      std::fprintf(stderr, "%s: the restore-heavy chains differ from the straight chains\n",
                   name.c_str());
      ++disagreements;
    }
  }
  emu::set_state_digest_cross_check(false);
  if (emu::state_digest_cross_check_failures() != 0) {
    std::fprintf(stderr, "the digest cross-check failed\n");
    ++disagreements;
  }
  if (disagreements != 0) return 1;
  std::fputs(table_source(rows).c_str(), stdout);
  return 0;
}

}  // namespace
}  // namespace rtct

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--regenerate") return rtct::regenerate();
  }
  return RUN_ALL_TESTS();
}
