// The agent86 determinism/differential suite — the same contract the AC16
// machine is held to, proven for the second core:
//   * two replicas fed identical inputs agree digest-for-digest;
//   * save/load round-trip + re-simulation reproduces the straight-line
//     digest sequence exactly (the rollback engine's bedrock);
//   * a single poked byte changes both v1 and v3 digests;
//   * the incremental (dirty-page) v3 digest always equals a from-scratch
//     full rehash (cross-check armed);
//   * save_state_into is allocation-stable on the hot path.
#include <gtest/gtest.h>

#include <vector>

#include "src/cores/agent86/games.h"
#include "src/cores/agent86/machine.h"
#include "src/emu/page_digest.h"  // cross-check switch

namespace rtct::a86 {
namespace {

constexpr int kV3 = emu::kStateDigestVersion;

InputWord scripted_input(std::uint32_t& rng) {
  rng = rng * 1664525u + 1013904223u;
  return static_cast<InputWord>(rng >> 16);
}

class Agent86Determinism : public ::testing::TestWithParam<const char*> {};

TEST_P(Agent86Determinism, TwoReplicasAgreePerFrame) {
  auto a = make_machine(GetParam());
  auto b = make_machine(GetParam());
  ASSERT_NE(a, nullptr);
  std::uint32_t rng = 7;
  for (int f = 0; f < 400; ++f) {
    const InputWord in = scripted_input(rng);
    a->step_frame(in);
    b->step_frame(in);
    ASSERT_EQ(a->state_digest(kV3), b->state_digest(kV3)) << "frame " << f;
  }
  EXPECT_EQ(a->state_hash(), b->state_hash());
}

TEST_P(Agent86Determinism, SaveLoadResimulateMatchesStraightLine) {
  constexpr int kFrames = 300;
  constexpr int kSnapAt = 137;

  auto m = make_machine(GetParam());
  ASSERT_NE(m, nullptr);
  std::vector<InputWord> inputs;
  std::vector<std::uint64_t> straight_v1, straight_v3;
  std::vector<std::uint8_t> snapshot;
  std::uint32_t rng = 99;
  for (int f = 0; f < kFrames; ++f) {
    inputs.push_back(scripted_input(rng));
    m->step_frame(inputs.back());
    straight_v1.push_back(m->state_hash());
    straight_v3.push_back(m->state_digest(kV3));
    if (f == kSnapAt) snapshot = m->save_state();
  }

  // Restore mid-run and replay the tail: every digest must reproduce.
  auto r = make_machine(GetParam());
  ASSERT_TRUE(r->load_state(snapshot));
  EXPECT_EQ(r->frame(), kSnapAt + 1);
  EXPECT_EQ(r->state_hash(), straight_v1[kSnapAt]);
  EXPECT_EQ(r->state_digest(kV3), straight_v3[kSnapAt]);
  for (int f = kSnapAt + 1; f < kFrames; ++f) {
    r->step_frame(inputs[static_cast<std::size_t>(f)]);
    ASSERT_EQ(r->state_hash(), straight_v1[static_cast<std::size_t>(f)]) << "frame " << f;
    ASSERT_EQ(r->state_digest(kV3), straight_v3[static_cast<std::size_t>(f)]) << "frame " << f;
  }

  // And a fresh reset + full replay reproduces from frame zero.
  r->reset();
  for (int f = 0; f < kFrames; ++f) {
    r->step_frame(inputs[static_cast<std::size_t>(f)]);
    ASSERT_EQ(r->state_digest(kV3), straight_v3[static_cast<std::size_t>(f)]) << "frame " << f;
  }
}

TEST_P(Agent86Determinism, SingleByteMutationChangesDigests) {
  auto m = make_machine(GetParam());
  std::uint32_t rng = 5;
  for (int f = 0; f < 50; ++f) m->step_frame(scripted_input(rng));
  const auto v1 = m->state_hash();
  const auto v3 = m->state_digest(kV3);
  m->poke(0x0401, static_cast<std::uint8_t>(m->peek(0x0401) ^ 0x80));
  EXPECT_NE(m->state_hash(), v1);
  EXPECT_NE(m->state_digest(kV3), v3);
  // page_digests names the touched page (page 4 covers 0x0400..0x04FF).
  auto pages_before = m->page_digests();
  m->poke(0x0401, static_cast<std::uint8_t>(m->peek(0x0401) ^ 0x80));  // revert
  auto pages_after = m->page_digests();
  ASSERT_EQ(pages_before.size(), kMemSize / emu::kPageSize);
  int diffs = 0;
  for (std::size_t i = 0; i < pages_before.size(); ++i) {
    if (pages_before[i] != pages_after[i]) {
      ++diffs;
      EXPECT_EQ(i, 4u);
    }
  }
  EXPECT_EQ(diffs, 1);
}

TEST_P(Agent86Determinism, IncrementalDigestMatchesFullRehash) {
  emu::set_state_digest_cross_check(true);
  auto m = make_machine(GetParam());
  std::uint32_t rng = 21;
  for (int f = 0; f < 200; ++f) {
    m->step_frame(scripted_input(rng));
    (void)m->state_digest(kV3);
    if (f == 60) {
      // A snapshot load must invalidate every cached page it changes —
      // the classic missed-invalidation hazard the cross-check catches.
      const auto snap = m->save_state();
      ASSERT_TRUE(m->load_state(snap));
    }
  }
  // Spot check: each cached page term equals the term of the bytes read
  // back through peek().
  const auto pages = m->page_digests();
  for (const std::size_t page : {std::size_t{0}, std::size_t{4}, std::size_t{0xB8}}) {
    std::vector<std::uint8_t> raw(emu::kPageSize);
    for (std::size_t i = 0; i < emu::kPageSize; ++i) {
      raw[i] = m->peek(static_cast<std::uint16_t>(page * emu::kPageSize + i));
    }
    EXPECT_EQ(pages[page], emu::digest_v3::page_term(raw.data(), page)) << "page " << page;
  }
  emu::set_state_digest_cross_check(false);
  EXPECT_EQ(emu::state_digest_cross_check_failures(), 0u);
}

TEST_P(Agent86Determinism, SaveStateIntoIsAllocationStable) {
  auto m = make_machine(GetParam());
  std::vector<std::uint8_t> buf;
  m->save_state_into(buf);
  const auto cap = buf.capacity();
  const auto* data = buf.data();
  std::uint32_t rng = 1;
  for (int f = 0; f < 32; ++f) {
    m->step_frame(scripted_input(rng));
    m->save_state_into(buf);
    EXPECT_EQ(buf.capacity(), cap);
    EXPECT_EQ(buf.data(), data);  // same backing store, no realloc
  }
}

TEST_P(Agent86Determinism, LoadStateRejectsMalformedSnapshots) {
  auto m = make_machine(GetParam());
  std::uint32_t rng = 3;
  for (int f = 0; f < 10; ++f) m->step_frame(scripted_input(rng));
  auto good = m->save_state();

  auto wrong_version = good;
  wrong_version[0] ^= 0xFF;
  EXPECT_FALSE(m->load_state(wrong_version));

  auto wrong_content = good;
  wrong_content[3] ^= 0x01;  // inside the content-id field
  EXPECT_FALSE(m->load_state(wrong_content));

  auto truncated = good;
  truncated.resize(truncated.size() - 1);
  EXPECT_FALSE(m->load_state(truncated));

  auto oversized = good;
  oversized.push_back(0);
  EXPECT_FALSE(m->load_state(oversized));

  EXPECT_TRUE(m->load_state(good));  // the machine itself is still usable
}

INSTANTIATE_TEST_SUITE_P(AllGames, Agent86Determinism,
                         ::testing::Values("skirmish", "pong", "havoc"),
                         [](const auto& param_info) { return std::string(param_info.param); });

}  // namespace
}  // namespace rtct::a86
