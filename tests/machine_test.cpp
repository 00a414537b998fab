// Unit tests for ArcadeMachine: memory map, IO ports, frame stepping,
// save states and state hashing — the determinism contract of §3.
#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/emu/assembler.h"
#include "src/emu/machine.h"
#include "src/emu/rom_io.h"
#include "src/games/roms.h"

namespace rtct::emu {
namespace {

constexpr int kV3 = emu::kStateDigestVersion;

Rom make_rom(const std::string& body) {
  auto r = assemble(".entry main\nmain:\n" + body, "test");
  EXPECT_TRUE(r.ok()) << r.error_text();
  return r.rom;
}

// ROM that copies both input ports and the frame counter into RAM and
// loops, one frame per HALT.
const char* kEchoBody = R"(
    LDI r14, 0x8000
frame:
    IN  r0, 0
    STW r14, r0, 0
    IN  r1, 1
    STW r14, r1, 2
    IN  r2, 2
    STW r14, r2, 4
    OUT 4, r0
    HALT
    JMP frame
)";

TEST(MachineTest, InputPortsLatchPerFrame) {
  ArcadeMachine m(make_rom(kEchoBody));
  m.step_frame(make_input(0x12, 0x34));
  EXPECT_EQ(m.peek16(0x8000), 0x12);
  EXPECT_EQ(m.peek16(0x8002), 0x34);
  m.step_frame(make_input(0x56, 0x78));
  EXPECT_EQ(m.peek16(0x8000), 0x56);
  EXPECT_EQ(m.peek16(0x8002), 0x78);
}

TEST(MachineTest, FrameCounterPortAdvances) {
  ArcadeMachine m(make_rom(kEchoBody));
  m.step_frame(0);
  EXPECT_EQ(m.peek16(0x8004), 0);  // counter read during frame 0
  m.step_frame(0);
  EXPECT_EQ(m.peek16(0x8004), 1);
  EXPECT_EQ(m.frame(), 2);
}

TEST(MachineTest, TonePortVisible) {
  ArcadeMachine m(make_rom(kEchoBody));
  m.step_frame(make_input(0x42, 0));
  EXPECT_EQ(m.tone(), 0x42);
}

TEST(MachineTest, UndefinedPortsReadZeroAndIgnoreWrites) {
  ArcadeMachine m(make_rom(R"(
    IN  r0, 99
    LDI r14, 0x8000
    STW r14, r0, 0
    OUT 99, r0
    HALT
)"));
  m.step_frame(0xFFFF);
  EXPECT_FALSE(m.faulted());
  EXPECT_EQ(m.peek16(0x8000), 0);
}

TEST(MachineTest, DebugPortLogsWithoutAffectingHash) {
  ArcadeMachine a(make_rom("    LDI r0, 7\n    OUT 5, r0\n    HALT\n"));
  ArcadeMachine b(make_rom("    LDI r0, 7\n    NOP\n    HALT\n"));
  a.step_frame(0);
  b.step_frame(0);
  ASSERT_EQ(a.debug_log().size(), 1u);
  EXPECT_EQ(a.debug_log()[0], 7);
  EXPECT_TRUE(b.debug_log().empty());
  EXPECT_EQ(a.state_hash(), b.state_hash());  // debug traffic is not state
}

TEST(MachineTest, FramebufferIsMemoryMapped) {
  ArcadeMachine m(make_rom(R"(
    LDI r1, 0xA000
    LDI r2, 9
    STB r1, r2, 5
    HALT
)"));
  m.step_frame(0);
  EXPECT_EQ(m.framebuffer()[5], 9);
  EXPECT_EQ(m.framebuffer().size(), kFbSize);
}

TEST(MachineTest, RomIsVisibleButNotWritable) {
  auto rom = make_rom("    HALT\n");
  ArcadeMachine m(rom);
  EXPECT_EQ(m.peek(0), rom.image[0]);
  m.step_frame(0);
  EXPECT_FALSE(m.faulted());
}

TEST(MachineTest, HashChangesWithRamVideoAndRegisters) {
  ArcadeMachine m(make_rom(kEchoBody));
  const auto h0 = m.state_hash();
  m.step_frame(make_input(1, 0));
  const auto h1 = m.state_hash();
  m.step_frame(make_input(2, 0));
  EXPECT_NE(h0, h1);
  EXPECT_NE(h1, m.state_hash());
}

TEST(MachineTest, DigestV1EqualsStateHash) {
  ArcadeMachine m(make_rom(kEchoBody));
  for (int i = 0; i < 5; ++i) {
    m.step_frame(make_input(static_cast<std::uint8_t>(i), 3));
    EXPECT_EQ(m.state_digest(1), m.state_hash());
    EXPECT_EQ(m.state_digest(0), m.state_hash());
  }
}

TEST(MachineTest, DigestV3EqualStateMeansEqualDigest) {
  // Two replicas fed identical inputs agree on the v3 digest every frame —
  // the property the desync tripwire runs on. v3 is also distinct from
  // v1: same state, different fingerprint function, different value.
  ArcadeMachine a(make_rom(kEchoBody));
  ArcadeMachine b(make_rom(kEchoBody));
  for (int i = 0; i < 30; ++i) {
    const InputWord in = make_input(static_cast<std::uint8_t>(i * 7), static_cast<std::uint8_t>(i));
    a.step_frame(in);
    b.step_frame(in);
    ASSERT_EQ(a.state_digest(kV3), b.state_digest(kV3)) << "frame " << i;
    EXPECT_NE(a.state_digest(kV3), a.state_digest(1)) << "frame " << i;
  }
}

TEST(MachineTest, DigestV3IncrementalMatchesFullRecompute) {
  // The dirty-page cache must be invisible: a replica that loads the
  // snapshot (all pages rehashed from scratch) computes the same digest
  // the original reached via incremental updates.
  ArcadeMachine m(make_rom(kEchoBody));
  for (int i = 0; i < 25; ++i) {
    m.step_frame(make_input(static_cast<std::uint8_t>(i), 0x20));
    (void)m.state_digest(kV3);  // exercise the incremental path every frame
  }
  const auto incremental = m.state_digest(kV3);
  ArcadeMachine replica(make_rom(kEchoBody));
  ASSERT_TRUE(replica.load_state(m.save_state()));
  EXPECT_EQ(replica.state_digest(kV3), incremental);
}

TEST(MachineTest, DigestV3AnySingleByteMutationChangesDigest) {
  // Flip one byte of serialized state, load it, digest must differ: the
  // per-page digests leave no blind spot anywhere in the mutable region
  // or the CPU/latch/tone/frame header.
  ArcadeMachine m(make_rom(kEchoBody));
  for (int i = 0; i < 10; ++i) m.step_frame(make_input(5, 9));
  const auto base = m.state_digest(kV3);
  auto snap = m.save_state();
  // Positions 0..8 are the snapshot's own version byte + ROM checksum
  // (load-rejected, not machine state). Cover the full header densely and
  // sample the 32 KiB RAM image.
  std::vector<std::size_t> positions;
  for (std::size_t i = 9; i < 56; ++i) positions.push_back(i);
  for (std::size_t i = 56; i < snap.size(); i += 997) positions.push_back(i);
  positions.push_back(snap.size() - 1);
  for (const std::size_t pos : positions) {
    snap[pos] ^= 0x01;
    ArcadeMachine replica(make_rom(kEchoBody));
    ASSERT_TRUE(replica.load_state(snap)) << "byte " << pos;
    EXPECT_NE(replica.state_digest(kV3), base) << "byte " << pos;
    snap[pos] ^= 0x01;
  }
}

TEST(MachineTest, DigestV3CrossCheckStaysClean) {
  // Full-rehash cross-check mode (the chaos-soak oracle): honest use of
  // the incremental cache must never trip it.
  set_state_digest_cross_check(true);
  ASSERT_TRUE(state_digest_cross_check());
  ArcadeMachine m(make_rom(kEchoBody));
  for (int i = 0; i < 20; ++i) {
    m.step_frame(make_input(static_cast<std::uint8_t>(i), 1));
    (void)m.state_digest(kV3);
  }
  ArcadeMachine replica(make_rom(kEchoBody));
  ASSERT_TRUE(replica.load_state(m.save_state()));
  (void)replica.state_digest(kV3);
  set_state_digest_cross_check(false);
  EXPECT_EQ(state_digest_cross_check_failures(), 0u);
  EXPECT_FALSE(state_digest_cross_check());
}

// ---- PageDigestCache on a bare region: digest v3 itself ----

void header_seven(digest_v3::HeaderMix& h) { h.u16(7); }

/// The v3 digest of `mem` from scratch: a fresh cache starts all dirty.
std::uint64_t scratch_digest(const std::vector<std::uint8_t>& mem) {
  PageDigestCache fresh(mem.size() / kPageSize);
  return fresh.digest(mem.data(), header_seven);
}

TEST(PageDigestCacheTest, IncrementalEqualsFromScratchAfterPokesRestoresAndMarkAll) {
  for (const std::size_t pages : {std::size_t{128}, std::size_t{256}}) {
    std::vector<std::uint8_t> mem(pages * kPageSize, 0);
    PageDigestCache cache(pages);
    std::vector<std::vector<std::uint8_t>> snaps;
    Rng rng(21);
    for (int round = 0; round < 400; ++round) {
      for (auto n = rng.uniform(0, 20); n > 0; --n) {
        const auto off = static_cast<std::size_t>(rng.uniform(0, mem.size() - 1));
        mem[off] = static_cast<std::uint8_t>(rng.next_u64());
        cache.mark_dirty(off);
      }
      if (round % 10 == 0) snaps.push_back(mem);
      switch (rng.uniform(0, 9)) {
        case 0: {
          const auto last = static_cast<std::int64_t>(snaps.size()) - 1;
          cache.restore(mem.data(), snaps[static_cast<std::size_t>(rng.uniform(0, last))]);
          break;
        }
        case 1:
          cache.mark_all_dirty();
          break;
        default:
          break;
      }
      ASSERT_EQ(cache.digest(mem.data(), header_seven), scratch_digest(mem))
          << pages << " pages, round " << round;
    }
  }
}

TEST(PageDigestCacheTest, SwappingTwoPagesOrChangingAHeaderFieldChangesTheDigest) {
  std::vector<std::uint8_t> mem(128 * kPageSize, 0);
  std::fill_n(mem.begin() + 3 * kPageSize, kPageSize, 0xAA);
  std::fill_n(mem.begin() + 9 * kPageSize, kPageSize, 0x55);
  PageDigestCache cache(128);
  const auto before = cache.digest(mem.data(), header_seven);
  // Same multiset of page contents, different positions: the terms are
  // keyed by page index, so the sum moves.
  std::swap_ranges(mem.begin() + 3 * kPageSize, mem.begin() + 4 * kPageSize,
                   mem.begin() + 9 * kPageSize);
  cache.mark_dirty(3 * kPageSize);
  cache.mark_dirty(9 * kPageSize);
  const auto swapped = cache.digest(mem.data(), header_seven);
  EXPECT_NE(swapped, before);
  EXPECT_EQ(swapped, scratch_digest(mem));
  // The header is mixed in last: one field, or the order of two, matters.
  EXPECT_NE(cache.digest(mem.data(), [](auto& h) { h.u16(8); }), swapped);
  EXPECT_NE(cache.digest(mem.data(), [](auto& h) { h.u16(1); h.u16(2); }),
            cache.digest(mem.data(), [](auto& h) { h.u16(2); h.u16(1); }));
}

TEST(PageDigestCacheTest, UnmarkedWriteTripsTheCrossCheckExactlyOnce) {
  std::vector<std::uint8_t> mem(128 * kPageSize, 0);
  PageDigestCache cache(128);
  set_state_digest_cross_check(true);
  (void)cache.digest(mem.data(), header_seven);
  EXPECT_EQ(state_digest_cross_check_failures(), 0u);
  mem[77 * kPageSize + 5] ^= 0x10;  // a store that forgot mark_dirty
  // The cross-check counts the stale page once, adopts the recomputed
  // terms, and so returns the from-scratch digest from then on.
  EXPECT_EQ(cache.digest(mem.data(), header_seven), scratch_digest(mem));
  EXPECT_EQ(state_digest_cross_check_failures(), 1u);
  EXPECT_EQ(cache.digest(mem.data(), header_seven), scratch_digest(mem));
  EXPECT_EQ(state_digest_cross_check_failures(), 1u);
  set_state_digest_cross_check(false);
  // Unarmed, the same mistake goes unseen: the cached term is stale.
  mem[20 * kPageSize] ^= 0x01;
  EXPECT_NE(cache.digest(mem.data(), header_seven), scratch_digest(mem));
  EXPECT_EQ(state_digest_cross_check_failures(), 1u);
}

TEST(MachineTest, SaveStateIntoMatchesSaveStateAndReusesCapacity) {
  ArcadeMachine m(make_rom(kEchoBody));
  m.step_frame(make_input(1, 2));
  std::vector<std::uint8_t> scratch;
  m.save_state_into(scratch);
  EXPECT_EQ(scratch, m.save_state());
  const auto* data_before = scratch.data();
  const auto cap_before = scratch.capacity();
  m.step_frame(make_input(3, 4));
  m.save_state_into(scratch);
  EXPECT_EQ(scratch, m.save_state());
  EXPECT_EQ(scratch.data(), data_before);      // no reallocation
  EXPECT_EQ(scratch.capacity(), cap_before);
}

TEST(MachineTest, RestoreAndResimulateEqualsStraightLine) {
  // The rollback engine's load-bearing assumption, as a property test:
  // snapshot -> speculate with wrong inputs -> restore -> re-simulate the
  // true inputs must be indistinguishable from never having speculated,
  // digest for digest, over 1000 random frames on a real ROM ("torture",
  // which touches RAM/video/registers as widely as possible). Runs with
  // the full-rehash cross-check armed so a restore that forgets to
  // invalidate the incremental digest cache is caught at the exact frame.
  auto straight = games::make_machine("torture");
  auto rb = games::make_machine("torture");
  Rng rng(20260807);
  constexpr int kFrames = 1000;
  std::vector<InputWord> inputs(static_cast<std::size_t>(kFrames));
  for (auto& w : inputs) w = static_cast<InputWord>(rng.next_u64());

  std::vector<std::uint64_t> want(static_cast<std::size_t>(kFrames));
  for (int f = 0; f < kFrames; ++f) {
    straight->step_frame(inputs[static_cast<std::size_t>(f)]);
    want[static_cast<std::size_t>(f)] = straight->state_digest(kV3);
  }

  set_state_digest_cross_check(true);
  const std::uint64_t genesis = rb->state_digest(kV3);
  std::vector<std::uint8_t> snap;  // reused, as the rollback ring does
  int f = 0;
  while (f < kFrames) {
    rb->save_state_into(snap);
    // Speculate 1..8 frames on garbage inputs (a mispredicting peer).
    const int depth = 1 + static_cast<int>(rng.next_u64() % 8);
    for (int j = 0; j < depth && f + j < kFrames; ++j) {
      rb->step_frame(static_cast<InputWord>(rng.next_u64()));
      (void)rb->state_digest(kV3);  // keep the incremental cache hot
    }
    // Restore: the machine must be byte-equivalent to pre-speculation.
    ASSERT_TRUE(rb->load_state(snap));
    ASSERT_EQ(rb->state_digest(kV3),
              f == 0 ? genesis : want[static_cast<std::size_t>(f - 1)])
        << "restore did not reproduce pre-speculation state at frame " << f;
    // Re-simulate the true inputs over the speculated span.
    for (int j = 0; j < depth && f < kFrames; ++j, ++f) {
      rb->step_frame(inputs[static_cast<std::size_t>(f)]);
      ASSERT_EQ(rb->state_digest(kV3), want[static_cast<std::size_t>(f)])
          << "restore + re-simulate diverged from straight line at frame " << f;
    }
  }
  set_state_digest_cross_check(false);
  EXPECT_EQ(state_digest_cross_check_failures(), 0u)
      << "a restore path failed to invalidate the incremental digest cache";
  // Stronger than digests: the final machine images are byte-identical.
  EXPECT_EQ(rb->save_state(), straight->save_state());
  EXPECT_EQ(rb->frame(), straight->frame());
}

TEST(MachineTest, SaveStateIsVersionChecked) {
  ArcadeMachine m(make_rom(kEchoBody));
  m.step_frame(0);
  auto snap = m.save_state();
  snap[0] = 99;  // wrong version byte
  EXPECT_FALSE(m.load_state(snap));
}

TEST(MachineTest, TruncatedSnapshotRejected) {
  ArcadeMachine m(make_rom(kEchoBody));
  m.step_frame(0);
  auto snap = m.save_state();
  snap.resize(snap.size() / 2);
  EXPECT_FALSE(m.load_state(snap));
}

TEST(MachineTest, OversizedSnapshotRejected) {
  ArcadeMachine m(make_rom(kEchoBody));
  m.step_frame(0);
  auto snap = m.save_state();
  snap.push_back(0);
  EXPECT_FALSE(m.load_state(snap));
}

TEST(MachineTest, SnapshotRestoresFrameCounterAndTone) {
  ArcadeMachine m(make_rom(kEchoBody));
  for (int i = 0; i < 10; ++i) m.step_frame(make_input(static_cast<std::uint8_t>(i), 0));
  const auto snap = m.save_state();
  const auto frame = m.frame();
  const auto tone = m.tone();
  for (int i = 0; i < 5; ++i) m.step_frame(0xFFFF);
  ASSERT_TRUE(m.load_state(snap));
  EXPECT_EQ(m.frame(), frame);
  EXPECT_EQ(m.tone(), tone);
}

// Snapshot header offsets: version(1) + ROM checksum(8) + regs + pc(2).
constexpr std::size_t kSnapFlags = 9 + 2 * kNumRegs + 2;
constexpr std::size_t kSnapFault = kSnapFlags + 1;

TEST(MachineTest, RestoreAfterDivergenceMatchesFreshLoad) {
  // A replica that speculated on other inputs and was poked must, after
  // loading an older snapshot, digest exactly like a fresh machine that
  // loaded the same snapshot: restore dirties every page it changes.
  set_state_digest_cross_check(true);
  auto m = games::make_machine("torture");
  Rng rng(15);
  for (int i = 0; i < 40; ++i) {
    m->step_frame(static_cast<InputWord>(rng.next_u64()));
    (void)m->state_digest(kV3);
  }
  const auto snap = m->save_state();
  for (int i = 0; i < 6; ++i) {
    m->step_frame(static_cast<InputWord>(rng.next_u64()));
    (void)m->state_digest(kV3);
  }
  m->poke(0x9000, static_cast<std::uint8_t>(m->peek(0x9000) + 1));
  (void)m->state_digest(kV3);
  ASSERT_TRUE(m->load_state(snap));
  auto fresh = games::make_machine("torture");
  ASSERT_TRUE(fresh->load_state(snap));
  EXPECT_EQ(m->state_digest(kV3), fresh->state_digest(kV3));
  EXPECT_EQ(m->page_digests(), fresh->page_digests());
  set_state_digest_cross_check(false);
  EXPECT_EQ(state_digest_cross_check_failures(), 0u);
}

TEST(MachineTest, RestoreRehashesDirtyPageWhoseBytesMatchSnapshot) {
  // A page written and digested, then written back to its snapshot bytes,
  // is dirty with a stale cached digest. Restore skips copying it (bytes
  // equal) but must keep it dirty: restore ORs into the bitmap, it does
  // not replace the bitmap with "pages that differed".
  set_state_digest_cross_check(true);
  ArcadeMachine m(make_rom(kEchoBody));
  for (int i = 0; i < 5; ++i) m.step_frame(make_input(static_cast<std::uint8_t>(i), 2));
  (void)m.state_digest(kV3);
  const auto snap = m.save_state();
  const std::uint8_t orig = m.peek(0x9123);
  m.poke(0x9123, static_cast<std::uint8_t>(orig ^ 0x5A));
  (void)m.state_digest(kV3);  // caches the poked page's digest
  m.poke(0x9123, orig);     // bytes equal the snapshot again, page dirty
  ASSERT_TRUE(m.load_state(snap));
  ArcadeMachine fresh(make_rom(kEchoBody));
  ASSERT_TRUE(fresh.load_state(snap));
  EXPECT_EQ(m.state_digest(kV3), fresh.state_digest(kV3));
  set_state_digest_cross_check(false);
  EXPECT_EQ(state_digest_cross_check_failures(), 0u);
}

TEST(MachineTest, LoadStateRejectsFaultAndFlagsSaveStateNeverWrites) {
  // save_state writes only Z/N/C (bits 0..2) and a Fault enumerator; any
  // other value must be refused before the machine is touched, so the
  // memory image and the digest stay those of the current state.
  ArcadeMachine m(make_rom(kEchoBody));
  for (int i = 0; i < 3; ++i) m.step_frame(make_input(static_cast<std::uint8_t>(i), 1));
  const auto old_snap = m.save_state();
  for (int i = 0; i < 3; ++i) m.step_frame(make_input(9, static_cast<std::uint8_t>(i)));
  const auto before = m.save_state();
  const auto digest = m.state_digest(kV3);
  ASSERT_NE(old_snap, before);

  auto bad_fault = old_snap;
  bad_fault[kSnapFault] = static_cast<std::uint8_t>(Fault::kBrk) + 1;
  auto bad_flags = old_snap;
  bad_flags[kSnapFlags] |= 0x08;
  for (const auto& bad : {bad_fault, bad_flags}) {
    EXPECT_FALSE(m.load_state(bad));
    EXPECT_EQ(m.save_state(), before);
    EXPECT_EQ(m.state_digest(kV3), digest);
  }
  // The top valid values still load.
  auto ok = old_snap;
  ok[kSnapFault] = static_cast<std::uint8_t>(Fault::kBrk);
  ok[kSnapFlags] = 0x07;
  EXPECT_TRUE(m.load_state(ok));
  EXPECT_EQ(m.fault(), Fault::kBrk);
}

TEST(MachineTest, CyclesPerFrameConfigurable) {
  MachineConfig tight;
  tight.cycles_per_frame = 8;  // too small for the echo loop
  ArcadeMachine m(make_rom(kEchoBody), tight);
  m.step_frame(0);
  EXPECT_EQ(m.fault(), Fault::kBudgetExceeded);
}

TEST(MachineTest, LastFrameCyclesReported) {
  ArcadeMachine m(make_rom("    NOP\n    NOP\n    HALT\n"));
  m.step_frame(0);
  EXPECT_EQ(m.last_frame_cycles(), 3);  // NOP + NOP + HALT, 1 cycle each
}

TEST(MachineTest, ContentIdMatchesRomChecksum) {
  auto rom = make_rom(kEchoBody);
  ArcadeMachine m(rom);
  EXPECT_EQ(m.content_id(), rom.checksum());
  EXPECT_NE(m.content_id(), 0u);
}

TEST(MachineTest, RomChecksumCoversEntryPoint) {
  Rom a;
  a.image = {0, 1, 2, 3};
  a.entry = 0;
  Rom b = a;
  b.entry = 4;
  EXPECT_NE(a.checksum(), b.checksum());
}

// ---- .rom container format -------------------------------------------------

TEST(RomIoTest, SerializeParseRoundTrip) {
  auto rom = make_rom(kEchoBody);
  rom.title = "echo test";
  const auto bytes = serialize_rom(rom);
  const auto back = parse_rom(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->title, "echo test");
  EXPECT_EQ(back->entry, rom.entry);
  EXPECT_EQ(back->image, rom.image);
  EXPECT_EQ(back->checksum(), rom.checksum());
}

TEST(RomIoTest, BadMagicRejected) {
  auto rom = make_rom(kEchoBody);
  auto bytes = serialize_rom(rom);
  bytes[0] = 'X';
  EXPECT_FALSE(parse_rom(bytes).has_value());
}

TEST(RomIoTest, AnyBitFlipRejectedByCrc) {
  auto rom = make_rom(kEchoBody);
  const auto bytes = serialize_rom(rom);
  for (std::size_t i = 8; i < bytes.size(); i += 13) {  // sample positions
    auto copy = bytes;
    copy[i] ^= 0x40;
    EXPECT_FALSE(parse_rom(copy).has_value()) << "offset " << i;
  }
}

TEST(RomIoTest, TruncationRejected) {
  auto rom = make_rom(kEchoBody);
  auto bytes = serialize_rom(rom);
  bytes.resize(bytes.size() - 5);
  EXPECT_FALSE(parse_rom(bytes).has_value());
  EXPECT_FALSE(parse_rom({}).has_value());
}

TEST(RomIoTest, FileRoundTrip) {
  auto rom = make_rom(kEchoBody);
  const std::string path = ::testing::TempDir() + "/rtct_rom_io_test.rom";
  ASSERT_TRUE(save_rom_file(rom, path));
  const auto back = load_rom_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->image, rom.image);
  std::remove(path.c_str());
}

TEST(RomIoTest, MissingFileIsNullopt) {
  EXPECT_FALSE(load_rom_file("/nonexistent/definitely/not.rom").has_value());
}

}  // namespace
}  // namespace rtct::emu
