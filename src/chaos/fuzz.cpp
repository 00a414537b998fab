#include "src/chaos/fuzz.h"

#include <cstring>
#include <limits>

#include "src/common/bytes.h"
#include "src/common/hash.h"
#include "src/common/random.h"
#include "src/core/replay.h"
#include "src/core/session.h"
#include "src/core/spectate.h"
#include "src/core/sync_peer.h"
#include "src/core/wire.h"
#include "src/games/cellwars.h"

namespace rtct::chaos {

namespace {

using core::FeedAckMsg;
using core::HelloMsg;
using core::InputFeedMsg;
using core::JoinRequestMsg;
using core::Message;
using core::SnapshotMsg;
using core::StartMsg;
using core::SyncMsg;

// Mirror of wire.cpp's decode bounds (documented in docs/PROTOCOL.md):
// anything decode accepts must satisfy these, so the fuzzer checks them
// independently rather than trusting the implementation it is testing.
constexpr FrameNo kMaxWireFrame = FrameNo{1} << 48;
constexpr std::size_t kMaxWireInputs = 4096;
constexpr std::size_t kMaxSnapshot = 1 << 20;

bool frame_ok(FrameNo f, FrameNo floor) { return f >= floor && f < kMaxWireFrame; }
bool time_ok(Time t, Time floor) { return t >= floor; }

/// Checks an accepted message against the documented field ranges.
std::optional<std::string> validate_accepted(const Message& m) {
  if (const auto* h = std::get_if<HelloMsg>(&m)) {
    if (!time_ok(h->hello_time, 0) || !time_ok(h->echo_time, -1) ||
        !time_ok(h->echo_hold, 0) || !time_ok(h->adv_rtt, -1)) {
      return "accepted HELLO with out-of-range timestamps";
    }
  } else if (const auto* s = std::get_if<SyncMsg>(&m)) {
    if (!frame_ok(s->first_frame, 0) || !frame_ok(s->ack_frame, -1) ||
        !frame_ok(s->hash_frame, -1)) {
      return "accepted SYNC with out-of-range frames";
    }
    if (!time_ok(s->send_time, 0) || !time_ok(s->echo_time, -1) ||
        !time_ok(s->echo_hold, 0)) {
      return "accepted SYNC with out-of-range timestamps";
    }
    if (s->inputs.size() > kMaxWireInputs) return "accepted SYNC over the input cap";
  } else if (const auto* snap = std::get_if<SnapshotMsg>(&m)) {
    if (!frame_ok(snap->frame, 0)) return "accepted SNAPSHOT with out-of-range frame";
    if (snap->state.size() > kMaxSnapshot) return "accepted SNAPSHOT over the size cap";
  } else if (const auto* f = std::get_if<InputFeedMsg>(&m)) {
    if (!frame_ok(f->first_frame, 0)) return "accepted FEED with out-of-range frame";
    if (f->inputs.size() > kMaxWireInputs) return "accepted FEED over the input cap";
  } else if (const auto* a = std::get_if<FeedAckMsg>(&m)) {
    if (!frame_ok(a->frame, -1)) return "accepted ACK with out-of-range frame";
  }
  return std::nullopt;
}

/// Edge-biased 64-bit value: boundaries of the decode ranges plus noise.
std::int64_t interesting_i64(Rng& rng) {
  switch (rng.uniform(0, 8)) {
    case 0: return 0;
    case 1: return 1;
    case 2: return -1;
    case 3: return -2;
    case 4: return (std::int64_t{1} << 48) - 1;
    case 5: return std::int64_t{1} << 48;
    case 6: return std::numeric_limits<std::int64_t>::max();
    case 7: return std::numeric_limits<std::int64_t>::min();
    default: return static_cast<std::int64_t>(rng.next_u64());
  }
}

/// A random message with edge-biased fields, encoded. Most are hostile
/// (fields outside the accepted ranges) — the decoder must reject them.
std::vector<std::uint8_t> random_encoded(Rng& rng) {
  Message m;
  switch (rng.uniform(0, 6)) {
    case 0: {
      HelloMsg h;
      h.site = static_cast<SiteId>(rng.uniform(-1, 2));
      h.protocol_version = static_cast<std::uint32_t>(rng.uniform(0, 3));
      h.rom_checksum = rng.next_u64();
      h.cfps = static_cast<std::uint16_t>(rng.uniform(0, 240));
      h.buf_frames = static_cast<std::uint16_t>(rng.uniform(0, 64));
      h.hello_time = interesting_i64(rng);
      h.echo_time = interesting_i64(rng);
      h.echo_hold = interesting_i64(rng);
      h.adv_rtt = interesting_i64(rng);
      h.flags = static_cast<std::uint8_t>(rng.uniform(0, 255));
      h.redundancy = static_cast<std::uint16_t>(rng.uniform(0, 16));
      m = h;
      break;
    }
    case 1: {
      StartMsg s;
      s.site = static_cast<SiteId>(rng.uniform(-1, 2));
      s.buf_frames = static_cast<std::uint16_t>(rng.uniform(0, 64));
      m = s;
      break;
    }
    case 2: {
      SyncMsg s;
      s.site = static_cast<SiteId>(rng.uniform(-2, 3));
      s.ack_frame = interesting_i64(rng);
      s.first_frame = interesting_i64(rng);
      const auto n = static_cast<std::size_t>(
          rng.bernoulli(0.05) ? rng.uniform(0, 4096) : rng.uniform(0, 12));
      for (std::size_t i = 0; i < n; ++i) {
        s.inputs.push_back(static_cast<InputWord>(rng.next_u64()));
      }
      s.send_time = interesting_i64(rng);
      s.echo_time = interesting_i64(rng);
      s.echo_hold = interesting_i64(rng);
      s.hash_frame = interesting_i64(rng);
      s.state_hash = rng.next_u64();
      m = s;
      break;
    }
    case 3: {
      JoinRequestMsg j;
      j.content_id = rng.bernoulli(0.5) ? 0xCE113A125ull : rng.next_u64();
      m = j;
      break;
    }
    case 4: {
      SnapshotMsg s;
      s.frame = interesting_i64(rng);
      const auto n = static_cast<std::size_t>(
          rng.bernoulli(0.05) ? rng.uniform(0, 4096) : rng.uniform(0, 80));
      s.state.resize(n);
      for (auto& b : s.state) b = static_cast<std::uint8_t>(rng.next_u64());
      m = s;
      break;
    }
    case 5: {
      InputFeedMsg f;
      f.first_frame = interesting_i64(rng);
      const auto n = static_cast<std::size_t>(rng.uniform(0, 12));
      for (std::size_t i = 0; i < n; ++i) {
        f.inputs.push_back(static_cast<InputWord>(rng.next_u64()));
      }
      m = f;
      break;
    }
    default: {
      FeedAckMsg a;
      a.frame = interesting_i64(rng);
      m = a;
      break;
    }
  }
  return core::encode_message(m);
}

/// Mutates a buffer in place: truncation, extension, byte flips, or a
/// count-field rewrite (the classic length-confusion attack).
void mutate(Rng& rng, std::vector<std::uint8_t>* buf) {
  switch (rng.uniform(0, 4)) {
    case 0:  // truncate
      if (!buf->empty()) {
        buf->resize(static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(buf->size()) - 1)));
      }
      break;
    case 1: {  // extend with noise
      const auto extra = static_cast<std::size_t>(rng.uniform(1, 16));
      for (std::size_t i = 0; i < extra; ++i) {
        buf->push_back(static_cast<std::uint8_t>(rng.next_u64()));
      }
      break;
    }
    case 2: {  // flip a few bytes
      const auto flips = static_cast<std::size_t>(rng.uniform(1, 8));
      for (std::size_t i = 0; i < flips && !buf->empty(); ++i) {
        const auto pos = static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(buf->size()) - 1));
        (*buf)[pos] = static_cast<std::uint8_t>(rng.next_u64());
      }
      break;
    }
    case 3: {  // overwrite 4 bytes with an inflated u32 (count confusion)
      if (buf->size() >= 5) {
        const auto pos = static_cast<std::size_t>(
            rng.uniform(1, static_cast<std::int64_t>(buf->size()) - 4));
        const std::uint32_t v =
            rng.bernoulli(0.5) ? 0xFFFFFFFFu : static_cast<std::uint32_t>(rng.uniform(0, 1 << 21));
        std::memcpy(buf->data() + pos, &v, 4);
      }
      break;
    }
    default:
      break;
  }
}

void append_raw(ByteWriter& w, const std::vector<std::uint8_t>& extra) {
  for (std::uint8_t b : extra) w.u8(b);
}

// ---- replay-container fuzz material ----------------------------------------

/// Deterministic fake snapshot bytes — parse() never interprets them, so
/// the corpus stays platform- and emulator-independent.
std::vector<std::uint8_t> synthetic_state(std::size_t len, std::uint8_t tag) {
  std::vector<std::uint8_t> out(len);
  for (std::size_t i = 0; i < len; ++i) {
    out[i] = static_cast<std::uint8_t>((i * 7 + tag) & 0xFF);
  }
  return out;
}

/// The canonical small recording the hostile corpus shapes are carved
/// from: 10 inputs; with keyframes, two of them (frames 3 and 7, 40 B of
/// synthetic state each).
core::Replay sample_replay(bool v2, std::string game_name = {}) {
  core::SyncConfig cfg;
  cfg.replay_keyframe_interval = v2 ? 4 : 0;
  core::Replay r(0x1234'5678'9abc'def0ull, cfg, std::move(game_name));
  for (int i = 0; i < 10; ++i) r.record(static_cast<InputWord>(i * 3 + 1));
  if (v2) {
    r.record_keyframe_raw(3, 0x0101010101010101ull, synthetic_state(40, 0x11));
    r.record_keyframe_raw(7, 0x0202020202020202ull, synthetic_state(40, 0x22));
  }
  return r;
}

// Byte offsets into sample_replay(true).serialize() — see the container
// layout in src/core/replay.h (10 inputs, 2 keyframes of 40 B):
//   8 version | 24 digest_version | 25 interval | 29 frame count |
//   33 inputs | 53 keyframe count | 57 kf0.frame | 61 kf0.digest |
//   69 kf0.len | 73 kf0.state | 113 kf1.frame
constexpr std::size_t kOffVersion = 8;
constexpr std::size_t kOffDigestVer = 24;
constexpr std::size_t kOffInterval = 25;
constexpr std::size_t kOffFrameCountV2 = 29;
constexpr std::size_t kOffFrameCountV1 = 24;
constexpr std::size_t kOffKf0Frame = 57;
constexpr std::size_t kOffKf0Digest = 61;
constexpr std::size_t kOffKf0Len = 69;
constexpr std::size_t kOffKf0State = 73;
constexpr std::size_t kOffKf1Frame = 113;

void put_u32(std::vector<std::uint8_t>* buf, std::size_t off, std::uint32_t v) {
  std::memcpy(buf->data() + off, &v, 4);
}

/// Re-stamps the trailing FNV-1a checksum so a deliberately malformed body
/// reaches the structural checks instead of bouncing off the CRC.
void fix_crc(std::vector<std::uint8_t>* buf) {
  if (buf->size() < 8) return;
  const std::uint64_t crc = fnv1a64({buf->data(), buf->size() - 8});
  std::memcpy(buf->data() + buf->size() - 8, &crc, 8);
}

}  // namespace

std::optional<std::string> check_decoder(std::span<const std::uint8_t> bytes) {
  const auto decoded = core::decode_message(bytes);
  if (!decoded) return std::nullopt;  // rejection is correct for hostile input
  if (auto bad = validate_accepted(*decoded)) return bad;
  // Canonical round-trip: an accepted message re-encodes to bytes that
  // decode to the same message (encode ∘ decode idempotent past one hop).
  const auto once = core::encode_message(*decoded);
  const auto again = core::decode_message(once);
  if (!again) return "re-encoded accepted message no longer decodes";
  if (core::encode_message(*again) != once) {
    return "decode/encode round-trip is not canonical";
  }
  return std::nullopt;
}

std::vector<CorpusEntry> build_corpus() {
  std::vector<CorpusEntry> out;
  const auto add = [&out](std::string name, std::vector<std::uint8_t> bytes,
                          bool expect_reject) {
    out.push_back({std::move(name) + ".bin", std::move(bytes), expect_reject});
  };
  const auto valid = [&add](std::string name, const Message& m) {
    add(std::move(name), core::encode_message(m), false);
  };

  // --- valid edge cases: every type, every sentinel --------------------
  HelloMsg hello;
  hello.site = 1;
  hello.protocol_version = 2;
  hello.rom_checksum = 0x1234'5678'9abc'def0ull;
  hello.cfps = 60;
  hello.buf_frames = 6;
  hello.hello_time = 123456789;
  hello.echo_time = -1;  // "no echo yet" sentinel
  hello.adv_rtt = -1;    // "unmeasured" sentinel
  valid("hello_valid", hello);

  valid("start_valid", StartMsg{0, 6});

  SyncMsg sync;
  sync.site = 1;
  sync.ack_frame = -1;  // nothing received yet
  sync.first_frame = 0;
  sync.inputs = {1, 2, 3, 0xFFFF};
  sync.send_time = 1'000'000;
  sync.echo_time = -1;
  sync.hash_frame = -1;
  valid("sync_first_flush", sync);
  sync.ack_frame = 41;
  sync.first_frame = 42;
  sync.send_time = 2'000'000'000;
  sync.echo_time = 1'999'000'000;
  sync.echo_hold = 5'000'000;
  sync.hash_frame = 40;
  sync.state_hash = 0xfeedface;
  valid("sync_steady_state", sync);
  sync.inputs.clear();
  valid("sync_ack_only", sync);
  sync.first_frame = kMaxWireFrame - 1;
  sync.ack_frame = kMaxWireFrame - 1;
  sync.hash_frame = kMaxWireFrame - 1;
  sync.inputs = {7};
  valid("sync_max_frame", sync);

  valid("join_valid", JoinRequestMsg{0xCE113A125ull});
  valid("snapshot_frame_zero", SnapshotMsg{0, {0x01, 0x02, 0x03}});
  valid("snapshot_empty_state", SnapshotMsg{10, {}});
  valid("feed_valid", InputFeedMsg{0, {9, 8, 7}});
  valid("feedack_pregame", FeedAckMsg{-1});
  valid("feedack_valid", FeedAckMsg{599});

  // --- hostile shapes the decoder must reject --------------------------
  add("empty", {}, true);
  add("unknown_type_0", {0x00}, true);
  add("unknown_type_8", {0x08, 0x01, 0x02}, true);
  add("unknown_type_255", {0xFF}, true);

  const auto truncations = [&add](const std::string& base, const Message& m) {
    const auto full = core::encode_message(m);
    add(base + "_trunc_1", {full.begin(), full.begin() + 1}, true);
    add(base + "_trunc_half",
        {full.begin(), full.begin() + static_cast<std::ptrdiff_t>(full.size() / 2)}, true);
    add(base + "_trunc_tail", {full.begin(), full.end() - 1}, true);
    auto trailing = full;
    trailing.push_back(0x00);
    add(base + "_trailing_garbage", std::move(trailing), true);
  };
  truncations("hello", hello);
  truncations("sync", sync);
  truncations("snapshot", SnapshotMsg{3, {1, 2, 3, 4}});
  truncations("feed", InputFeedMsg{5, {1, 2}});

  {
    // SYNC claiming 4096 inputs but carrying 2: length confusion.
    ByteWriter w(64);
    w.u8(3); w.i32(1); w.i64(0); w.i64(0); w.u32(4096); w.u16(1); w.u16(2);
    add("sync_count_oversized", w.take(), true);
  }
  {
    // SYNC claiming 2^32-1 inputs: must reject before reserving.
    ByteWriter w(64);
    w.u8(3); w.i32(1); w.i64(0); w.i64(0); w.u32(0xFFFFFFFFu);
    add("sync_count_huge", w.take(), true);
  }
  {
    // SNAPSHOT claiming 2 MiB with a 4-byte body.
    ByteWriter w(64);
    w.u8(5); w.i64(0); w.u32(2u << 20); w.u32(0xdeadbeef);
    add("snapshot_len_oversized", w.take(), true);
  }
  {
    // FEED claiming the exact cap with no body.
    ByteWriter w(64);
    w.u8(6); w.i64(0); w.u32(4096);
    add("feed_count_oversized", w.take(), true);
  }

  // Out-of-range fields in otherwise well-formed encodings.
  SyncMsg bad = sync;
  bad.first_frame = kMaxWireFrame;
  add("sync_frame_past_cap", core::encode_message(Message{bad}), true);
  bad = sync;
  bad.first_frame = -1;
  add("sync_negative_first_frame", core::encode_message(Message{bad}), true);
  bad = sync;
  bad.ack_frame = -2;
  add("sync_ack_below_sentinel", core::encode_message(Message{bad}), true);
  bad = sync;
  bad.send_time = -5;
  add("sync_negative_send_time", core::encode_message(Message{bad}), true);
  bad = sync;
  bad.echo_hold = std::numeric_limits<Dur>::min();
  add("sync_negative_echo_hold", core::encode_message(Message{bad}), true);
  bad = sync;
  bad.hash_frame = std::numeric_limits<FrameNo>::max();
  add("sync_hash_frame_intmax", core::encode_message(Message{bad}), true);

  HelloMsg bad_hello = hello;
  bad_hello.hello_time = -1;
  add("hello_negative_time", core::encode_message(Message{bad_hello}), true);
  bad_hello = hello;
  bad_hello.echo_hold = -1'000'000;
  add("hello_negative_hold", core::encode_message(Message{bad_hello}), true);

  add("snapshot_frame_pregame", core::encode_message(Message{SnapshotMsg{-1, {1}}}), true);
  add("snapshot_frame_below_sentinel", core::encode_message(Message{SnapshotMsg{-2, {1}}}), true);
  add("feed_negative_frame", core::encode_message(Message{InputFeedMsg{-1, {1}}}), true);
  add("feed_huge_frame",
      core::encode_message(Message{InputFeedMsg{std::numeric_limits<FrameNo>::max() - 3, {1, 2}}}),
      true);
  add("feedack_below_sentinel", core::encode_message(Message{FeedAckMsg{-2}}), true);

  {
    // A SYNC whose input window *ends* past the frame cap (first_frame
    // in range, first_frame + n out of it) — in range per-field, only the
    // window arithmetic overflows. Decode accepts it (per-field rules);
    // ingest must still be safe. Kept in the corpus as a decoder
    // round-trip case.
    ByteWriter w(64);
    w.u8(3); w.i32(1); w.i64(0); w.i64((FrameNo{1} << 48) - 2); w.u32(4);
    w.u16(1); w.u16(2); w.u16(3); w.u16(4);
    w.i64(1); w.i64(-1); w.i64(0); w.i64(-1); w.u64(0);
    add("sync_window_spans_cap", w.take(), false);
  }
  {
    // Raw noise that happens to start with a valid type byte.
    ByteWriter w(64);
    w.u8(3);
    append_raw(w, {0xde, 0xad, 0xbe, 0xef, 0x00, 0x11, 0x22});
    add("sync_noise_body", w.take(), true);
  }

  // --- replay containers (Replay::parse is its own trust boundary: a
  // shared .rpl file is attacker-controlled input) ----------------------
  const auto add_replay = [&out](std::string name, std::vector<std::uint8_t> bytes,
                                 bool expect_reject) {
    out.push_back({std::move(name) + ".rpl", std::move(bytes), expect_reject,
                   CorpusEntry::Kind::kReplay});
  };
  const std::vector<std::uint8_t> v1 = sample_replay(false).serialize();
  const std::vector<std::uint8_t> v2 = sample_replay(true).serialize();
  add_replay("rpl1_valid", v1, false);
  add_replay("rpl2_valid", v2, false);

  // Truncated mid-snapshot: the byte stream ends inside kf0's state.
  add_replay("rpl2_trunc_mid_snapshot",
             {v2.begin(), v2.begin() + static_cast<std::ptrdiff_t>(kOffKf0State + 20)}, true);

  {
    // Keyframe digest flipped without re-stamping the CRC: the checksum
    // is the first line of defence for in-body corruption.
    auto b = v2;
    b[kOffKf0Digest] ^= 0xFF;
    add_replay("rpl2_corrupt_keyframe_digest", std::move(b), true);
  }
  {
    // interval=0 in a v2 header is a contradiction (CRC fixed up so the
    // structural check itself must fire).
    auto b = v2;
    put_u32(&b, kOffInterval, 0);
    fix_crc(&b);
    add_replay("rpl2_interval_zero", std::move(b), true);
  }
  {
    // Keyframe tagged past the recording's end: unreachable by seek.
    auto b = v2;
    put_u32(&b, kOffKf0Frame, 100);  // frame count is 10
    fix_crc(&b);
    add_replay("rpl2_keyframe_past_end", std::move(b), true);
  }
  {
    // Keyframes out of order (7 then 3): violates strict monotonicity.
    auto b = v2;
    put_u32(&b, kOffKf0Frame, 7);
    put_u32(&b, kOffKf1Frame, 3);
    fix_crc(&b);
    add_replay("rpl2_keyframes_unsorted", std::move(b), true);
  }
  {
    // The OOM-guard regression (both container versions): a forged frame
    // count of 16M over a 20-byte payload must be rejected *before* any
    // allocation happens.
    auto b = v2;
    put_u32(&b, kOffFrameCountV2, 0x00FFFFFFu);
    fix_crc(&b);
    add_replay("rpl2_count_oversized", std::move(b), true);
    auto c = v1;
    put_u32(&c, kOffFrameCountV1, 0x00FFFFFFu);
    fix_crc(&c);
    add_replay("rpl1_count_oversized", std::move(c), true);
  }
  {
    // Magic/version cross-grafts: both directions must be rejected.
    auto b = v1;
    put_u32(&b, kOffVersion, 2);
    fix_crc(&b);
    add_replay("rpl1_magic_v2_version", std::move(b), true);
    auto c = v2;
    put_u32(&c, kOffVersion, 1);
    fix_crc(&c);
    add_replay("rpl2_magic_v1_version", std::move(c), true);
  }
  {
    // digest_version outside {1,3}: a reader that guessed would compare
    // incomparable hashes. Version 2 is the retired one.
    auto b = v2;
    b[kOffDigestVer] = 7;
    fix_crc(&b);
    add_replay("rpl2_digest_version_bad", std::move(b), true);
    auto c = v2;
    c[kOffDigestVer] = 2;
    fix_crc(&c);
    add_replay("rpl2_digest_version_2", std::move(c), true);
  }
  {
    // Keyframe state length of 2 MiB (over the 1 MiB cap, and over the
    // actual payload): must bounce without reserving.
    auto b = v2;
    put_u32(&b, kOffKf0Len, 2u << 20);
    fix_crc(&b);
    add_replay("rpl2_state_len_oversized", std::move(b), true);
  }

  // --- the optional game-name trailer -----------------------------------
  const std::vector<std::uint8_t> v2n = sample_replay(true, "agent86:sample").serialize();
  add_replay("rpl2_named_valid", v2n, false);
  add_replay("rpl1_named_valid", sample_replay(false, "ac16:sample").serialize(), false);
  {
    // Name length byte claiming more bytes than are present: the trailer
    // must account exactly for what remains before the CRC.
    auto b = v2n;
    b[b.size() - 8 - 1 - 14] = 200;  // len byte of the 14-char name
    fix_crc(&b);
    add_replay("rpl2_name_len_overrun", std::move(b), true);
  }
  {
    // A zero-length name trailer is a contradiction (writers omit the
    // section entirely when the name is unknown).
    auto b = v2;
    b.insert(b.end() - 8, 0x00);
    fix_crc(&b);
    add_replay("rpl2_name_len_zero", std::move(b), true);
  }
  return out;
}

std::optional<std::string> check_replay_container(std::span<const std::uint8_t> bytes,
                                                  bool expect_reject) {
  const auto parsed = core::Replay::parse(bytes);
  if (expect_reject) {
    if (parsed) return "hostile replay container was accepted";
    return std::nullopt;
  }
  if (!parsed) return "valid replay container was rejected";
  // Canonical round-trip, the container analogue of the wire check.
  const auto once = parsed->serialize();
  const auto again = core::Replay::parse(once);
  if (!again) return "re-serialized replay no longer parses";
  if (again->serialize() != once) return "replay parse/serialize round-trip is not canonical";
  return std::nullopt;
}

std::optional<std::string> fuzz_replay(std::uint64_t seed, int iterations, FuzzStats* stats) {
  Rng rng(seed);
  FuzzStats local;
  for (int i = 0; i < iterations; ++i) {
    ++local.iterations;
    std::vector<std::uint8_t> buf;
    if (rng.bernoulli(0.1)) {
      // Pure noise (rarely even reaches the CRC check).
      buf.resize(static_cast<std::size_t>(rng.uniform(0, 96)));
      for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
    } else {
      // A structurally valid container with randomized shape...
      const bool v2 = rng.bernoulli(0.7);
      core::SyncConfig cfg;
      cfg.replay_keyframe_interval = v2 ? static_cast<int>(rng.uniform(1, 8)) : 0;
      core::Replay r(rng.next_u64(), cfg);
      const auto frames = static_cast<int>(rng.uniform(0, 24));
      for (int f = 0; f < frames; ++f) r.record(static_cast<InputWord>(rng.next_u64()));
      if (v2 && frames > 0) {
        FrameNo kf = rng.uniform(0, frames - 1);
        while (kf < frames) {
          r.record_keyframe_raw(kf, rng.next_u64(),
                                synthetic_state(static_cast<std::size_t>(rng.uniform(0, 64)),
                                                static_cast<std::uint8_t>(rng.next_u64())));
          kf += rng.uniform(1, 8);
        }
      }
      buf = r.serialize();
      // ...then mutated; half the mutants get a fresh CRC so the
      // structural validation behind the checksum is actually reached.
      if (rng.bernoulli(0.7)) {
        mutate(rng, &buf);
        if (rng.bernoulli(0.5)) fix_crc(&buf);
      }
    }
    const auto parsed = core::Replay::parse(buf);
    if (parsed) {
      ++local.accepted;
      const auto once = parsed->serialize();
      const auto again = core::Replay::parse(once);
      if (!again || again->serialize() != once) {
        if (stats != nullptr) *stats = local;
        return "iteration " + std::to_string(i) + " (seed " + std::to_string(seed) +
               "): accepted replay container does not round-trip canonically";
      }
    } else {
      ++local.rejected;
    }
  }
  if (stats != nullptr) *stats = local;
  return std::nullopt;
}

std::optional<std::string> fuzz_wire(std::uint64_t seed, int iterations, FuzzStats* stats) {
  Rng rng(seed);
  FuzzStats local;
  for (int i = 0; i < iterations; ++i) {
    ++local.iterations;
    std::vector<std::uint8_t> buf;
    if (rng.bernoulli(0.15)) {
      // Pure noise.
      buf.resize(static_cast<std::size_t>(rng.uniform(0, 64)));
      for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
    } else {
      buf = random_encoded(rng);
      if (rng.bernoulli(0.7)) mutate(rng, &buf);
    }
    if (core::decode_message(buf)) {
      ++local.accepted;
    } else {
      ++local.rejected;
    }
    if (auto fail = check_decoder(buf)) {
      if (stats != nullptr) *stats = local;
      return "iteration " + std::to_string(i) + " (seed " + std::to_string(seed) +
             "): " + *fail;
    }
  }
  if (stats != nullptr) *stats = local;
  return std::nullopt;
}

std::optional<std::string> fuzz_ingest(std::uint64_t seed, int iterations) {
  Rng rng(seed);
  core::SyncConfig cfg;
  cfg.buf_frames = 4;
  core::SyncPeer peer(0, cfg);
  core::SessionControl session(0, /*rom_checksum=*/1, cfg);
  core::SpectatorHost host(/*content_id=*/7, cfg);
  games::CellWarsGame replica;
  core::SpectatorClient client(replica, cfg);

  FrameNo local_frame = 0;
  Time now = 0;
  for (int i = 0; i < iterations; ++i) {
    now += 1'000'000;  // 1 ms per iteration keeps timestamps sane
    auto buf = random_encoded(rng);
    if (rng.bernoulli(0.7)) mutate(rng, &buf);
    const auto decoded = core::decode_message(buf);
    if (decoded) {
      // The decoder accepted it, so every state machine must survive it —
      // this is exactly the deployed trust boundary.
      session.ingest(*decoded, now);
      host.ingest(*decoded);
      client.ingest(*decoded);
      if (const auto* sync = std::get_if<SyncMsg>(&*decoded)) {
        peer.ingest(*sync, now);
      }
    }
    // Drive the machines forward so ingested state is consumed, not just
    // stored: local frames advance, ready inputs pop, messages flush.
    peer.submit_local(local_frame, static_cast<InputWord>(rng.next_u64()));
    ++local_frame;
    while (peer.ready()) peer.pop();
    (void)peer.make_message(1, now);
    if (host.wants_snapshot()) {
      static constexpr std::uint8_t kTinyState[] = {0x01, 0x02};
      host.provide_snapshot(static_cast<FrameNo>(i), kTinyState);
    }
    host.on_frame(static_cast<FrameNo>(i), static_cast<InputWord>(rng.next_u64()));
    (void)host.make_message(now);
    (void)client.make_message(now);
    (void)client.step_available();
  }
  return std::nullopt;  // sanitizers are the oracle here
}

}  // namespace rtct::chaos
