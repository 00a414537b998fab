#include "src/core/wire.h"

#include "src/common/bytes.h"

namespace rtct::core {

namespace {

enum class MsgType : std::uint8_t {
  kHello = 1,
  kStart = 2,
  kSync = 3,
  kJoinRequest = 4,
  kSnapshot = 5,
  kInputFeed = 6,
  kFeedAck = 7,
};

constexpr std::size_t kMaxWireInputs = 4096;    // decode hard cap (anti-abuse)
constexpr std::size_t kMaxSnapshot = 1 << 20;   // 1 MiB snapshot cap

// Frame numbers arriving off the wire are bounded to [floor, 2^48): 2^48
// frames is ~148k years at 60 FPS, so nothing legitimate ever exceeds it,
// and the headroom guarantees `first_frame + inputs.size()` style
// arithmetic downstream can never overflow int64. The floor is -1 where
// the protocol uses -1 as a sentinel (pre-game snapshot / "nothing yet"
// acks), 0 for input windows. See docs/PROTOCOL.md "Decoder rejection
// rules".
constexpr FrameNo kMaxWireFrame = FrameNo{1} << 48;

constexpr bool frame_in_range(FrameNo f, FrameNo floor = 0) {
  return f >= floor && f < kMaxWireFrame;
}

// Timestamps/durations are sender-relative nanoseconds; the wire contract
// is non-negative (or the -1 "unset" sentinel where noted). A negative
// echo_hold would manufacture inflated RTT samples downstream.
constexpr bool time_in_range(Time t, Time floor = 0) { return t >= floor; }

void write_sync(ByteWriter& w, const SyncMsg& sync) {
  w.u8(static_cast<std::uint8_t>(MsgType::kSync));
  w.i32(sync.site);
  w.i64(sync.ack_frame);
  w.i64(sync.first_frame);
  w.u32(static_cast<std::uint32_t>(sync.inputs.size()));
  for (InputWord i : sync.inputs) w.u16(i);
  w.i64(sync.send_time);
  w.i64(sync.echo_time);
  w.i64(sync.echo_hold);
  w.i64(sync.hash_frame);
  w.u64(sync.state_hash);
}

void write_feed(ByteWriter& w, FrameNo first_frame, std::span<const InputWord> inputs) {
  w.u8(static_cast<std::uint8_t>(MsgType::kInputFeed));
  w.i64(first_frame);
  w.u32(static_cast<std::uint32_t>(inputs.size()));
  for (InputWord i : inputs) w.u16(i);
}

/// `out` as alternative T: the held message when it already is one (so
/// its buffers are reused), else a fresh one.
template <typename T>
T& reuse_as(Message& out) {
  if (auto* m = std::get_if<T>(&out)) return *m;
  return out.template emplace<T>();
}

}  // namespace

std::vector<std::uint8_t> encode_message(const Message& msg) {
  std::vector<std::uint8_t> out;
  out.reserve(64);
  encode_message_into(msg, out);
  return out;
}

void encode_snapshot_into(FrameNo frame, std::span<const std::uint8_t> state,
                          std::vector<std::uint8_t>& out) {
  ByteWriter w(std::move(out));
  w.u8(static_cast<std::uint8_t>(MsgType::kSnapshot));
  w.i64(frame);
  w.u32(static_cast<std::uint32_t>(state.size()));
  w.bytes(state);
  out = w.take();
}

void encode_feed_into(FrameNo first_frame, std::span<const InputWord> inputs,
                      std::vector<std::uint8_t>& out) {
  out.clear();
  out.reserve(1 + 8 + 4 + 2 * inputs.size());  // type, first_frame, count, inputs
  ByteWriter w(std::move(out));
  write_feed(w, first_frame, inputs);
  out = w.take();
}

void encode_message_into(const Message& msg, std::vector<std::uint8_t>& out) {
  ByteWriter w(std::move(out));
  if (const auto* hello = std::get_if<HelloMsg>(&msg)) {
    w.u8(static_cast<std::uint8_t>(MsgType::kHello));
    w.i32(hello->site);
    w.u32(hello->protocol_version);
    w.u64(hello->rom_checksum);
    w.u16(hello->cfps);
    w.u16(hello->buf_frames);
    w.i64(hello->hello_time);
    w.i64(hello->echo_time);
    w.i64(hello->echo_hold);
    w.i64(hello->adv_rtt);
    w.u8(hello->flags);
    w.u16(hello->redundancy);
  } else if (const auto* start = std::get_if<StartMsg>(&msg)) {
    w.u8(static_cast<std::uint8_t>(MsgType::kStart));
    w.i32(start->site);
    w.u16(start->buf_frames);
    w.u8(start->flags);
  } else if (const auto* sync = std::get_if<SyncMsg>(&msg)) {
    write_sync(w, *sync);
  } else if (const auto* join = std::get_if<JoinRequestMsg>(&msg)) {
    w.u8(static_cast<std::uint8_t>(MsgType::kJoinRequest));
    w.u64(join->content_id);
  } else if (const auto* snap = std::get_if<SnapshotMsg>(&msg)) {
    w.u8(static_cast<std::uint8_t>(MsgType::kSnapshot));
    w.i64(snap->frame);
    w.u32(static_cast<std::uint32_t>(snap->state.size()));
    w.bytes(snap->state);
  } else if (const auto* feed = std::get_if<InputFeedMsg>(&msg)) {
    write_feed(w, feed->first_frame, feed->inputs);
  } else if (const auto* ack = std::get_if<FeedAckMsg>(&msg)) {
    w.u8(static_cast<std::uint8_t>(MsgType::kFeedAck));
    w.i64(ack->frame);
  }
  out = w.take();
}

std::optional<Message> decode_message(std::span<const std::uint8_t> data) {
  std::optional<Message> out(std::in_place);
  if (!decode_message_into(data, *out)) return std::nullopt;
  return out;
}

// Every case assigns every field of its message, so a reused one carries
// nothing over from the last datagram.
bool decode_message_into(std::span<const std::uint8_t> data, Message& out) {
  ByteReader r(data);
  const auto type = static_cast<MsgType>(r.u8());
  switch (type) {
    case MsgType::kHello: {
      HelloMsg& m = reuse_as<HelloMsg>(out);
      m.site = r.i32();
      m.protocol_version = r.u32();
      m.rom_checksum = r.u64();
      m.cfps = r.u16();
      m.buf_frames = r.u16();
      m.hello_time = r.i64();
      m.echo_time = r.i64();
      m.echo_hold = r.i64();
      m.adv_rtt = r.i64();
      m.flags = r.u8();
      m.redundancy = r.u16();
      if (!r.ok() || !r.at_end()) return false;
      return time_in_range(m.hello_time) && time_in_range(m.echo_time, -1) &&
             time_in_range(m.echo_hold) && time_in_range(m.adv_rtt, -1);
    }
    case MsgType::kStart: {
      StartMsg& m = reuse_as<StartMsg>(out);
      m.site = r.i32();
      m.buf_frames = r.u16();
      m.flags = r.u8();
      return r.ok() && r.at_end();
    }
    case MsgType::kSync: {
      SyncMsg& m = reuse_as<SyncMsg>(out);
      m.site = r.i32();
      m.ack_frame = r.i64();
      m.first_frame = r.i64();
      const std::uint32_t n = r.u32();
      // Bound the claimed count by both the protocol cap and the bytes the
      // reader actually holds (2 per input) BEFORE sizing: a 16-byte
      // forged datagram claiming n = 4096 must not cost an 8 KiB
      // allocation per packet.
      if (n > kMaxWireInputs || n > r.remaining() / 2) return false;
      m.inputs.resize(n);
      for (InputWord& i : m.inputs) i = r.u16();
      m.send_time = r.i64();
      m.echo_time = r.i64();
      m.echo_hold = r.i64();
      m.hash_frame = r.i64();
      m.state_hash = r.u64();
      if (!r.ok() || !r.at_end()) return false;
      return frame_in_range(m.first_frame) && frame_in_range(m.ack_frame, -1) &&
             frame_in_range(m.hash_frame, -1) && time_in_range(m.send_time) &&
             time_in_range(m.echo_time, -1) && time_in_range(m.echo_hold);
    }
    case MsgType::kJoinRequest: {
      JoinRequestMsg& m = reuse_as<JoinRequestMsg>(out);
      m.content_id = r.u64();
      return r.ok() && r.at_end();
    }
    case MsgType::kSnapshot: {
      const FrameNo frame = r.i64();
      const std::uint32_t n = r.u32();
      if (n > kMaxSnapshot || n > r.remaining()) return false;
      const auto body = r.bytes(n);
      if (!r.ok() || !r.at_end()) return false;
      // No producer ever snapshots before frame 0 executed (the drivers
      // gate on machine.frame() > 0), so a pre-frame-0 snapshot on the
      // wire is hostile by construction.
      if (!frame_in_range(frame, 0)) return false;
      SnapshotMsg& m = reuse_as<SnapshotMsg>(out);
      m.frame = frame;
      m.state.assign(body.begin(), body.end());
      return true;
    }
    case MsgType::kInputFeed: {
      InputFeedMsg& m = reuse_as<InputFeedMsg>(out);
      m.first_frame = r.i64();
      const std::uint32_t n = r.u32();
      if (n > kMaxWireInputs || n > r.remaining() / 2) return false;
      m.inputs.resize(n);
      for (InputWord& i : m.inputs) i = r.u16();
      if (!r.ok() || !r.at_end()) return false;
      return frame_in_range(m.first_frame);
    }
    case MsgType::kFeedAck: {
      FeedAckMsg& m = reuse_as<FeedAckMsg>(out);
      m.frame = r.i64();
      if (!r.ok() || !r.at_end()) return false;
      return frame_in_range(m.frame, -1);  // -1 acks the pre-game snapshot
    }
  }
  return false;
}

void encode_sync_into(const SyncMsg& msg, std::vector<std::uint8_t>& out) {
  ByteWriter w(std::move(out));
  write_sync(w, msg);
  out = w.take();
}

}  // namespace rtct::core
