#include "src/core/replay.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "src/common/bytes.h"
#include "src/common/hash.h"

namespace rtct::core {

namespace {
constexpr std::uint8_t kMagicV1[8] = {'R', 'T', 'C', 'T', 'R', 'P', 'L', '1'};
constexpr std::uint8_t kMagicV2[8] = {'R', 'T', 'C', 'T', 'R', 'P', 'L', '2'};
constexpr std::uint32_t kMaxReplayFrames = 1u << 24;  // ~77 hours at 60 FPS
/// Cap on one embedded snapshot; matches the wire SNAPSHOT size cap (the
/// AC16 machine state is ~33 KiB, so this is generous headroom, not a
/// limit any honest writer approaches).
constexpr std::uint32_t kMaxKeyframeState = 1u << 20;
constexpr std::size_t kCrcLen = 8;
}  // namespace

void Replay::record_keyframe(const emu::IDeterministicGame& game) {
  ReplayKeyframe kf;
  kf.frame = frames() - 1;
  kf.digest = game.state_digest(digest_version_);
  game.save_state_into(kf.state);
  keyframes_.push_back(std::move(kf));
}

void Replay::record_keyframe_raw(FrameNo frame, std::uint64_t digest,
                                 std::span<const std::uint8_t> state) {
  ReplayKeyframe kf;
  kf.frame = frame;
  kf.digest = digest;
  kf.state.assign(state.begin(), state.end());
  keyframes_.push_back(std::move(kf));
}

std::vector<std::uint8_t> Replay::serialize() const {
  std::vector<std::uint8_t> out;
  serialize_into(out);
  return out;
}

void Replay::serialize_into(std::vector<std::uint8_t>& out) const {
  std::size_t kf_bytes = 0;
  for (const ReplayKeyframe& kf : keyframes_) kf_bytes += 16 + kf.state.size();
  out.reserve(inputs_.size() * 2 + kf_bytes + game_name_.size() + 64);
  const bool v2 = container_version() == 2;
  ByteWriter w(std::move(out));
  // Byte-wise append: GCC 12's -Wstringop-overflow misfires on an 8-byte
  // insert into a freshly-reserved vector here.
  for (std::uint8_t b : v2 ? kMagicV2 : kMagicV1) w.u8(b);
  w.u32(v2 ? 2 : 1);
  w.u64(content_id_);
  w.u16(static_cast<std::uint16_t>(cfps_));
  w.u16(static_cast<std::uint16_t>(buf_frames_));
  if (v2) {
    w.u8(static_cast<std::uint8_t>(digest_version_));
    w.u32(static_cast<std::uint32_t>(keyframe_interval_));
  }
  w.u32(static_cast<std::uint32_t>(inputs_.size()));
  for (InputWord i : inputs_) w.u16(i);
  if (v2) {
    w.u32(static_cast<std::uint32_t>(keyframes_.size()));
    for (const ReplayKeyframe& kf : keyframes_) {
      w.u32(static_cast<std::uint32_t>(kf.frame));
      w.u64(kf.digest);
      w.u32(static_cast<std::uint32_t>(kf.state.size()));
      w.bytes(kf.state);
    }
  }
  // Optional trailing section: the qualified game name. Omitted when
  // unknown, so a name-less Replay round-trips byte-identically with the
  // pre-field layout.
  if (!game_name_.empty() && game_name_.size() <= 255) {
    w.u8(static_cast<std::uint8_t>(game_name_.size()));
    for (char c : game_name_) w.u8(static_cast<std::uint8_t>(c));
  }
  w.u64(fnv1a64(w.data()));
  out = w.take();
}

std::optional<Replay> Replay::parse(std::span<const std::uint8_t> data, std::string* error) {
  if (data.size() < 8 + 4 + 8 + 2 + 2 + 4 + kCrcLen) return std::nullopt;
  ByteReader r(data);
  const auto magic = r.bytes(8);
  const bool v2 = std::memcmp(magic.data(), kMagicV2, 8) == 0;
  if (!v2 && std::memcmp(magic.data(), kMagicV1, 8) != 0) return std::nullopt;
  // The magic and the version field must agree — a v1/v2 cross-graft is a
  // corrupt or forged file, not a negotiable one.
  if (r.u32() != (v2 ? 2u : 1u)) return std::nullopt;
  // Verify the checksum up front: everything after this point trusts the
  // declared counts only against the *remaining length*, and the trailer
  // makes any in-body bit flip a clean rejection.
  if (fnv1a64(data.subspan(0, data.size() - kCrcLen)) !=
      [&] {
        std::uint64_t crc = 0;
        std::memcpy(&crc, data.data() + data.size() - kCrcLen, kCrcLen);
        return crc;
      }()) {
    return std::nullopt;
  }

  Replay out;
  out.content_id_ = r.u64();
  out.cfps_ = r.u16();
  out.buf_frames_ = r.u16();
  out.digest_version_ = 1;
  out.keyframe_interval_ = 0;
  if (v2) {
    const std::uint8_t dv = r.u8();
    if (dv != 1 && dv != emu::kStateDigestVersion) {
      if (error != nullptr) {
        *error = "digest version " + std::to_string(dv) +
                 " is not supported (only 1 and 3); re-record the session";
      }
      return std::nullopt;
    }
    out.digest_version_ = dv;
    const std::uint32_t interval = r.u32();
    // v2 without an interval is a contradiction (a writer with no
    // keyframe policy emits v1); interval=0 would also break the seek
    // cost contract, so it is rejected outright.
    if (interval == 0 || interval > kMaxReplayFrames) return std::nullopt;
    out.keyframe_interval_ = static_cast<int>(interval);
  }
  const std::uint32_t n = r.u32();
  if (!r.ok() || n > kMaxReplayFrames) return std::nullopt;
  // OOM guard: the declared frame count must fit the payload that is
  // actually present — checked BEFORE the reserve, so a forged count
  // cannot make the parser allocate gigabytes. v1 payloads must match
  // exactly; v2 still has the keyframe table to account for.
  const std::size_t inputs_bytes = std::size_t{n} * 2;
  if (v2) {
    if (r.remaining() < inputs_bytes + 4 + kCrcLen) return std::nullopt;
  } else {
    // v1 may carry the optional game-name trailer after the inputs.
    if (r.remaining() < inputs_bytes + kCrcLen) return std::nullopt;
  }
  out.inputs_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.inputs_.push_back(r.u16());

  if (v2) {
    const std::uint32_t kn = r.u32();
    // Same guard for the keyframe table: 16 bytes of fixed fields per
    // entry must be present before anything is reserved.
    if (!r.ok() || kn > kMaxReplayFrames ||
        r.remaining() < std::size_t{kn} * 16 + kCrcLen) {
      return std::nullopt;
    }
    out.keyframes_.reserve(kn);
    FrameNo prev = -1;
    for (std::uint32_t i = 0; i < kn; ++i) {
      ReplayKeyframe kf;
      kf.frame = r.u32();
      kf.digest = r.u64();
      const std::uint32_t len = r.u32();
      if (!r.ok() || len > kMaxKeyframeState || r.remaining() < len + kCrcLen) {
        return std::nullopt;
      }
      // Keyframes must be strictly increasing and inside the recording —
      // a keyframe past the frame count can never be reached by seek and
      // marks a truncated/forged input table.
      if (kf.frame <= prev || kf.frame >= static_cast<FrameNo>(n)) return std::nullopt;
      prev = kf.frame;
      const auto state = r.bytes(len);
      kf.state.assign(state.begin(), state.end());
      out.keyframes_.push_back(std::move(kf));
    }
  }
  // Optional game-name trailer: absent in pre-field recordings (only the
  // CRC remains), else exactly u8 len + len bytes before the CRC.
  if (r.ok() && r.remaining() > kCrcLen) {
    const std::uint8_t name_len = r.u8();
    if (name_len == 0 || r.remaining() != name_len + kCrcLen) return std::nullopt;
    const auto name = r.bytes(name_len);
    out.game_name_.assign(name.begin(), name.end());
  }
  if (!r.ok() || r.remaining() != kCrcLen) return std::nullopt;
  (void)r.u64();  // checksum — already verified above
  return out;
}

bool Replay::apply(emu::IDeterministicGame& game,
                   const std::function<void(FrameNo, std::uint64_t)>& per_frame,
                   int digest_version) const {
  if (game.content_id() != content_id_) return false;
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    game.step_frame(inputs_[i]);
    if (per_frame) per_frame(static_cast<FrameNo>(i), game.state_digest(digest_version));
  }
  return true;
}

std::optional<std::uint64_t> Replay::seek(emu::IDeterministicGame& game, FrameNo frame,
                                          int digest_version, SeekStats* stats) const {
  if (game.content_id() != content_id_) return std::nullopt;
  if (frame < 0 || frame >= frames()) return std::nullopt;
  if (digest_version == 0) digest_version = digest_version_;

  // Nearest keyframe at or before the target (keyframes_ is sorted).
  const auto it = std::upper_bound(
      keyframes_.begin(), keyframes_.end(), frame,
      [](FrameNo f, const ReplayKeyframe& kf) { return f < kf.frame; });
  const ReplayKeyframe* kf = it == keyframes_.begin() ? nullptr : &*(it - 1);

  FrameNo at;  // frame the machine now sits on (-1 = genesis)
  if (kf != nullptr) {
    if (!game.load_state(kf->state)) return std::nullopt;
    // Integrity check: the restored state must reproduce the digest the
    // recorder embedded — catches keyframe corruption that a fixed-up
    // checksum would otherwise smuggle past parse().
    if (game.state_digest(digest_version_) != kf->digest) return std::nullopt;
    at = kf->frame;
  } else {
    game.reset();
    at = -1;
  }
  if (stats != nullptr) {
    stats->keyframe = kf != nullptr ? kf->frame : -1;
    stats->resimulated = frame - at;
  }
  for (FrameNo f = at + 1; f <= frame; ++f) {
    game.step_frame(inputs_[static_cast<std::size_t>(f)]);
  }
  return game.state_digest(digest_version);
}

Replay Replay::branch(FrameNo frame) const {
  Replay out;
  out.content_id_ = content_id_;
  out.cfps_ = cfps_;
  out.buf_frames_ = buf_frames_;
  out.digest_version_ = digest_version_;
  out.keyframe_interval_ = keyframe_interval_;
  out.game_name_ = game_name_;
  const FrameNo keep = std::min<FrameNo>(frame, frames() - 1);
  if (keep < 0) return out;
  out.inputs_.assign(inputs_.begin(), inputs_.begin() + static_cast<std::ptrdiff_t>(keep) + 1);
  for (const ReplayKeyframe& kf : keyframes_) {
    if (kf.frame <= keep) out.keyframes_.push_back(kf);
  }
  return out;
}

bool Replay::save_file(const std::string& path) const {
  const auto bytes = serialize();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  std::fclose(f);
  return ok;
}

std::optional<Replay> Replay::load_file(const std::string& path, std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::vector<std::uint8_t> data;
  std::uint8_t buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) data.insert(data.end(), buf, buf + n);
  std::fclose(f);
  return parse(data, error);
}

}  // namespace rtct::core
