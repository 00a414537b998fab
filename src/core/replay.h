// Session recording and deterministic replay.
//
// Because the game is deterministic and fully input-driven, a complete
// session is just (game identity, sync parameters, merged input per
// frame). Recording that is ~2 bytes/frame and replaying it reproduces the
// session bit-exactly — the standard netplay facility for sharing matches
// and debugging desyncs offline. FrameLoop records the *merged* inputs
// after SyncInput, so a replay file from either site of a match is
// identical.
//
// Container versions (both little-endian, FNV-1a checksummed like the
// .rom container; see docs/PROTOCOL.md "Container formats"):
//
//   RTCTRPL1 — linear input log:
//     magic "RTCTRPL1", u32 version=1, u64 content_id, u16 cfps,
//     u16 buf_frames, u32 frame count, inputs (u16 each), u64 crc.
//
//   RTCTRPL2 — seekable: the input log plus periodic embedded keyframes
//   (full save_state snapshots with their state digest), enabling
//   TAS-grade random access (seek/rewind/branch) and divergence
//   bisection without re-simulating from frame 0:
//     magic "RTCTRPL2", u32 version=2, u64 content_id, u16 cfps,
//     u16 buf_frames, u8 digest_version (1 or 3), u32 keyframe_interval,
//     u32 frame count, inputs (u16 each), u32 keyframe count,
//     keyframes { u32 frame, u64 digest, u32 state_len, state bytes },
//     [game name: u8 len, len bytes], u64 crc.
//
// The game-name section (both container versions) is the qualified
// registry name the recorder ran ("ac16:duel", "agent86:skirmish") — it
// lets tooling re-instantiate the right core directly instead of scanning
// every bundled game for a matching content id. It is optional on read:
// files written before the field (remaining bytes == just the CRC at that
// point) still parse, with an empty name.
//
// A keyframe tagged `frame` holds the machine state *after* the input of
// that frame was applied — the same frame/digest convention as apply()'s
// per_frame callback and the FrameTimeline. Writers emit keyframes every
// `keyframe_interval` frames (rollback recorders: at the first confirmed
// watermark past each interval); readers accept any strictly increasing
// keyframe placement below the frame count.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/core/config.h"
#include "src/emu/game.h"

namespace rtct::core {

/// An embedded snapshot: the complete machine state after `frame`'s input
/// was applied, plus its state digest (under the file's digest_version) so
/// a restore can be integrity-checked and divergence bisection can compare
/// keyframes without loading them.
struct ReplayKeyframe {
  FrameNo frame = -1;
  std::uint64_t digest = 0;
  std::vector<std::uint8_t> state;

  bool operator==(const ReplayKeyframe&) const = default;
};

/// A parsed (or under-construction) replay.
class Replay {
 public:
  Replay() = default;
  /// `game_name`, when known, is the qualified registry name of the game
  /// being recorded (IDeterministicGame::content_name()).
  Replay(std::uint64_t content_id, const SyncConfig& cfg, std::string game_name = {})
      : content_id_(content_id),
        cfps_(cfg.cfps),
        buf_frames_(cfg.buf_frames),
        keyframe_interval_(cfg.replay_keyframe_interval),
        game_name_(std::move(game_name)) {}

  /// Appends the merged input of the next frame (call in frame order).
  void record(InputWord merged) { inputs_.push_back(merged); }

  /// True once the recording has advanced `keyframe_interval` frames past
  /// the last keyframe (or past genesis): time to record_keyframe().
  [[nodiscard]] bool keyframe_due() const {
    if (keyframe_interval_ <= 0 || inputs_.empty()) return false;
    const FrameNo last = keyframes_.empty() ? -1 : keyframes_.back().frame;
    return frames() - 1 >= last + keyframe_interval_;
  }

  /// Embeds a keyframe of `game`, which must have stepped exactly the
  /// recorded inputs (game.frame() == frames()). Uses the zero-alloc
  /// save_state_into path; the digest is computed under the file's
  /// digest_version.
  void record_keyframe(const emu::IDeterministicGame& game);

  /// Embeds a keyframe from already-serialized state (rollback recorders:
  /// the live machine is speculative, only the confirmed snapshot is
  /// canonical). `digest` must be the digest of `state` under the file's
  /// digest_version.
  void record_keyframe_raw(FrameNo frame, std::uint64_t digest,
                           std::span<const std::uint8_t> state);

  [[nodiscard]] std::uint64_t content_id() const { return content_id_; }
  /// Qualified game name the session ran (empty for pre-field recordings).
  [[nodiscard]] const std::string& game_name() const { return game_name_; }
  [[nodiscard]] int cfps() const { return cfps_; }
  [[nodiscard]] int buf_frames() const { return buf_frames_; }
  [[nodiscard]] int digest_version() const { return digest_version_; }
  [[nodiscard]] int keyframe_interval() const { return keyframe_interval_; }
  [[nodiscard]] const std::vector<InputWord>& inputs() const { return inputs_; }
  [[nodiscard]] FrameNo frames() const { return static_cast<FrameNo>(inputs_.size()); }
  [[nodiscard]] const std::vector<ReplayKeyframe>& keyframes() const { return keyframes_; }
  /// Mutable keyframe access for divergence tooling and fixture forging
  /// (e.g. injecting a known single-byte mutation the bisector must find).
  [[nodiscard]] std::vector<ReplayKeyframe>& keyframes_mutable() { return keyframes_; }

  /// The container version serialize() will emit: 2 when the replay is
  /// seekable (an interval or embedded keyframes), else the v1 layout.
  [[nodiscard]] int container_version() const {
    return keyframe_interval_ > 0 || !keyframes_.empty() ? 2 : 1;
  }

  /// Serializes to the container format.
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;

  /// Serializes into `out`, reusing its capacity (allocation-free once
  /// warm — the pattern every hot-path caller should prefer).
  void serialize_into(std::vector<std::uint8_t>& out) const;

  /// Parses a container (v1 or v2); nullopt on corruption, version
  /// mismatch, or a header that disagrees with the payload length (the
  /// declared counts are validated against the remaining bytes *before*
  /// any allocation — an attacker-controlled count cannot OOM the parser).
  /// A digest_version other than 1 or 3 is refused, and `error` (when
  /// given) says why: keyframe digests of version 2 cannot be verified.
  static std::optional<Replay> parse(std::span<const std::uint8_t> data,
                                     std::string* error = nullptr);

  /// Replays every recorded frame onto `game` (which must be freshly reset
  /// and of the matching content). Returns false on content-id mismatch.
  /// `per_frame` (optional) observes (frame, state digest) after each step;
  /// pass emu::kStateDigestVersion to compare against a session timeline.
  bool apply(emu::IDeterministicGame& game,
             const std::function<void(FrameNo, std::uint64_t)>& per_frame = nullptr,
             int digest_version = 1) const;

  /// Random access: diagnostics of one seek() call.
  struct SeekStats {
    FrameNo keyframe = -1;      ///< restore point used (-1 = reset from genesis)
    FrameNo resimulated = 0;    ///< frames re-simulated after the restore
  };

  /// Positions `game` at the state after frame `frame` was applied, by
  /// restoring the nearest keyframe at or before it (falling back to
  /// reset()) and re-simulating the remaining inputs. Returns the state
  /// digest at `frame` under `digest_version` (0 = the file's own
  /// version); nullopt on content-id mismatch, out-of-range frame, or a
  /// keyframe whose restored state no longer matches its recorded digest
  /// (embedded-snapshot corruption).
  std::optional<std::uint64_t> seek(emu::IDeterministicGame& game, FrameNo frame,
                                    int digest_version = 0,
                                    SeekStats* stats = nullptr) const;

  /// Truncate-and-fork: a new replay carrying frames [0, frame] and every
  /// keyframe inside that prefix — the repro-minimization primitive
  /// (`rtct_replay branch`). Frames past the end are clamped.
  [[nodiscard]] Replay branch(FrameNo frame) const;

  // File helpers.
  [[nodiscard]] bool save_file(const std::string& path) const;
  static std::optional<Replay> load_file(const std::string& path,
                                         std::string* error = nullptr);

 private:
  std::uint64_t content_id_ = 0;
  int cfps_ = 60;
  int buf_frames_ = 6;
  int digest_version_ = emu::kStateDigestVersion;
  int keyframe_interval_ = 0;  ///< 0 = linear v1 recording (no keyframes)
  std::string game_name_;      ///< qualified name; empty = unknown/legacy
  std::vector<InputWord> inputs_;
  std::vector<ReplayKeyframe> keyframes_;
};

}  // namespace rtct::core
