// The determinism contract between the emulator and the sync layer.
//
// The paper's central transparency claim (§2) is that the sync module
// treats `S' = Transition(I, S)` as a black box. This interface *is* that
// black box: the distributed VM (src/core) drives games exclusively through
// it and never learns anything about their semantics.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace rtct::emu {

/// Optional render extension: a game that can be drawn exposes a text-mode
/// framebuffer of palette indices (row-major, cols x rows bytes). The sync
/// layer never touches this — it exists so presentation tools (rtct_play,
/// rtct_watch, rtct_netplay, testbed screen capture) can render *any* core
/// without downcasting to a concrete machine type. Geometry is per-game:
/// AC16 is 64x48, agent86 is 64x32, cellwars synthesizes 32x24.
class IRenderableGame {
 public:
  virtual ~IRenderableGame() = default;

  [[nodiscard]] virtual int fb_cols() const = 0;
  [[nodiscard]] virtual int fb_rows() const = 0;

  /// fb_cols()*fb_rows() palette indices. The span is only valid until the
  /// next step_frame()/load_state() on the owning game.
  [[nodiscard]] virtual std::span<const std::uint8_t> framebuffer() const = 0;
};

/// The state-digest version every session, recording and bisection uses.
inline constexpr int kStateDigestVersion = 3;

class IDeterministicGame {
 public:
  virtual ~IDeterministicGame() = default;

  /// Returns to the initial state S0. Two replicas that reset() and then
  /// receive the same input sequence MUST produce identical state_hash()
  /// sequences — that is the determinism assumption of §3, and the tests
  /// enforce it rather than assume it.
  virtual void reset() = 0;

  /// Executes one video frame given the full (merged, both players') input
  /// word. This is Algorithm 1's `S = Transition(I, S)`.
  virtual void step_frame(InputWord input) = 0;

  /// 64-bit fingerprint of the complete mutable state.
  [[nodiscard]] virtual std::uint64_t state_hash() const = 0;

  /// Versioned fingerprint. Version 1 is state_hash(), kept as the oracle.
  /// Sessions, replays and bisection use kStateDigestVersion (3), which a
  /// game MAY implement more cheaply: the paged cores keep a running sum
  /// of position-keyed page hashes, so a digest costs O(pages written).
  /// Digests of different versions are not comparable. Versions above 1
  /// give the newest digest the game implements (here: version 1).
  [[nodiscard]] virtual std::uint64_t state_digest(int version) const {
    (void)version;
    return state_hash();
  }

  /// Per-page digests of the mutable state, in page order — the terms
  /// summed by the version-3 digest, exposed so divergence tooling
  /// (the replay bisector) can name the exact page(s) on which two
  /// replicas differ instead of just "the hashes split". Empty means the
  /// game has no page-granular digest; tooling then falls back to diffing
  /// raw save_state() bytes. Pages are kPageSize-byte units starting at
  /// page_digest_base() in the game's address space.
  [[nodiscard]] virtual std::vector<std::uint64_t> page_digests() const { return {}; }

  /// Address of the first byte page 0 of page_digests() covers (used only
  /// to label pages in human/JSON reports).
  [[nodiscard]] virtual std::uint32_t page_digest_base() const { return 0; }

  /// Serializes the complete mutable state (versioned).
  [[nodiscard]] virtual std::vector<std::uint8_t> save_state() const = 0;

  /// save_state() into a caller-owned buffer, reusing its capacity. Hot
  /// paths (snapshot fan-out, replay recording, chaos soak) call this once
  /// per served frame; overriding it makes those paths allocation-free.
  virtual void save_state_into(std::vector<std::uint8_t>& out) const { out = save_state(); }

  /// Restores a save_state() snapshot. Returns false on a malformed or
  /// version-mismatched snapshot (state is then unspecified; reset()).
  virtual bool load_state(std::span<const std::uint8_t> data) = 0;

  /// Number of frames executed since reset().
  [[nodiscard]] virtual FrameNo frame() const = 0;

  /// Stable identity of the loaded content (e.g. ROM checksum). The
  /// session handshake refuses to pair sites whose content ids differ —
  /// the paper's "same game image" precondition (§2). Two cores loading a
  /// game of the *same name* MUST still produce different content ids
  /// (content identity is the image, not the label).
  [[nodiscard]] virtual std::uint64_t content_id() const = 0;

  /// Qualified human-readable content label, "core:game" (e.g.
  /// "ac16:duel", "agent86:skirmish"). Advisory only — content_id() is the
  /// identity the handshake trusts; the name is recorded in replay headers
  /// so tooling can re-instantiate the right core without a content-id
  /// scan. Empty when the game has no registry name (e.g. a ROM loaded
  /// from a file).
  [[nodiscard]] virtual std::string content_name() const { return {}; }

  /// True when the game can no longer make progress (e.g. the emulated CPU
  /// hit a bad opcode or blew its cycle budget). Presentation/tooling
  /// surface this to the user; the sync layer keeps stepping regardless —
  /// a deterministic fault is still deterministic.
  [[nodiscard]] virtual bool faulted() const { return false; }

  /// Render extension, or nullptr when the game has no visual surface.
  /// Returning `this` from a subclass that also implements IRenderableGame
  /// is the expected pattern — callers never dynamic_cast.
  [[nodiscard]] virtual const IRenderableGame* renderable() const { return nullptr; }
};

}  // namespace rtct::emu
