// SyncPeer — the logical-consistency algorithm (paper Algorithm 2,
// SyncInput) as a sans-IO state machine, for any number of sites.
//
// The paper presents SyncInput as a blocking function containing a
// send/receive loop. Factoring the state out of that loop gives four pure
// operations a driver composes:
//
//   submit_local(F, I)      — lines 1-5: buffer local input for frame F+BufFrame
//   make_message(peer, now) — lines 7-11: the outbound sd[] message for one
//                             peer (cumulative ack + unacked contiguous input
//                             window); nullopt when that peer needs nothing
//   ingest(msg, now)        — lines 12-20: merge a received rc[] message
//   ready()/pop()           — lines 21-23: the exit condition and delivery
//
// The blocking loop itself is FrameLoop's SyncInput phase; its drivers
// (simulated coroutine / real-time thread) interleave make_message on the
// flush timer and ingest on datagram arrival until ready() — identical
// protocol behaviour in both runtimes, and every branch unit-testable
// without IO. The rollback mode consumes the same state speculatively
// instead (see RollbackSession): it reads arrived inputs through
// local_input() / remote_input() and pops each frame once it is confirmed.
//
// Sites: the paper's two-site case is num_sites = 2; 4 and 8 give the
// journal version's "multiple players" extension over a full mesh. Each
// site unicasts its own partial inputs to every other site in the same
// message format (SyncMsg names its sender), and per peer keeps the state
// the paper keeps for its single peer: LastRcvFrame[i] (highest contiguous
// frame of site i's inputs held) and LastAckFrame[i] (highest of MY frames
// site i has acked). The exit condition is min_i LastRcvFrame[i] >=
// IBufPointer, so every replica executes the identical merged input. Site
// 0 is the single master: every other site runs Algorithm 4 against its
// view of site 0 (remote_obs), rate-locking the whole mesh to one clock.
//
// Reliability over UDP (§3.1): in the paper's policy (the default) inputs
// are re-sent in every message until cumulatively acked (go-back-N),
// duplicates are absorbed by the InputBuffer, and disorder is harmless
// because each input is addressed by absolute frame number.
//
// With cfg.adaptive_resend the transport instead behaves like a modern
// reliable-datagram layer: messages carry only new inputs plus a
// redundancy tail re-carrying every unacked input first sent within the
// last `redundant_inputs` flushes, and the full unacked window is resent
// only when the per-peer retransmission timer (SRTT + 4·RTTVAR with
// exponential backoff, see RttEstimator) fires.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "src/common/time.h"
#include "src/common/types.h"
#include "src/core/config.h"
#include "src/core/input_buffer.h"
#include "src/core/rtt.h"
#include "src/core/wire.h"

namespace rtct {
class MetricsRegistry;  // src/common/telemetry.h
}  // namespace rtct

namespace rtct::core {

/// Counters for instrumentation and the loss-robustness benches (summed
/// over every peer).
struct SyncPeerStats {
  std::uint64_t messages_made = 0;
  std::uint64_t messages_ingested = 0;
  std::uint64_t inputs_sent = 0;          ///< input entries across all messages
  std::uint64_t inputs_retransmitted = 0; ///< entries sent more than once
  std::uint64_t duplicate_inputs_rcvd = 0;
  std::uint64_t stale_messages = 0;       ///< wrong-site or malformed drops
  std::uint64_t rtt_samples = 0;          ///< RTT measurements taken
  std::uint64_t rto_fires = 0;            ///< adaptive retransmit-timer expiries
  std::uint64_t redundant_inputs_sent = 0;  ///< K-tail entries (adaptive mode)
};

class SyncPeer {
 public:
  /// `num_sites` must divide 16 (2, 4, 8): each site owns an equal span of
  /// the input word (SET[k] = site_input_mask_n).
  SyncPeer(SiteId my_site, SyncConfig cfg, int num_sites = 2);

  /// Re-initializes the local-lag depth to a handshake-negotiated value
  /// (v2 adaptive lag, or the rollback input delay). Only legal before any
  /// input was submitted, popped or sent — i.e. between SessionControl
  /// reaching kRunning and frame 0. Returns false (and changes nothing) if
  /// the protocol already moved.
  bool set_buf_frames(int buf_frames);

  // ---- Algorithm 2, lines 1-5 ------------------------------------------
  /// Buffers the local partial input for display frame `frame + BufFrame`.
  /// Call exactly once per local frame, in order.
  void submit_local(FrameNo frame, InputWord local_input);

  // ---- Algorithm 2, lines 7-11 -----------------------------------------
  /// Builds the next outbound message for `peer` into `out`, reusing its
  /// inputs buffer: cumulative ack + the local inputs that peer has not
  /// acknowledged (capped at max_inputs_per_message). Returns false (and
  /// leaves `out` alone) when there is nothing useful to say (everything
  /// acked AND our ack is already known to the peer), and for ourselves or
  /// an out-of-range site. Call for each peer on every flush tick.
  bool make_message_into(SiteId peer, Time now, SyncMsg& out);
  /// make_message_into() into a fresh message; nullopt for false.
  std::optional<SyncMsg> make_message(SiteId peer, Time now) {
    SyncMsg msg;
    if (!make_message_into(peer, now, msg)) return std::nullopt;
    return msg;
  }

  // ---- Algorithm 2, lines 12-20 ----------------------------------------
  /// Merges a message from whichever site sent it (msg.site); our own or
  /// an out-of-range site id is counted stale and ignored. `recv_time` is
  /// the local receive timestamp (feeds MasterRcvTime and the RTT
  /// estimator).
  void ingest(const SyncMsg& msg, Time recv_time);

  // ---- Algorithm 2, lines 21-23 ----------------------------------------
  /// Exit condition of the receive loop: the input for the current
  /// pointer frame is complete at every site.
  [[nodiscard]] bool ready() const;
  /// Delivers IBuf[IBufPointer] and advances the pointer. Pre: ready().
  InputWord pop();

  // ---- speculative consumption (rollback mode) ---------------------------
  /// Our own partial input for frame f (0 below the lag). Frames at or
  /// above pointer() stay readable until popped.
  [[nodiscard]] InputWord local_input(FrameNo f) const;
  /// The other sites' partial inputs for frame f merged into one word, once
  /// all of them have arrived (nullopt otherwise). Frames below the lag are
  /// the paper's empty input at every site, so they are known zeros.
  [[nodiscard]] std::optional<InputWord> remote_input(FrameNo f) const;

  // ---- desync detection ---------------------------------------------------
  /// Driver reports the game-state hash of each executed (under rollback:
  /// confirmed) frame. Every hash_interval-th hash is attached to outgoing
  /// messages and compared against every peer's — a replica-divergence
  /// tripwire (the paper assumes determinism; production netplay verifies
  /// it). A peer's hash for a frame we have not reached yet is parked and
  /// compared when we get there.
  void note_state_hash(FrameNo frame, std::uint64_t hash);
  /// Surfaces a local integrity failure (a snapshot the machine produced
  /// refused to load back) through the same channel as a hash mismatch.
  void flag_desync(FrameNo frame) {
    if (desync_frame_ < 0) desync_frame_ = frame;
  }

  /// True once any exchanged hash disagreed. Logical consistency is then
  /// provably broken (non-deterministic game or memory corruption); the
  /// embedding application should stop the session.
  [[nodiscard]] bool desync_detected() const { return desync_frame_ >= 0; }
  /// Frame of the first detected mismatch, or -1.
  [[nodiscard]] FrameNo desync_frame() const { return desync_frame_; }

  // ---- observability ------------------------------------------------------
  [[nodiscard]] FrameNo pointer() const { return pointer_; }
  [[nodiscard]] FrameNo last_rcv_frame(SiteId site) const { return last_rcv_[site]; }
  /// Highest local frame `peer` has acked.
  [[nodiscard]] FrameNo last_ack_frame(SiteId peer) const { return peers_[peer].last_ack; }
  /// Highest frame of `peer`'s inputs we have acked on the wire.
  [[nodiscard]] FrameNo ack_sent_frame(SiteId peer) const { return peers_[peer].ack_sent; }
  /// Slowest site holding the session back right now (for diagnostics):
  /// the site with the smallest LastRcvFrame below ours, or kNoSite.
  [[nodiscard]] SiteId straggler() const;

  /// Smoothed round-trip time to `peer`; 0 until the first sample (§3.2's
  /// RTT). `rtt_estimator(peer).has_sample()` distinguishes "unmeasured"
  /// from "measured ~0" (a loopback link legitimately reports 0 ns).
  [[nodiscard]] Dur rtt(SiteId peer) const { return peers_[peer].rtt.srtt(); }
  [[nodiscard]] const RttEstimator& rtt_estimator(SiteId peer) const {
    return peers_[peer].rtt;
  }
  /// Current retransmission timeout toward `peer` (backoff applied;
  /// adaptive mode).
  [[nodiscard]] Dur current_rto(SiteId peer) const;

  /// Observation of the master's progress for Algorithm 4, valid only on
  /// slaves once the master's contiguous input watermark has advanced:
  /// `master_frame` is LastRcvFrame[master] minus this peer's own lag
  /// (line 6's MasterFrame), `rcv_time` the local arrival of the message
  /// that advanced it ("MasterRcvTime"). `rtt` is only meaningful when
  /// `rtt_valid`; consumers must not treat 0 as "no delay" otherwise.
  struct RemoteObs {
    bool valid = false;
    FrameNo master_frame = 0;
    Time rcv_time = 0;
    Dur rtt = 0;
    bool rtt_valid = false;
  };
  [[nodiscard]] RemoteObs remote_obs() const;

  [[nodiscard]] const SyncPeerStats& stats() const { return stats_; }
  [[nodiscard]] const SyncConfig& config() const { return cfg_; }
  [[nodiscard]] SiteId site() const { return my_site_; }

  /// Snapshots counters and protocol gauges into the registry ("sync.*";
  /// with more than two sites also "mesh.*" and per-peer
  /// "mesh.peer.<i>.*").
  void export_metrics(MetricsRegistry& reg) const;

 private:
  struct HashRecord {
    FrameNo frame = -1;
    std::uint64_t hash = 0;
  };

  /// Everything Algorithm 2 keeps about one remote site.
  struct Peer {
    FrameNo last_ack = 0;       ///< LastAckFrame: their cumulative ack of my inputs
    FrameNo ack_sent = 0;       ///< highest ack I ever put on the wire to them
    FrameNo highest_sent = -1;  ///< highest local input frame ever sent them
    Time last_send_time = -1;   ///< their newest send_time (for echoes)
    Time last_recv_time = 0;    ///< when we received it (for echo_hold)
    RttEstimator rtt;
    // Adaptive retransmission timer (cfg_.adaptive_resend only). Armed
    // while unacked inputs are outstanding; an expiry triggers a full
    // go-back-N window resend and doubles the backoff until the next ack
    // progress.
    Time rto_deadline = -1;
    int rto_backoff = 1;
    /// Pre-flush `highest_sent` for each of the last K flushes: the
    /// redundancy tail starts just above the oldest entry, so every input
    /// is re-carried for K flushes after its first send (burst-safe).
    std::deque<FrameNo> sent_watermarks;
    HashRecord parked;  ///< their hash for a frame we have not reached yet
  };
  static constexpr int kMaxRtoBackoff = 16;
  static constexpr int kHashWindow = 32;

  void reset_lag(int buf_frames);
  [[nodiscard]] FrameNo min_acked() const;  ///< lowest ack across peers (window trim)
  void check_remote_hash(Peer& p, FrameNo frame, std::uint64_t hash);

  SiteId my_site_;
  int num_sites_;
  SyncConfig cfg_;
  InputBuffer ibuf_;
  FrameNo pointer_ = 0;           ///< IBufPointer
  std::vector<FrameNo> last_rcv_; ///< LastRcvFrame per site, including self
  std::vector<Peer> peers_;       ///< indexed by site (own entry unused)

  // Algorithm 4 inputs (slaves only).
  Time master_advance_time_ = 0;
  bool seen_master_ = false;

  // Desync detection: own hashes keyed by interval index.
  HashRecord own_hashes_[kHashWindow];
  HashRecord latest_own_;  ///< newest interval hash (to send)
  FrameNo desync_frame_ = -1;

  SyncPeerStats stats_;
};

}  // namespace rtct::core
