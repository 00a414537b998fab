// RealtimeSession — the wall-clock driver: Algorithm 1 on a real thread
// over a real UDP socket.
//
// This is the deployment shape of the paper's system (two PCs, one VM
// each). The frame loop itself is core::FrameLoop — the same object the
// virtual-time testbed drives — so this class only decides how to wait
// (std::chrono::steady_clock, one blocking wait_readable per wait), when
// to give up (handshake_timeout, stall_timeout, the post-game grace) and
// which failure text to report. The transport is any PollableTransport —
// a raw UdpSocket for direct peer-to-peer play, or a relay::RelayEndpoint
// when the session goes through rtct_relayd — so the loop is indifferent
// to the path.
//
// Single-threaded by design: every wait is one blocking call that ends at
// the earliest of its deadline, the next send flush, or an arriving
// datagram — on real hardware the 20 ms flush and the frame loop live
// comfortably on one thread, and examples/netplay_udp runs one
// RealtimeSession per thread to get two sites in one process.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <string>

#include "src/common/types.h"
#include "src/core/config.h"
#include "src/core/flush_clock.h"
#include "src/core/frame_loop.h"
#include "src/core/input_source.h"
#include "src/core/metrics.h"
#include "src/emu/game.h"
#include "src/net/udp_socket.h"

namespace rtct::core {

struct RealtimeConfig {
  SyncConfig sync;
  PacingPolicy pacing = PacingPolicy::kFull;
  int frames = 600;  ///< frames to run (examples keep this short)
  Dur handshake_timeout = seconds(10);
  /// Abort if SyncInput stalls longer than this (the paper's behaviour is
  /// to freeze forever; a library should let the caller bound that).
  Dur stall_timeout = seconds(5);
  /// After the last frame, keep flushing until the peer holds every input
  /// it executes, then keep serving spectators (snapshot/feed
  /// retransmissions) so observers can finish catching up before the
  /// process exits — each for up to this long.
  Dur spectator_drain_grace = seconds(3);
  /// Drop an observer not heard from for this long. Dead observers must
  /// not pin the hub's trim watermark (the slowest-reader bug); live ones
  /// are safe because SpectatorClient keepalive-acks every 500 ms.
  Dur spectator_idle_timeout = seconds(2);
};

class RealtimeSession {
 public:
  /// `socket` must already be bound and connected/framed to the peer (a
  /// connected UdpSocket, or a RelayEndpoint holding a live conn id).
  RealtimeSession(SiteId site, emu::IDeterministicGame& game, InputSource& input,
                  net::PollableTransport& socket, RealtimeConfig cfg);

  /// Optional per-frame callback (rendering, logging). Called after
  /// Transition with the frame's record.
  using FrameHook = std::function<void(const emu::IDeterministicGame&, const FrameRecord&)>;
  void set_frame_hook(FrameHook hook) { hook_ = std::move(hook); }

  /// Blocks through handshake + cfg.frames frames. Returns false (with
  /// `error` filled) on handshake failure, stall timeout, or stop request.
  bool run(std::string* error = nullptr);

  /// Thread-safe: makes run() return once its current wait ends.
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

  [[nodiscard]] const FrameTimeline& timeline() const { return loop_.timeline(); }
  [[nodiscard]] const SyncPeerStats& stats() const { return loop_.peer().stats(); }
  [[nodiscard]] Dur rtt() const { return loop_.peer().rtt(1 - site_); }

  /// The session's merged-input recording (replayable on a fresh machine
  /// of the same ROM; identical on both sites of a match).
  [[nodiscard]] const Replay& replay() const { return loop_.replay(); }

  /// Serve spectators from an additional, *unconnected* UDP socket: any
  /// JoinRequest arriving there is answered with a snapshot and a live
  /// input feed, all observer addresses fanning out of one shared
  /// SpectatorBroadcastHub (encode-once, per-observer cursors). Call
  /// before run(); the socket must outlive the session.
  void serve_spectators(net::UdpSocket* socket) { spectator_socket_ = socket; }
  /// Distinct observer endpoints registered over the session's lifetime
  /// (NOT currently-connected: the idle reaper removes spectators that
  /// stop acking, including ones that caught up and walked away).
  [[nodiscard]] std::size_t spectators_joined() const {
    return static_cast<std::size_t>(loop_.spectators().stats().observers_added);
  }
  /// Spectator-port datagrams dropped because the sender was not a
  /// registered observer and the message was not a JoinRequest — rogue or
  /// stale traffic must not mint observer state (each phantom observer
  /// would pin the hub's trim watermark until the idle reaper caught it).
  [[nodiscard]] std::uint64_t dropped_unknown_sender() const {
    return dropped_unknown_sender_;
  }

  /// Snapshots every subsystem's state into the registry: "sync.*",
  /// "pacer.*", "session.*", "timeline.*", "net.udp.*", "spectator.hub.*"
  /// (plus the stable "spectator.host.*" aggregate names, fed from the
  /// hub), "session.flushes"/"flush_reanchors", and "session.wakeups" (the
  /// frame loop's wait_readable returns). Call between frames (from a
  /// frame hook) or after run().
  void export_metrics(MetricsRegistry& reg) const;

  /// True when the handshake settled on the rollback consistency mode
  /// (both sides opted in; see SyncConfig::rollback). Valid after run().
  [[nodiscard]] bool rollback_mode() const { return loop_.rollback() != nullptr; }
  [[nodiscard]] const RollbackStats* rollback_stats() const {
    return rollback_mode() ? &loop_.rollback()->rollback_stats() : nullptr;
  }

 private:
  [[nodiscard]] Time now() const;
  /// One blocking wait: answers the handshake, flushes if due, blocks until
  /// `until`, the next flush or a readable datagram (whichever is first),
  /// then feeds what arrived to the loop.
  void wait(Time until);
  void send_session_message();
  void flush_if_due();
  void pump_spectators();
  /// Post-game retransmission grace for observers still catching up.
  void drain_spectators_post_game();

  SiteId site_;
  emu::IDeterministicGame& game_;
  net::PollableTransport& socket_;
  RealtimeConfig cfg_;

  FrameLoop loop_;
  FrameHook hook_;
  Time epoch_ = 0;
  FlushClock flush_clock_;  ///< catch-up scheduled send-flush cadence
  std::uint64_t wakeups_ = 0;  ///< wait_readable returns in wait()
  std::atomic<bool> stop_{false};

  net::UdpSocket* spectator_socket_ = nullptr;
  std::map<net::UdpAddress, SpectatorBroadcastHub::ObserverId> spectator_ids_;
  std::uint64_t dropped_unknown_sender_ = 0;
};

}  // namespace rtct::core
