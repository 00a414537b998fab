// RelayServer — the session-multiplexing relay/lobby engine behind
// rtct_relayd.
//
// One process hosts thousands of concurrent two-site (or small-N) sessions
// over epoll-driven UDP event loops:
//
//  * a lobby socket answers CREATE / JOIN / LIST / LEAVE and assigns each
//    session a 32-bit connection id;
//  * sessions are pinned to one of N shard worker threads by
//    `conn_id % shards`; each shard owns a UDP data socket (its port is
//    announced in the LOBBY_OK reply) and an epoll loop that forwards DATA
//    frames between session members;
//  * the forward path re-sends the received datagram verbatim — the conn
//    id is already framed in, so dispatch is a header peek, a hash lookup
//    and a sendto per fan-out target; the only per-datagram allocation is
//    the datagram-sized copy UdpSocket::recv_from returns;
//  * idle sessions (no lobby or data activity for `idle_timeout`) are
//    evicted on a periodic sweep; members get an EVICT_NOTICE, and later
//    DATA for a dead conn id is answered with the same notice so a client
//    can tell "session gone" from silence.
//
// The relay never decodes the core sync protocol: HELLO/START capability
// negotiation (lockstep vs rollback, digest versions, adaptive lag) runs
// end-to-end between the members exactly as over a direct socket.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/telemetry.h"
#include "src/common/time.h"
#include "src/net/udp_socket.h"
#include "src/relay/relay_wire.h"

namespace rtct::relay {

struct RelayConfig {
  std::string bind_ip = "127.0.0.1";
  std::uint16_t lobby_port = 0;  ///< 0 = ephemeral (tests/bench)
  int shards = 2;                ///< worker threads / data sockets, clamped 1..16
  Dur idle_timeout = seconds(30);
  Dur sweep_interval = milliseconds(500);
  std::size_t max_sessions = 8192;
  int default_max_members = 2;  ///< CREATE with max_members=0 gets this
};

class RelayServer {
 public:
  explicit RelayServer(RelayConfig cfg);
  ~RelayServer();
  RelayServer(const RelayServer&) = delete;
  RelayServer& operator=(const RelayServer&) = delete;

  /// Binds lobby + shard sockets and spawns the event-loop threads.
  bool start(std::string* error = nullptr);
  /// Signals every loop and joins the threads. Idempotent.
  void stop();
  [[nodiscard]] bool running() const { return running_.load(std::memory_order_relaxed); }

  [[nodiscard]] std::uint16_t lobby_port() const;
  [[nodiscard]] std::uint16_t shard_port(int shard) const;
  [[nodiscard]] int shard_count() const { return static_cast<int>(shards_.size()); }

  /// Live sessions across all shards (locks each shard briefly).
  [[nodiscard]] std::size_t session_count() const;

  /// Aggregated server counters (thread-safe snapshot).
  struct Stats {
    std::uint64_t sessions_created = 0;
    std::uint64_t sessions_evicted = 0;
    std::uint64_t sessions_closed = 0;  ///< emptied by LEAVE
    std::uint64_t datagrams_forwarded = 0;  ///< accepted inbound DATA frames
    std::uint64_t fanout_datagrams = 0;     ///< outbound copies sent
    std::uint64_t dropped_unknown_session = 0;
    std::uint64_t dropped_unknown_sender = 0;
    std::uint64_t dropped_malformed = 0;
    std::uint64_t lobby_requests = 0;
    std::uint64_t lobby_errors = 0;
  };
  [[nodiscard]] Stats stats() const;

  /// Snapshots server state into the registry ("relay.*"): sessions gauge,
  /// eviction/forward/drop counters, per-datagram relay.dispatch_ns
  /// histogram merged across shards.
  void export_metrics(MetricsRegistry& reg) const;

 private:
  struct Member {
    net::UdpAddress addr;
    Time last_seen = 0;
  };
  struct Session {
    ConnId conn = kNoConn;
    std::uint64_t content_id = 0;
    std::uint8_t max_members = 2;
    std::vector<Member> members;
    Time last_activity = 0;
  };
  struct Shard {
    std::unique_ptr<net::UdpSocket> sock;
    std::thread thread;
    mutable std::mutex mu;  ///< guards sessions + the counters below
    std::unordered_map<ConnId, Session> sessions;
    std::uint64_t forwarded = 0;
    std::uint64_t fanout = 0;
    std::uint64_t dropped_unknown_session = 0;
    std::uint64_t dropped_unknown_sender = 0;
    std::uint64_t dropped_malformed = 0;
    std::uint64_t evicted = 0;
    std::uint64_t closed = 0;
    Histogram dispatch_ns;
  };

  void lobby_loop();
  void shard_loop(Shard& shard);
  /// One received lobby datagram -> zero or one reply.
  void handle_lobby(const net::UdpAddress& from, std::span<const std::uint8_t> bytes);
  /// One received data datagram on `shard` (shard.mu NOT held).
  void handle_data(Shard& shard, const net::UdpAddress& from,
                   std::span<const std::uint8_t> bytes);
  void sweep_shard(Shard& shard, Time now);
  void send_lobby(const net::UdpAddress& to, const RelayMessage& msg);
  [[nodiscard]] Shard& shard_for(ConnId conn) {
    return *shards_[conn % shards_.size()];
  }
  /// Draws a fresh, unused, non-zero conn id (lobby thread only).
  /// Randomized, not sequential: a conn id is the only credential a JOIN
  /// or DATA frame carries, so it must not be guessable from another
  /// session's id.
  [[nodiscard]] ConnId allocate_conn();

  RelayConfig cfg_;
  std::unique_ptr<net::UdpSocket> lobby_sock_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::thread lobby_thread_;
  int stop_fd_ = -1;  ///< eventfd: written once by stop(), wakes every epoll
  std::atomic<bool> running_{false};
  std::uint32_t conn_rng_ = 1;  ///< xorshift32 state, lobby thread only

  /// Recently minted sessions by (creator address, content_id), so a
  /// retransmitted CREATE (lost LOBBY_OK) echoes the existing session
  /// instead of minting another one that counts against max_sessions
  /// until the idle sweep. Lobby thread only.
  struct RecentCreate {
    ConnId conn = kNoConn;
    std::uint16_t data_port = 0;
    Time at = 0;
  };
  std::map<std::pair<net::UdpAddress, std::uint64_t>, RecentCreate> recent_creates_;

  // Lobby-side stats (lobby thread writes, any thread reads).
  std::atomic<std::uint64_t> lobby_requests_{0};
  std::atomic<std::uint64_t> lobby_errors_{0};
  std::atomic<std::uint64_t> sessions_created_{0};

  std::vector<std::uint8_t> lobby_scratch_;  ///< lobby thread's encode buffer
};

}  // namespace rtct::relay
