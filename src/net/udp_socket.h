// Real UDP transport (Berkeley sockets) for running two rtct sites as
// actual networked processes/threads — the deployment configuration of the
// paper's system. The netplay_udp example drives two sites over loopback
// through this transport; the protocol bytes are identical to SimEndpoint's.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "src/common/time.h"
#include "src/net/transport.h"

namespace rtct {
class MetricsRegistry;  // src/common/telemetry.h
}  // namespace rtct

namespace rtct::net {

/// A peer address for unconnected (server-style) sockets.
struct UdpAddress {
  std::uint32_t ip = 0;  ///< network byte order
  std::uint16_t port = 0;
  bool operator==(const UdpAddress&) const = default;
  /// "a.b.c.d:port" for logs.
  [[nodiscard]] std::string to_string() const;
  /// Stable key for std::map.
  bool operator<(const UdpAddress& o) const {
    return ip != o.ip ? ip < o.ip : port < o.port;
  }
};

/// Builds a UdpAddress from a dotted-quad string + host-order port;
/// nullopt when `ip` does not parse.
std::optional<UdpAddress> make_udp_address(const std::string& ip, std::uint16_t port);

/// A bound UDP socket. Two usage modes:
///  * connected (connect_peer + send/try_recv) — the point-to-point
///    DatagramTransport the sync drivers use;
///  * unconnected (send_to/recv_from) — server-style, used by the
///    spectator host to serve many observers from one port.
class UdpSocket final : public PollableTransport {
 public:
  /// Binds to `bind_ip:bind_port` (port 0 = ephemeral). Returns an unusable
  /// socket (`valid() == false`, fd closed) on failure; `last_error()`
  /// explains.
  UdpSocket(const std::string& bind_ip, std::uint16_t bind_port);
  ~UdpSocket() override;
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  /// Fixes the peer address; send()/try_recv() only talk to that peer.
  bool connect_peer(const std::string& ip, std::uint16_t port);

  /// Requests a larger kernel receive queue (SO_RCVBUFFORCE when permitted,
  /// SO_RCVBUF otherwise — the latter is silently capped by rmem_max).
  /// Burst absorbers (relay shards, the load generator's shared client
  /// sockets) call this; point-to-point sessions don't need it. Returns
  /// false only when the setsockopt itself fails.
  bool set_recv_buffer(int bytes);

  void send(std::span<const std::uint8_t> payload) override;
  /// Next datagram, or nullopt. Receives land in one reusable 64 KiB
  /// buffer per socket; the returned Payload is a copy sized to the
  /// datagram, so a poll that finds nothing allocates nothing.
  std::optional<Payload> try_recv() override;

  /// Unconnected mode: datagram to an explicit peer.
  void send_to(const UdpAddress& to, std::span<const std::uint8_t> payload);
  /// Unconnected mode: next datagram + its sender, or nullopt (same
  /// buffer reuse as try_recv).
  std::optional<std::pair<Payload, UdpAddress>> recv_from();

  /// Blocks up to `timeout` (nanosecond resolution) for the socket to
  /// become readable. Returns true if readable. A signal does not extend
  /// the wait: an EINTR retry waits only for what is left of `timeout`.
  bool wait_readable(Dur timeout) override;

  [[nodiscard]] bool valid() const override { return fd_ >= 0; }
  [[nodiscard]] std::uint16_t local_port() const { return local_port_; }
  [[nodiscard]] const std::string& last_error() const override { return error_; }
  [[nodiscard]] int native_fd() const { return fd_; }  ///< for epoll registration

  [[nodiscard]] std::uint64_t datagrams_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t datagrams_received() const { return received_; }
  /// Sends that failed softly (EAGAIN/EWOULDBLOCK/ENOBUFS: kernel queue
  /// full, the datagram is simply lost — UDP semantics, protocol
  /// retransmission absorbs it).
  [[nodiscard]] std::uint64_t send_soft_drops() const { return send_soft_drops_; }
  /// Sends/receives that failed hard (anything else) — these indicate a
  /// real socket problem and are split from soft drops in telemetry.
  [[nodiscard]] std::uint64_t send_errors() const { return send_errors_; }
  [[nodiscard]] std::uint64_t recv_errors() const { return recv_errors_; }
  /// Syscalls retried after an EINTR interruption.
  [[nodiscard]] std::uint64_t eintr_retries() const { return eintr_retries_; }

  /// Snapshots socket counters into the registry ("net.udp.*").
  void export_metrics(MetricsRegistry& reg) const override;

 private:
  void fail(const std::string& what);
  std::uint8_t* rx_buffer();

  std::unique_ptr<std::uint8_t[]> rx_buf_;  ///< allocated on first receive

  int fd_ = -1;
  std::uint16_t local_port_ = 0;
  std::string error_;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t send_soft_drops_ = 0;
  std::uint64_t send_errors_ = 0;
  std::uint64_t recv_errors_ = 0;
  std::uint64_t eintr_retries_ = 0;
};

}  // namespace rtct::net
