#include "src/net/udp_socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "src/common/telemetry.h"
#include "src/net/udp_syscalls.h"

namespace rtct::net {

namespace {
constexpr std::size_t kMaxDatagram = 64 * 1024;

const UdpSyscalls kRealSyscalls{::send, ::sendto, ::recv, ::recvfrom, ::ppoll};
const UdpSyscalls* g_syscalls = &kRealSyscalls;

/// Soft send failure: the datagram is lost but the socket is fine. ENOBUFS
/// is what loopback reports when the receive queue overflows under burst
/// load (the relay bench drives exactly that).
bool soft_send_errno(int e) { return e == EAGAIN || e == EWOULDBLOCK || e == ENOBUFS; }

/// Soft recv failure: nothing to read, or a previous send to an unbound
/// peer bounced an ICMP error back onto a connected socket (loopback races
/// during session startup produce this; the handshake retries cover it).
bool soft_recv_errno(int e) {
  return e == EAGAIN || e == EWOULDBLOCK || e == ECONNREFUSED;
}
}  // namespace

const UdpSyscalls& udp_syscalls() { return *g_syscalls; }

void set_udp_syscalls_for_test(const UdpSyscalls* table) {
  g_syscalls = table != nullptr ? table : &kRealSyscalls;
}

std::string UdpAddress::to_string() const {
  char buf[32];
  const auto* b = reinterpret_cast<const std::uint8_t*>(&ip);
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u:%u", b[0], b[1], b[2], b[3], ntohs(port));
  return buf;
}

std::optional<UdpAddress> make_udp_address(const std::string& ip, std::uint16_t port) {
  in_addr parsed{};
  if (::inet_pton(AF_INET, ip.c_str(), &parsed) != 1) return std::nullopt;
  UdpAddress a;
  a.ip = parsed.s_addr;
  a.port = htons(port);
  return a;
}

UdpSocket::UdpSocket(const std::string& bind_ip, std::uint16_t bind_port) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) {
    fail("socket");
    return;
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(bind_port);
  if (::inet_pton(AF_INET, bind_ip.c_str(), &addr.sin_addr) != 1) {
    fail("inet_pton(" + bind_ip + ")");
    return;
  }
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    fail("bind");
    return;
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    local_port_ = ntohs(bound.sin_port);
  }

  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) != 0) {
    fail("fcntl(O_NONBLOCK)");
    return;
  }
}

UdpSocket::~UdpSocket() {
  if (fd_ >= 0) ::close(fd_);
}

void UdpSocket::fail(const std::string& what) {
  // Build the message before close() — close may clobber errno. Every
  // constructor failure path funnels here, so a failed socket can never
  // leak its fd (relayd's lobby churns through many sockets in tests).
  error_ = what + ": " + std::strerror(errno);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::uint8_t* UdpSocket::rx_buffer() {
  // Left uninitialised: recv writes only the bytes it returns, so a
  // socket's buffer costs resident memory only as far as its largest
  // datagram reached.
  if (!rx_buf_) rx_buf_ = std::make_unique_for_overwrite<std::uint8_t[]>(kMaxDatagram);
  return rx_buf_.get();
}

bool UdpSocket::connect_peer(const std::string& ip, std::uint16_t port) {
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1) {
    error_ = "inet_pton(" + ip + ") failed";
    return false;
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    error_ = std::string("connect: ") + std::strerror(errno);
    return false;
  }
  return true;
}

bool UdpSocket::set_recv_buffer(int bytes) {
  if (fd_ < 0 || bytes <= 0) return false;
  // SO_RCVBUFFORCE ignores rmem_max but needs CAP_NET_ADMIN; fall back to
  // the capped SO_RCVBUF so unprivileged runs still get the maximum the
  // kernel allows instead of an error.
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVBUFFORCE, &bytes, sizeof(bytes)) == 0) {
    return true;
  }
  return ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes)) == 0;
}

void UdpSocket::send(std::span<const std::uint8_t> payload) {
  if (fd_ < 0) return;
  // UDP semantics: a failed or EWOULDBLOCK send is simply a lost datagram;
  // the sync protocol's retransmission absorbs it. A signal landing
  // mid-call must NOT lose the datagram, though — retry on EINTR.
  ssize_t n;
  do {
    n = g_syscalls->send(fd_, payload.data(), payload.size(), 0);
    if (n < 0 && errno == EINTR) ++eintr_retries_;
  } while (n < 0 && errno == EINTR);
  if (n >= 0) {
    ++sent_;
  } else if (soft_send_errno(errno)) {
    ++send_soft_drops_;
  } else {
    ++send_errors_;
  }
}

std::optional<Payload> UdpSocket::try_recv() {
  if (fd_ < 0) return std::nullopt;
  std::uint8_t* const buf = rx_buffer();
  ssize_t n;
  do {
    n = g_syscalls->recv(fd_, buf, kMaxDatagram, 0);
    if (n < 0 && errno == EINTR) ++eintr_retries_;
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    if (!soft_recv_errno(errno)) ++recv_errors_;
    return std::nullopt;
  }
  ++received_;
  return Payload(buf, buf + n);
}

void UdpSocket::send_to(const UdpAddress& to, std::span<const std::uint8_t> payload) {
  if (fd_ < 0) return;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = to.port;
  addr.sin_addr.s_addr = to.ip;
  ssize_t n;
  do {
    n = g_syscalls->sendto(fd_, payload.data(), payload.size(), 0,
                           reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    if (n < 0 && errno == EINTR) ++eintr_retries_;
  } while (n < 0 && errno == EINTR);
  if (n >= 0) {
    ++sent_;
  } else if (soft_send_errno(errno)) {
    ++send_soft_drops_;
  } else {
    ++send_errors_;
  }
}

std::optional<std::pair<Payload, UdpAddress>> UdpSocket::recv_from() {
  if (fd_ < 0) return std::nullopt;
  std::uint8_t* const buf = rx_buffer();
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  ssize_t n;
  do {
    len = sizeof(addr);
    n = g_syscalls->recvfrom(fd_, buf, kMaxDatagram, 0,
                             reinterpret_cast<sockaddr*>(&addr), &len);
    if (n < 0 && errno == EINTR) ++eintr_retries_;
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    if (!soft_recv_errno(errno)) ++recv_errors_;
    return std::nullopt;
  }
  ++received_;
  UdpAddress from;
  from.ip = addr.sin_addr.s_addr;
  from.port = addr.sin_port;
  return std::make_pair(Payload(buf, buf + n), from);
}

bool UdpSocket::wait_readable(Dur timeout) {
  if (fd_ < 0) return false;
  // ppoll's timespec keeps the whole timeout: poll()'s milliseconds would
  // turn every sub-millisecond wait into a non-blocking check. Retries
  // after EINTR wait out only what is left of the original deadline, so a
  // stream of signals cannot hold the caller past it.
  const Time deadline = steady_now() + std::max<Dur>(timeout, 0);
  pollfd pfd{fd_, POLLIN, 0};
  int r;
  for (;;) {
    const Dur left = std::max<Dur>(deadline - steady_now(), 0);
    const timespec ts{static_cast<time_t>(left / kSecond), static_cast<long>(left % kSecond)};
    r = g_syscalls->ppoll(&pfd, 1, &ts, nullptr);
    if (r >= 0 || errno != EINTR) break;
    ++eintr_retries_;
  }
  return r > 0 && (pfd.revents & POLLIN) != 0;
}

void UdpSocket::export_metrics(MetricsRegistry& reg) const {
  reg.counter("net.udp.datagrams_sent").set(sent_);
  reg.counter("net.udp.datagrams_received").set(received_);
  reg.counter("net.udp.send_soft_drops").set(send_soft_drops_);
  reg.counter("net.udp.send_errors").set(send_errors_);
  reg.counter("net.udp.recv_errors").set(recv_errors_);
  reg.counter("net.udp.eintr_retries").set(eintr_retries_);
}

}  // namespace rtct::net
