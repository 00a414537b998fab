#include "src/relay/load_gen.h"

#include <arpa/inet.h>

#include <cstring>
#include <vector>

#include "src/chaos/fault_script.h"
#include "src/common/bytes.h"
#include "src/common/random.h"
#include "src/net/udp_socket.h"
#include "src/relay/relay_wire.h"

namespace rtct::relay {

namespace {

/// Blocking lobby round-trip on a shared (multi-session) socket. Unlike
/// RelayLobby this must tolerate relayed DATA frames arriving interleaved
/// with the reply — they are simply not decodable as lobby replies here
/// because their conn ids belong to other sessions, so we skip DATA frames
/// explicitly and keep waiting.
std::optional<LobbyOkMsg> lobby_roundtrip(net::UdpSocket& sock,
                                          const net::UdpAddress& lobby_addr,
                                          const RelayMessage& req,
                                          std::vector<std::uint8_t>& scratch) {
  encode_relay_message_into(req, scratch);
  for (int attempt = 0; attempt < 8; ++attempt) {
    sock.send_to(lobby_addr, scratch);
    if (!sock.wait_readable(milliseconds(200))) continue;
    while (auto got = sock.recv_from()) {
      if (is_data_frame(got->first)) continue;  // another session's traffic
      const auto reply = decode_relay_message(got->first);
      if (!reply) continue;
      if (const auto* ok = std::get_if<LobbyOkMsg>(&*reply)) return *ok;
      if (std::get_if<LobbyErrMsg>(&*reply) != nullptr) return std::nullopt;
    }
  }
  return std::nullopt;
}

/// True when virtual time `t` falls inside a loss-flavoured fault window.
/// Only windows that plausibly suppress traffic (loss bursts, stalls) gate
/// the send schedule; latency/reorder faults shape the path, which the
/// load generator cannot emulate client-side.
bool in_suppression_window(const chaos::FaultScript& script, Dur t, double* p) {
  for (const auto& f : script.faults) {
    if (t < f.at || t >= f.at + f.duration) continue;
    if (f.kind == chaos::FaultKind::kLossBurst) {
      *p = f.magnitude;
      return true;
    }
    if (f.kind == chaos::FaultKind::kSiteStall) {
      *p = 1.0;
      return true;
    }
  }
  return false;
}

struct SessionAddr {
  ConnId conn = kNoConn;
  net::UdpAddress data_addr{};
};

}  // namespace

LoadGenReport run_relay_load(const LoadGenConfig& cfg) {
  LoadGenReport report;

  net::UdpSocket creator(cfg.relay_ip, 0);
  net::UdpSocket joiner(cfg.relay_ip, 0);
  if (!creator.valid() || !joiner.valid()) {
    report.error = "client socket: " +
                   (creator.valid() ? joiner.last_error() : creator.last_error());
    return report;
  }
  // Each shared socket is the receive queue for EVERY session it is a
  // member of; a default-sized rcvbuf silently sheds most of a
  // 1000-session round before drain() runs.
  creator.set_recv_buffer(4 << 20);
  joiner.set_recv_buffer(4 << 20);
  const auto lobby_addr = net::make_udp_address(cfg.relay_ip, cfg.lobby_port);
  if (!lobby_addr) {
    report.error = "bad relay ip: " + cfg.relay_ip;
    return report;
  }

  // Phase 1: establish every session (CREATE from `creator`, JOIN from
  // `joiner`). Sessions land on shards round-robin by conn id.
  std::vector<std::uint8_t> scratch;
  std::vector<SessionAddr> sessions;
  sessions.reserve(static_cast<std::size_t>(cfg.sessions));
  for (int i = 0; i < cfg.sessions; ++i) {
    CreateMsg create;
    create.content_id = cfg.seed + static_cast<std::uint64_t>(i);
    const auto ok = lobby_roundtrip(creator, *lobby_addr, RelayMessage{create}, scratch);
    if (!ok) {
      report.error = "create failed at session " + std::to_string(i);
      return report;
    }
    JoinMsg join;
    join.conn = ok->conn;
    const auto joined = lobby_roundtrip(joiner, *lobby_addr, RelayMessage{join}, scratch);
    if (!joined) {
      report.error = "join failed at session " + std::to_string(i);
      return report;
    }
    SessionAddr s;
    s.conn = ok->conn;
    s.data_addr = *lobby_addr;
    s.data_addr.port = htons(ok->data_port);
    sessions.push_back(s);
  }
  report.sessions = static_cast<int>(sessions.size());

  // Phase 2: send rounds. The FaultScript maps onto the round axis: round r
  // of R corresponds to virtual time r/R of the script's session length.
  const chaos::FaultScript script =
      chaos::generate_fault_script(cfg.seed, chaos::Topology::kTwoSite);
  Rng rng(cfg.seed ^ 0x10ad10adULL);
  const int payload = cfg.payload_bytes < 16 ? 16 : cfg.payload_bytes;
  std::vector<std::uint8_t> body(static_cast<std::size_t>(payload), 0xA5);
  std::vector<std::uint8_t> frame;

  auto drain = [&](net::UdpSocket& sock) {
    while (auto got = sock.recv_from()) {
      const auto& bytes = got->first;
      if (!is_data_frame(bytes)) continue;
      const auto p = data_frame_payload(bytes);
      if (p.size() < 16) continue;
      ByteReader r(p);
      const auto sent_at = static_cast<Time>(r.u64());
      r.u64();  // round tag (diagnostic only)
      if (!r.ok()) continue;
      ++report.delivered;
      report.latency_ms.add_dur(steady_now() - sent_at);
    }
  };

  auto offer = [&](net::UdpSocket& from, const SessionAddr& s, std::uint64_t tag,
                   double drop_p) {
    if (cfg.faults && drop_p > 0 && rng.bernoulli(drop_p)) {
      ++report.suppressed;
      return;
    }
    // Rewrite the 16-byte stamp header in place; the padding after it is
    // inert. Little-endian, matching ByteReader on the receive side.
    const auto now_u = static_cast<std::uint64_t>(steady_now());
    for (int b = 0; b < 8; ++b) {
      body[static_cast<std::size_t>(b)] = static_cast<std::uint8_t>(now_u >> (8 * b));
      body[static_cast<std::size_t>(8 + b)] = static_cast<std::uint8_t>(tag >> (8 * b));
    }
    encode_data_frame_into(s.conn, body, frame);
    from.send_to(s.data_addr, frame);
    ++report.offered;
  };

  for (int round = 0; round < cfg.rounds; ++round) {
    const Dur t = script.session_length() * round / (cfg.rounds > 0 ? cfg.rounds : 1);
    double drop_p = 0;
    const bool suppressing = cfg.faults && in_suppression_window(script, t, &drop_p);
    if (!suppressing) drop_p = 0;
    const std::uint64_t tag = static_cast<std::uint64_t>(round);
    int burst = 0;
    for (const auto& s : sessions) {
      offer(creator, s, tag, drop_p);
      offer(joiner, s, tag, drop_p);
      // Pace the burst: on a single core a tight sendto loop starves the
      // relay's shard threads, so in-flight datagrams pile up in kernel
      // queues until something overflows. A short blocking wait every few
      // hundred offers cedes the CPU to the relay and drains what it has
      // already forwarded back to us.
      if (++burst >= 256) {
        burst = 0;
        creator.wait_readable(milliseconds(1));
        drain(creator);
        drain(joiner);
      }
    }
    // Drain between rounds so neither the relay's nor our receive queues
    // overflow (loopback, single core: the relay threads need the gap).
    creator.wait_readable(milliseconds(1));
    drain(creator);
    drain(joiner);
  }

  // Phase 3: final drain — keep reading until the relay has been quiet for
  // a few waits (everything in flight has either arrived or been dropped).
  for (int quiet = 0; quiet < 5;) {
    const bool a = creator.wait_readable(milliseconds(20));
    const bool b = a ? true : joiner.wait_readable(milliseconds(20));
    if (!a && !b) {
      ++quiet;
      continue;
    }
    quiet = 0;
    drain(creator);
    drain(joiner);
  }

  report.ok = true;
  return report;
}

}  // namespace rtct::relay
