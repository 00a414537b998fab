#include "src/relay/relay_server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <random>

namespace rtct::relay {

namespace {

constexpr int kMaxShards = 16;
constexpr int kMaxMembersCap = 8;
constexpr std::uint16_t kDefaultListCap = 32;
/// How long a CREATE is answered idempotently for the same
/// (source address, content_id) — generously past the client's whole
/// retransmit budget (4 × 250 ms by default).
constexpr Dur kCreateDedupeWindow = seconds(5);

/// Tiny RAII epoll set over a data socket + the shared stop eventfd.
class EpollWaiter {
 public:
  EpollWaiter(int sock_fd, int stop_fd) {
    ep_ = ::epoll_create1(0);
    if (ep_ < 0) return;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = sock_fd;
    ::epoll_ctl(ep_, EPOLL_CTL_ADD, sock_fd, &ev);
    ev.data.fd = stop_fd;
    ::epoll_ctl(ep_, EPOLL_CTL_ADD, stop_fd, &ev);
  }
  ~EpollWaiter() {
    if (ep_ >= 0) ::close(ep_);
  }
  EpollWaiter(const EpollWaiter&) = delete;
  EpollWaiter& operator=(const EpollWaiter&) = delete;

  [[nodiscard]] bool ok() const { return ep_ >= 0; }

  /// Blocks until the socket is readable, the stop fd fires, or `timeout`
  /// elapses. Returns true when the *socket* has data.
  bool wait(int sock_fd, Dur timeout) {
    epoll_event evs[2];
    const int timeout_ms = static_cast<int>(timeout / kMillisecond);
    int n;
    do {
      n = ::epoll_wait(ep_, evs, 2, timeout_ms < 0 ? 0 : timeout_ms);
    } while (n < 0 && errno == EINTR);
    for (int i = 0; i < n; ++i) {
      if (evs[i].data.fd == sock_fd) return true;
    }
    return false;
  }

 private:
  int ep_ = -1;
};

}  // namespace

RelayServer::RelayServer(RelayConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.shards = std::clamp(cfg_.shards, 1, kMaxShards);
  cfg_.default_max_members = std::clamp(cfg_.default_max_members, 2, kMaxMembersCap);
  if (cfg_.max_sessions == 0) cfg_.max_sessions = 1;
  std::random_device rd;
  conn_rng_ = rd();
  if (conn_rng_ == 0) conn_rng_ = 0x9E3779B9u;  // xorshift must not be seeded 0
}

ConnId RelayServer::allocate_conn() {
  for (;;) {
    conn_rng_ ^= conn_rng_ << 13;
    conn_rng_ ^= conn_rng_ >> 17;
    conn_rng_ ^= conn_rng_ << 5;
    const ConnId conn = conn_rng_;
    if (conn == kNoConn) continue;
    Shard& shard = shard_for(conn);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.sessions.find(conn) == shard.sessions.end()) return conn;
  }
}

RelayServer::~RelayServer() { stop(); }

bool RelayServer::start(std::string* error) {
  if (running()) return true;
  lobby_sock_ = std::make_unique<net::UdpSocket>(cfg_.bind_ip, cfg_.lobby_port);
  if (!lobby_sock_->valid()) {
    if (error) *error = "lobby socket: " + lobby_sock_->last_error();
    return false;
  }
  lobby_sock_->set_recv_buffer(1 << 20);
  shards_.clear();
  for (int i = 0; i < cfg_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->sock = std::make_unique<net::UdpSocket>(cfg_.bind_ip, 0);
    if (!shard->sock->valid()) {
      if (error) *error = "shard socket: " + shard->sock->last_error();
      shards_.clear();
      lobby_sock_.reset();
      return false;
    }
    // A shard absorbs whole-fleet bursts (every member of every pinned
    // session can send in the same frame tick); the default rcvbuf drops
    // most of such a burst before the epoll loop ever wakes.
    shard->sock->set_recv_buffer(4 << 20);
    shards_.push_back(std::move(shard));
  }
  stop_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (stop_fd_ < 0) {
    if (error) *error = std::string("eventfd: ") + std::strerror(errno);
    shards_.clear();
    lobby_sock_.reset();
    return false;
  }
  running_.store(true, std::memory_order_release);
  lobby_thread_ = std::thread([this] { lobby_loop(); });
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->thread = std::thread([this, s] { shard_loop(*s); });
  }
  return true;
}

void RelayServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    // Never started (or already stopped); still reap any join-ables from a
    // failed start sequence.
  }
  if (stop_fd_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(stop_fd_, &one, sizeof(one));
  }
  if (lobby_thread_.joinable()) lobby_thread_.join();
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  if (stop_fd_ >= 0) {
    ::close(stop_fd_);
    stop_fd_ = -1;
  }
}

std::uint16_t RelayServer::lobby_port() const {
  return lobby_sock_ != nullptr ? lobby_sock_->local_port() : 0;
}

std::uint16_t RelayServer::shard_port(int shard) const {
  if (shard < 0 || shard >= static_cast<int>(shards_.size())) return 0;
  return shards_[static_cast<std::size_t>(shard)]->sock->local_port();
}

std::size_t RelayServer::session_count() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += shard->sessions.size();
  }
  return n;
}

// ---- lobby ------------------------------------------------------------------

void RelayServer::lobby_loop() {
  EpollWaiter waiter(lobby_sock_->native_fd(), stop_fd_);
  if (!waiter.ok()) return;
  while (running()) {
    waiter.wait(lobby_sock_->native_fd(), cfg_.sweep_interval);
    while (auto got = lobby_sock_->recv_from()) {
      handle_lobby(got->second, got->first);
    }
  }
}

void RelayServer::send_lobby(const net::UdpAddress& to, const RelayMessage& msg) {
  encode_relay_message_into(msg, lobby_scratch_);
  lobby_sock_->send_to(to, lobby_scratch_);
}

void RelayServer::handle_lobby(const net::UdpAddress& from,
                               std::span<const std::uint8_t> bytes) {
  lobby_requests_.fetch_add(1, std::memory_order_relaxed);
  const auto msg = decode_relay_message(bytes);
  if (!msg) {
    lobby_errors_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const Time now = steady_now();

  if (const auto* create = std::get_if<CreateMsg>(&*msg)) {
    if (create->version != kRelayProtocolVersion) {
      lobby_errors_.fetch_add(1, std::memory_order_relaxed);
      send_lobby(from, LobbyErrMsg{LobbyError::kBadVersion, kNoConn});
      return;
    }
    // CREATE retransmits (lost LOBBY_OK) must be idempotent like JOIN's:
    // echo the still-live session minted for this (address, content_id)
    // instead of burning another slot against max_sessions.
    for (auto it = recent_creates_.begin(); it != recent_creates_.end();) {
      if (now - it->second.at > kCreateDedupeWindow) {
        it = recent_creates_.erase(it);
      } else {
        ++it;
      }
    }
    const auto key = std::make_pair(from, create->content_id);
    if (const auto dup = recent_creates_.find(key); dup != recent_creates_.end()) {
      bool alive = false;
      Shard& dup_shard = shard_for(dup->second.conn);
      {
        std::lock_guard<std::mutex> lock(dup_shard.mu);
        auto sit = dup_shard.sessions.find(dup->second.conn);
        if (sit != dup_shard.sessions.end()) {
          sit->second.last_activity = now;
          alive = true;
        }
      }
      if (alive) {
        send_lobby(from, LobbyOkMsg{kRelayProtocolVersion, dup->second.conn, 0,
                                    dup->second.data_port});
        return;
      }
      recent_creates_.erase(dup);  // evicted meanwhile: mint fresh
    }
    if (session_count() >= cfg_.max_sessions) {
      lobby_errors_.fetch_add(1, std::memory_order_relaxed);
      send_lobby(from, LobbyErrMsg{LobbyError::kServerFull, kNoConn});
      return;
    }
    const ConnId conn = allocate_conn();
    Session s;
    s.conn = conn;
    s.content_id = create->content_id;
    s.max_members = static_cast<std::uint8_t>(
        create->max_members == 0
            ? cfg_.default_max_members
            : std::clamp<int>(create->max_members, 2, kMaxMembersCap));
    s.members.push_back(Member{from, now});
    s.last_activity = now;
    Shard& shard = shard_for(conn);
    const std::uint16_t data_port = shard.sock->local_port();
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.sessions.emplace(conn, std::move(s));
    }
    recent_creates_[key] = RecentCreate{conn, data_port, now};
    sessions_created_.fetch_add(1, std::memory_order_relaxed);
    send_lobby(from, LobbyOkMsg{kRelayProtocolVersion, conn, 0, data_port});
    return;
  }

  if (const auto* join = std::get_if<JoinMsg>(&*msg)) {
    if (join->version != kRelayProtocolVersion) {
      lobby_errors_.fetch_add(1, std::memory_order_relaxed);
      send_lobby(from, LobbyErrMsg{LobbyError::kBadVersion, join->conn});
      return;
    }
    Shard& shard = shard_for(join->conn);
    LobbyOkMsg ok{kRelayProtocolVersion, join->conn, 0, shard.sock->local_port()};
    LobbyError err = LobbyError::kNotFound;
    bool accepted = false;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.sessions.find(join->conn);
      if (it != shard.sessions.end()) {
        Session& s = it->second;
        s.last_activity = now;
        // A re-JOIN from an existing member is a retransmit (the first
        // LOBBY_OK was lost): answer idempotently with the same slot
        // instead of burning a member slot or erroring the retry.
        for (std::size_t i = 0; i < s.members.size(); ++i) {
          if (s.members[i].addr == from) {
            s.members[i].last_seen = now;
            ok.slot = static_cast<std::uint8_t>(i);
            accepted = true;
            break;
          }
        }
        if (!accepted) {
          if (s.members.size() >= s.max_members) {
            err = LobbyError::kSessionFull;
          } else {
            ok.slot = static_cast<std::uint8_t>(s.members.size());
            s.members.push_back(Member{from, now});
            accepted = true;
          }
        }
      }
    }
    if (accepted) {
      send_lobby(from, ok);
    } else {
      lobby_errors_.fetch_add(1, std::memory_order_relaxed);
      send_lobby(from, LobbyErrMsg{err, join->conn});
    }
    return;
  }

  if (const auto* list = std::get_if<ListMsg>(&*msg)) {
    if (list->version != kRelayProtocolVersion) {
      lobby_errors_.fetch_add(1, std::memory_order_relaxed);
      send_lobby(from, LobbyErrMsg{LobbyError::kBadVersion, kNoConn});
      return;
    }
    const std::size_t want =
        list->max_entries == 0
            ? kDefaultListCap
            : std::min<std::size_t>(list->max_entries, kMaxListEntries);
    // Anti-amplification: the reply never exceeds the request's size, so
    // a spoofed 5-byte LIST cannot turn the lobby into a reflector. The
    // client encoder pads its request to cover the entries it wants.
    const std::size_t budget =
        bytes.size() <= list_reply_size(0)
            ? 0
            : (bytes.size() - list_reply_size(0)) / 14;
    const std::size_t cap = std::min(want, budget);
    ListReplyMsg reply;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      for (const auto& [conn, s] : shard->sessions) {
        if (reply.sessions.size() >= cap) break;
        reply.sessions.push_back(SessionInfo{
            conn, s.content_id, static_cast<std::uint8_t>(s.members.size()),
            s.max_members});
      }
      if (reply.sessions.size() >= cap) break;
    }
    send_lobby(from, reply);
    return;
  }

  if (const auto* leave = std::get_if<LeaveMsg>(&*msg)) {
    Shard& shard = shard_for(leave->conn);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.sessions.find(leave->conn);
    if (it == shard.sessions.end()) return;
    auto& members = it->second.members;
    members.erase(std::remove_if(members.begin(), members.end(),
                                 [&from](const Member& m) { return m.addr == from; }),
                  members.end());
    if (members.empty()) {
      shard.sessions.erase(it);
      ++shard.closed;
    } else {
      it->second.last_activity = now;
    }
    return;
  }

  // Anything else (DATA on the lobby port, server-to-client shapes) is a
  // confused or hostile client.
  lobby_errors_.fetch_add(1, std::memory_order_relaxed);
}

// ---- data shards ------------------------------------------------------------

void RelayServer::shard_loop(Shard& shard) {
  EpollWaiter waiter(shard.sock->native_fd(), stop_fd_);
  if (!waiter.ok()) return;
  Time next_sweep = steady_now() + cfg_.sweep_interval;
  while (running()) {
    waiter.wait(shard.sock->native_fd(), cfg_.sweep_interval);
    while (auto got = shard.sock->recv_from()) {
      handle_data(shard, got->second, got->first);
    }
    const Time now = steady_now();
    if (now >= next_sweep) {
      sweep_shard(shard, now);
      next_sweep = now + cfg_.sweep_interval;
    }
  }
}

void RelayServer::handle_data(Shard& shard, const net::UdpAddress& from,
                              std::span<const std::uint8_t> bytes) {
  const Time t0 = steady_now();
  if (!is_data_frame(bytes)) {
    std::lock_guard<std::mutex> lock(shard.mu);
    ++shard.dropped_malformed;
    return;
  }
  const ConnId conn = data_frame_conn(bytes);
  bool unknown_session = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.sessions.find(conn);
    if (it == shard.sessions.end()) {
      ++shard.dropped_unknown_session;
      unknown_session = true;
    } else {
      Session& s = it->second;
      Member* sender = nullptr;
      for (Member& m : s.members) {
        if (m.addr == from) {
          sender = &m;
          break;
        }
      }
      if (sender == nullptr) {
        // Not a member: never relayed, never answered (a reply would make
        // the relay a reflector). Counted so operators can see probes.
        ++shard.dropped_unknown_sender;
      } else {
        sender->last_seen = t0;
        s.last_activity = t0;
        ++shard.forwarded;
        // Forward verbatim: the conn id is already framed into the
        // datagram, so fan-out is sendto() of the received bytes as-is.
        for (const Member& m : s.members) {
          if (m.addr == from) continue;
          shard.sock->send_to(m.addr, bytes);
          ++shard.fanout;
        }
      }
      shard.dispatch_ns.observe(static_cast<double>(steady_now() - t0));
    }
  }
  if (unknown_session) {
    // Tell the sender its session is gone (evicted or never existed) so it
    // can stop streaming / rejoin. Same-size reply: no amplification.
    const EvictNoticeMsg notice{conn};
    std::vector<std::uint8_t> buf;
    encode_relay_message_into(RelayMessage{notice}, buf);
    shard.sock->send_to(from, buf);
  }
}

void RelayServer::sweep_shard(Shard& shard, Time now) {
  std::vector<std::pair<net::UdpAddress, ConnId>> notices;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.sessions.begin(); it != shard.sessions.end();) {
      if (now - it->second.last_activity > cfg_.idle_timeout) {
        for (const Member& m : it->second.members) {
          notices.emplace_back(m.addr, it->second.conn);
        }
        it = shard.sessions.erase(it);
        ++shard.evicted;
      } else {
        ++it;
      }
    }
  }
  std::vector<std::uint8_t> buf;
  for (const auto& [addr, conn] : notices) {
    encode_relay_message_into(RelayMessage{EvictNoticeMsg{conn}}, buf);
    shard.sock->send_to(addr, buf);
  }
}

// ---- observability ----------------------------------------------------------

RelayServer::Stats RelayServer::stats() const {
  Stats s;
  s.sessions_created = sessions_created_.load(std::memory_order_relaxed);
  s.lobby_requests = lobby_requests_.load(std::memory_order_relaxed);
  s.lobby_errors = lobby_errors_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    s.sessions_evicted += shard->evicted;
    s.sessions_closed += shard->closed;
    s.datagrams_forwarded += shard->forwarded;
    s.fanout_datagrams += shard->fanout;
    s.dropped_unknown_session += shard->dropped_unknown_session;
    s.dropped_unknown_sender += shard->dropped_unknown_sender;
    s.dropped_malformed += shard->dropped_malformed;
  }
  return s;
}

void RelayServer::export_metrics(MetricsRegistry& reg) const {
  const Stats s = stats();
  reg.gauge("relay.sessions").set(static_cast<double>(session_count()));
  reg.gauge("relay.shards").set(static_cast<double>(shards_.size()));
  reg.counter("relay.sessions_created").set(s.sessions_created);
  reg.counter("relay.evicted").set(s.sessions_evicted);
  reg.counter("relay.closed").set(s.sessions_closed);
  reg.counter("relay.datagrams_forwarded").set(s.datagrams_forwarded);
  reg.counter("relay.fanout_datagrams").set(s.fanout_datagrams);
  reg.counter("relay.dropped_unknown_session").set(s.dropped_unknown_session);
  reg.counter("relay.dropped_unknown_sender").set(s.dropped_unknown_sender);
  reg.counter("relay.dropped_malformed").set(s.dropped_malformed);
  reg.counter("relay.lobby.requests").set(s.lobby_requests);
  reg.counter("relay.lobby.errors").set(s.lobby_errors);
  Histogram& h = reg.histogram("relay.dispatch_ns");
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    h.merge(shard->dispatch_ns);
  }
}

}  // namespace rtct::relay
