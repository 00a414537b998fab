// UdpSocket error-path regressions, driven through the syscall-injection
// seam (set_udp_syscalls_for_test): EINTR retries, soft-vs-hard error
// accounting, and the constructor's guarantee that every failure path
// closes the fd. Real sockets, fake syscalls — no network flakiness. The
// UdpSocketTest cases at the end use the real syscalls: sub-millisecond
// waits and the reused receive buffer.
#include "src/net/udp_socket.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "src/common/telemetry.h"
#include "src/net/udp_syscalls.h"

namespace rtct::net {
namespace {

// The scripted syscall table: each hook consumes a per-call plan (errno to
// fail with, or -1 meaning "pass through to the real syscall").
struct FaultPlan {
  int fail_sends_with = -1;   // errno for send/sendto, or -1 = real call
  int fail_recvs_with = -1;   // errno for recv/recvfrom, or -1 = real call
  int eintr_first_n = 0;      // interrupt the first N calls before honouring
                              // the plan (exercises the retry loop)
  int calls_seen = 0;
  int eintr_polls = 0;  // interrupt the first N ppoll calls, each after
  Dur poll_sleep = 0;   // sleeping this long (a signal landing mid-wait)
  struct PollCall {
    Time entered = 0;
    Time returned = 0;
    Dur timeout = 0;
  };
  std::vector<PollCall> polls;  // every ppoll call, in order
};
FaultPlan g_plan;

ssize_t fake_send(int fd, const void* buf, size_t len, int flags) {
  if (g_plan.calls_seen++ < g_plan.eintr_first_n) {
    errno = EINTR;
    return -1;
  }
  if (g_plan.fail_sends_with >= 0) {
    errno = g_plan.fail_sends_with;
    return -1;
  }
  return ::send(fd, buf, len, flags);
}

ssize_t fake_sendto(int fd, const void* buf, size_t len, int flags,
                    const sockaddr* to, socklen_t tolen) {
  if (g_plan.calls_seen++ < g_plan.eintr_first_n) {
    errno = EINTR;
    return -1;
  }
  if (g_plan.fail_sends_with >= 0) {
    errno = g_plan.fail_sends_with;
    return -1;
  }
  return ::sendto(fd, buf, len, flags, to, tolen);
}

ssize_t fake_recv(int fd, void* buf, size_t len, int flags) {
  if (g_plan.calls_seen++ < g_plan.eintr_first_n) {
    errno = EINTR;
    return -1;
  }
  if (g_plan.fail_recvs_with >= 0) {
    errno = g_plan.fail_recvs_with;
    return -1;
  }
  return ::recv(fd, buf, len, flags);
}

ssize_t fake_recvfrom(int fd, void* buf, size_t len, int flags, sockaddr* from,
                      socklen_t* fromlen) {
  if (g_plan.calls_seen++ < g_plan.eintr_first_n) {
    errno = EINTR;
    return -1;
  }
  if (g_plan.fail_recvs_with >= 0) {
    errno = g_plan.fail_recvs_with;
    return -1;
  }
  return ::recvfrom(fd, buf, len, flags, from, fromlen);
}

int fake_ppoll(pollfd* fds, nfds_t nfds, const timespec* timeout, const sigset_t* sigmask) {
  FaultPlan::PollCall call;
  call.entered = steady_now();
  call.timeout = timeout->tv_sec * kSecond + timeout->tv_nsec;
  int r = -1;
  int err = EINTR;
  if (static_cast<int>(g_plan.polls.size()) < g_plan.eintr_polls) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(g_plan.poll_sleep));
  } else {
    r = ::ppoll(fds, nfds, timeout, sigmask);
    err = errno;
  }
  call.returned = steady_now();
  g_plan.polls.push_back(call);
  errno = err;
  return r;
}

const UdpSyscalls kFakeTable{fake_send, fake_sendto, fake_recv, fake_recvfrom, fake_ppoll};

class UdpFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_plan = FaultPlan{};
    set_udp_syscalls_for_test(&kFakeTable);
  }
  void TearDown() override { set_udp_syscalls_for_test(nullptr); }
};

std::size_t open_fd_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

std::vector<std::uint8_t> payload() { return {1, 2, 3, 4}; }

TEST_F(UdpFaultTest, EintrSendIsRetriedNotDropped) {
  UdpSocket a("127.0.0.1", 0);
  UdpSocket b("127.0.0.1", 0);
  ASSERT_TRUE(a.valid());
  ASSERT_TRUE(b.valid());
  ASSERT_TRUE(a.connect_peer("127.0.0.1", b.local_port()));

  g_plan.eintr_first_n = 3;  // three interrupts, then the real send
  a.send(payload());
  EXPECT_EQ(a.eintr_retries(), 3u);
  EXPECT_EQ(a.datagrams_sent(), 1u);
  EXPECT_EQ(a.send_soft_drops(), 0u);
  EXPECT_EQ(a.send_errors(), 0u);

  ASSERT_TRUE(b.wait_readable(seconds(1)));
  g_plan = FaultPlan{};
  const auto got = b.recv_from();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->first, payload());
}

TEST_F(UdpFaultTest, EintrRecvIsRetried) {
  UdpSocket a("127.0.0.1", 0);
  UdpSocket b("127.0.0.1", 0);
  ASSERT_TRUE(a.connect_peer("127.0.0.1", b.local_port()));
  a.send(payload());
  ASSERT_TRUE(b.wait_readable(seconds(1)));

  g_plan = FaultPlan{};  // the setup send consumed calls_seen ticks
  g_plan.eintr_first_n = 2;
  const auto got = b.recv_from();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(b.eintr_retries(), 2u);
  EXPECT_EQ(b.recv_errors(), 0u);
}

TEST_F(UdpFaultTest, EintrWaitRetriesOnlyForTheTimeLeft) {
  // Regression: an EINTR used to restart poll() with the full original
  // timeout, so a stream of signals could hold the caller past its
  // deadline indefinitely. Each retry must ask for what is left.
  UdpSocket a("127.0.0.1", 0);
  ASSERT_TRUE(a.valid());
  g_plan.eintr_polls = 2;
  g_plan.poll_sleep = milliseconds(30);
  const Dur timeout = milliseconds(100);
  EXPECT_FALSE(a.wait_readable(timeout));  // nothing is ever sent

  ASSERT_EQ(g_plan.polls.size(), 3u);
  EXPECT_EQ(a.eintr_retries(), 2u);
  EXPECT_LE(g_plan.polls[0].timeout, timeout);
  // The socket fixes its deadline before the first call, so the deadline
  // is no later than that call's entry plus the timeout.
  const Time deadline_bound = g_plan.polls[0].entered + timeout;
  for (std::size_t i = 1; i < g_plan.polls.size(); ++i) {
    EXPECT_LE(g_plan.polls[i].timeout, deadline_bound - g_plan.polls[i - 1].returned)
        << "retry " << i << " waits longer than the time remaining";
  }
}

TEST_F(UdpFaultTest, SoftSendErrnosCountAsDropsNotErrors) {
  UdpSocket a("127.0.0.1", 0);
  UdpSocket b("127.0.0.1", 0);
  ASSERT_TRUE(a.connect_peer("127.0.0.1", b.local_port()));

  for (const int e : {EAGAIN, EWOULDBLOCK, ENOBUFS}) {
    g_plan.fail_sends_with = e;
    a.send(payload());
  }
  // EAGAIN and EWOULDBLOCK may alias; count calls, not distinct errnos.
  EXPECT_EQ(a.send_soft_drops(), 3u);
  EXPECT_EQ(a.send_errors(), 0u);
  EXPECT_EQ(a.datagrams_sent(), 0u);
}

TEST_F(UdpFaultTest, HardSendErrnoCountsAsError) {
  UdpSocket a("127.0.0.1", 0);
  UdpSocket b("127.0.0.1", 0);
  ASSERT_TRUE(a.connect_peer("127.0.0.1", b.local_port()));

  g_plan.fail_sends_with = EPERM;  // e.g. iptables REJECT on the egress path
  a.send(payload());
  g_plan.fail_sends_with = ENETUNREACH;
  const auto addr = make_udp_address("127.0.0.1", b.local_port());
  ASSERT_TRUE(addr.has_value());
  a.send_to(*addr, payload());

  EXPECT_EQ(a.send_errors(), 2u);
  EXPECT_EQ(a.send_soft_drops(), 0u);
  EXPECT_EQ(a.datagrams_sent(), 0u);
}

TEST_F(UdpFaultTest, SoftRecvErrnosAreSilentHardOnesCounted) {
  UdpSocket a("127.0.0.1", 0);
  ASSERT_TRUE(a.valid());

  // ECONNREFUSED: the loopback ICMP bounce a connected socket surfaces
  // after sending to a dead peer — routine during session startup races.
  for (const int e : {EAGAIN, ECONNREFUSED}) {
    g_plan.fail_recvs_with = e;
    EXPECT_FALSE(a.try_recv().has_value());
  }
  EXPECT_EQ(a.recv_errors(), 0u);

  g_plan.fail_recvs_with = EBADF;
  EXPECT_FALSE(a.try_recv().has_value());
  g_plan.fail_recvs_with = ENOMEM;
  EXPECT_FALSE(a.recv_from().has_value());
  EXPECT_EQ(a.recv_errors(), 2u);
}

TEST_F(UdpFaultTest, CountersSurviveIntoMetricsExport) {
  UdpSocket a("127.0.0.1", 0);
  UdpSocket b("127.0.0.1", 0);
  ASSERT_TRUE(a.connect_peer("127.0.0.1", b.local_port()));

  g_plan.eintr_first_n = 1;
  g_plan.fail_sends_with = ENOBUFS;
  a.send(payload());  // 1 EINTR retry, then a soft drop
  g_plan = FaultPlan{};
  g_plan.fail_recvs_with = EBADF;
  (void)a.try_recv();

  MetricsRegistry reg;
  a.export_metrics(reg);
  EXPECT_EQ(reg.value("net.udp.send_soft_drops"), 1);
  EXPECT_EQ(reg.value("net.udp.recv_errors"), 1);
  EXPECT_EQ(reg.value("net.udp.eintr_retries"), 1);
  EXPECT_EQ(reg.value("net.udp.send_errors"), 0);
}

TEST(UdpFdLeakTest, ConstructorFailurePathsCloseTheFd) {
  // Bind failures must not leak the just-created fd: construct many
  // sockets through every constructor failure path and assert the
  // process's fd count is flat. (The relay churns through sockets in
  // tests; a per-failure leak exhausts the fd table within minutes.)
  const std::size_t before = open_fd_count();
  for (int i = 0; i < 64; ++i) {
    UdpSocket bad_ip("999.not.an.ip", 0);  // inet_pton failure path
    EXPECT_FALSE(bad_ip.valid());
    EXPECT_NE(bad_ip.last_error().find("inet_pton"), std::string::npos);

    UdpSocket bad_bind("8.8.8.8", 1);  // bind failure path (foreign addr)
    EXPECT_FALSE(bad_bind.valid());
  }
  EXPECT_EQ(open_fd_count(), before);
}

TEST(UdpFdLeakTest, InvalidSocketOperationsAreInertAndErrorIsStable) {
  UdpSocket bad("999.not.an.ip", 0);
  ASSERT_FALSE(bad.valid());
  const std::string err = bad.last_error();
  EXPECT_FALSE(err.empty());

  // Every operation on a failed socket is a harmless no-op.
  bad.send(std::vector<std::uint8_t>{1});
  EXPECT_FALSE(bad.try_recv().has_value());
  EXPECT_FALSE(bad.recv_from().has_value());
  EXPECT_FALSE(bad.wait_readable(0));
  EXPECT_FALSE(bad.connect_peer("127.0.0.1", 1));
  EXPECT_EQ(bad.last_error(), err);  // untouched by the no-ops above
  EXPECT_EQ(bad.datagrams_sent(), 0u);
}

// ---- real syscalls: deadline-exact waits, reused receive buffer -------------

TEST(UdpSocketTest, SubMillisecondWaitBlocksForItsWholeTimeout) {
  // poll()'s millisecond timeout used to truncate this to a non-blocking
  // check that returned at once.
  UdpSocket idle("127.0.0.1", 0);
  ASSERT_TRUE(idle.valid());
  const Time start = steady_now();
  EXPECT_FALSE(idle.wait_readable(microseconds(500)));
  EXPECT_GE(steady_now() - start, microseconds(500));
}

std::vector<std::uint8_t> patterned(std::size_t size, std::uint8_t salt) {
  std::vector<std::uint8_t> bytes(size);
  for (std::size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 31 + salt);
  }
  return bytes;
}

const std::size_t kSizes[] = {0, 1, 1400, 65507};  // 65507: the IPv4 UDP maximum

TEST(UdpSocketTest, BackToBackDatagramsOfEverySizeRoundTripThroughTryRecv) {
  UdpSocket a("127.0.0.1", 0);
  UdpSocket b("127.0.0.1", 0);
  ASSERT_TRUE(a.connect_peer("127.0.0.1", b.local_port()));
  ASSERT_TRUE(b.connect_peer("127.0.0.1", a.local_port()));
  b.set_recv_buffer(1 << 20);
  for (const std::size_t size : kSizes) a.send(patterned(size, 7));
  for (const std::size_t size : kSizes) {
    ASSERT_TRUE(b.wait_readable(seconds(1)));
    const auto got = b.try_recv();
    ASSERT_TRUE(got.has_value()) << size;
    EXPECT_EQ(*got, patterned(size, 7)) << size;
  }
  EXPECT_FALSE(b.try_recv().has_value());
}

TEST(UdpSocketTest, BackToBackDatagramsOfEverySizeRoundTripThroughRecvFrom) {
  UdpSocket a("127.0.0.1", 0);
  UdpSocket b("127.0.0.1", 0);
  b.set_recv_buffer(1 << 20);
  const auto to_b = make_udp_address("127.0.0.1", b.local_port());
  const auto from_a = make_udp_address("127.0.0.1", a.local_port());
  ASSERT_TRUE(to_b.has_value());
  ASSERT_TRUE(from_a.has_value());
  for (const std::size_t size : kSizes) a.send_to(*to_b, patterned(size, 9));
  for (const std::size_t size : kSizes) {
    ASSERT_TRUE(b.wait_readable(seconds(1)));
    const auto got = b.recv_from();
    ASSERT_TRUE(got.has_value()) << size;
    EXPECT_EQ(got->first, patterned(size, 9)) << size;
    EXPECT_EQ(got->second, *from_a);
  }
  EXPECT_FALSE(b.recv_from().has_value());
}

TEST(UdpSocketTest, ReturnedPayloadSurvivesLaterReceives) {
  // Receives share one buffer per socket; what they return must be a copy.
  UdpSocket a("127.0.0.1", 0);
  UdpSocket b("127.0.0.1", 0);
  ASSERT_TRUE(a.connect_peer("127.0.0.1", b.local_port()));
  ASSERT_TRUE(b.connect_peer("127.0.0.1", a.local_port()));
  a.send(patterned(64, 1));
  a.send(patterned(64, 2));
  ASSERT_TRUE(b.wait_readable(seconds(1)));
  const auto first = b.try_recv();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(b.wait_readable(seconds(1)));
  const auto second = b.recv_from();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*first, patterned(64, 1));
  EXPECT_EQ(second->first, patterned(64, 2));
}

}  // namespace
}  // namespace rtct::net
