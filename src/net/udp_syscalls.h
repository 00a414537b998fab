// Injectable socket-syscall table for UdpSocket.
//
// Production code never touches this: the default table calls the real
// Berkeley syscalls. Tests install a fake to force the failure modes a
// loopback socket will not produce on demand — EINTR mid-call, EAGAIN on
// send, hard errors — so the retry/telemetry paths have regression
// coverage (tests/udp_fault_test.cpp).
#pragma once

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <time.h>
#include <sys/types.h>

namespace rtct::net {

struct UdpSyscalls {
  ssize_t (*send)(int fd, const void* buf, size_t len, int flags);
  ssize_t (*sendto)(int fd, const void* buf, size_t len, int flags,
                    const sockaddr* addr, socklen_t addrlen);
  ssize_t (*recv)(int fd, void* buf, size_t len, int flags);
  ssize_t (*recvfrom)(int fd, void* buf, size_t len, int flags, sockaddr* addr,
                      socklen_t* addrlen);
  int (*ppoll)(pollfd* fds, nfds_t nfds, const timespec* timeout, const sigset_t* sigmask);
};

/// The table UdpSocket routes through (defaults to the real syscalls).
[[nodiscard]] const UdpSyscalls& udp_syscalls();

/// Installs a fake table; nullptr restores the real syscalls. Test-only —
/// not thread-safe against in-flight socket calls.
void set_udp_syscalls_for_test(const UdpSyscalls* table);

}  // namespace rtct::net
