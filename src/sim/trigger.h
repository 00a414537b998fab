// Condition-variable analogue for simulation coroutines.
//
// A site process blocked in Algorithm 2's receive loop must wake either when
// a datagram arrives (notify) or when its periodic send timer is due
// (deadline) — Trigger::wait_until models exactly that race.
//
// Lifetime rule: a Trigger outlives every timed wait pending on it (its
// deadline event refers to the trigger); Simulator::run() empties the queue.
#pragma once

#include <coroutine>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/sim/simulator.h"

namespace rtct::sim {

class Trigger {
 public:
  explicit Trigger(Simulator& sim) : sim_(sim) {}
  Trigger(const Trigger&) = delete;
  Trigger& operator=(const Trigger&) = delete;

  /// Wakes every coroutine currently waiting. Wakeups are scheduled at the
  /// current virtual time (not resumed inline) so a notifier never runs a
  /// waiter's code in its own stack frame.
  void notify_all();

  /// `co_await trigger.wait()` — suspends until the next notify_all().
  [[nodiscard]] auto wait() { return Awaiter{*this, kNever}; }

  /// `bool notified = co_await trigger.wait_until(deadline)` — suspends
  /// until notify_all() or the virtual-time deadline, whichever first.
  /// Returns true if notified, false on timeout.
  [[nodiscard]] auto wait_until(Time deadline) { return Awaiter{*this, deadline}; }

  [[nodiscard]] std::size_t waiter_count() const { return waiters_.size(); }

 private:
  static constexpr Time kNever = std::numeric_limits<Time>::max();

  /// One pending wait; `notified` lives in its awaiter (the coroutine frame).
  struct Waiter {
    std::coroutine_handle<> h;
    bool* notified;
    std::uint64_t id;
  };

  struct Awaiter {
    Trigger& trig;
    Time deadline;  ///< kNever: no deadline event
    bool notified = false;
    [[nodiscard]] bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    bool await_resume() const noexcept { return notified; }
  };

  /// Deadline thunk: times out wait `id` unless a notify already took it.
  static void expire(void* trigger, std::uint64_t id);

  Simulator& sim_;
  std::vector<Waiter> waiters_;  ///< pending waits, in registration order
  std::uint64_t next_id_ = 0;
};

}  // namespace rtct::sim
