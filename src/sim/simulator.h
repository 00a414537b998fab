// Discrete-event simulation kernel with C++20 coroutine processes.
//
// This substrate replaces the paper's physical testbed (two Windows PCs, a
// Gentoo Netem box and a LAN time server) with deterministic virtual time:
// every timing result in the benches is exactly reproducible, and a 3 600-
// frame experiment that takes a minute of wall clock on hardware completes
// in milliseconds.
//
// Model: a single global virtual clock and an ordered event queue. Site
// processes are coroutines that `co_await sim.sleep(dt)` or block on
// `Trigger`s (condition-variable analogue); the network model delivers
// datagrams by scheduling future events. Events at equal times run in
// schedule order (stable FIFO), so runs are bit-reproducible.
// An event is a trivially copyable `fn(obj, arg)` thunk, so sleeps,
// trigger wakes and datagram arrivals schedule without allocating.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "src/common/time.h"

namespace rtct::sim {

class Simulator;

/// A detached simulation process. Obtained by calling a coroutine function
/// returning Task, then handed to Simulator::spawn(), which owns the frame
/// until the coroutine completes (or the simulator is destroyed).
class Task {
 public:
  struct promise_type {
    Simulator* sim = nullptr;
    bool finished = false;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() noexcept;
    [[noreturn]] void unhandled_exception() noexcept;
  };

  Task(Task&& o) noexcept : h_(o.h_) { o.h_ = nullptr; }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&&) = delete;
  ~Task() {
    if (h_) h_.destroy();  // spawn() was never called
  }

 private:
  friend class Simulator;
  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}
  std::coroutine_handle<promise_type> h_;
};

/// Awaitable returned by Simulator::sleep().
struct SleepAwaiter {
  Simulator& sim;
  Dur d;
  [[nodiscard]] bool await_ready() const noexcept { return d <= 0; }
  void await_suspend(std::coroutine_handle<> h);
  void await_resume() const noexcept {}
};

class Simulator {
 public:
  Simulator() = default;
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  [[nodiscard]] Time now() const { return now_; }

  using Thunk = void (*)(void* obj, std::uint64_t arg);
  /// Schedules `fn(obj, arg)` at absolute virtual time `t` (clamped to now).
  void schedule_event(Time t, Thunk fn, void* obj, std::uint64_t arg = 0);
  /// The thunk that resumes the coroutine whose address is `obj`.
  static void resume(void* obj, std::uint64_t arg);

  /// Cold callers' adapter: parks `fn` in a reused slab behind a thunk.
  void schedule_at(Time t, std::function<void()> fn);
  /// Schedules a callback `d` from now.
  void schedule_in(Dur d, std::function<void()> fn) { schedule_at(now_ + d, std::move(fn)); }

  /// Starts a coroutine process. The simulator owns the coroutine frame.
  void spawn(Task task);

  /// In-coroutine: suspends the caller for virtual duration `d`.
  [[nodiscard]] SleepAwaiter sleep(Dur d) { return SleepAwaiter{*this, d}; }

  /// Runs events until the queue drains. Returns the number executed.
  std::size_t run();

  /// Runs all events with time <= t, then advances the clock to t.
  std::size_t run_until(Time t);

  [[nodiscard]] bool idle() const { return queue_.empty(); }
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] std::size_t live_tasks() const { return tasks_.size(); }

 private:
  friend struct Task::promise_type;

  struct Event { Time t; std::uint64_t seq; Thunk fn; void* obj; std::uint64_t arg; };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };

  static void run_parked(void* sim, std::uint64_t slot);
  void run_next();
  void prune_finished();

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventLater> queue_;
  std::vector<std::function<void()>> parked_;  ///< schedule_at callables
  std::vector<std::uint64_t> free_parked_;     ///< reusable parked_ slots
  std::vector<std::coroutine_handle<Task::promise_type>> tasks_;
  bool any_finished_ = false;
};

}  // namespace rtct::sim
