#include "src/sim/simulator.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace rtct::sim {

void Task::promise_type::return_void() noexcept {
  finished = true;
  if (sim != nullptr) sim->any_finished_ = true;
}

void Task::promise_type::unhandled_exception() noexcept {
  // A simulation process leaking an exception is a programming error: there
  // is no one above the event loop to handle it meaningfully.
  std::fprintf(stderr, "rtct::sim: unhandled exception escaping a Task\n");
  std::abort();
}

void SleepAwaiter::await_suspend(std::coroutine_handle<> h) {
  sim.schedule_event(sim.now() + d, &Simulator::resume, h.address());
}

Simulator::~Simulator() {
  // Parked callables may capture handles of the frames destroyed next.
  parked_.clear();
  for (auto h : tasks_) h.destroy();
}

void Simulator::schedule_event(Time t, Thunk fn, void* obj, std::uint64_t arg) {
  if (t < now_) t = now_;
  queue_.push(Event{t, next_seq_++, fn, obj, arg});
}

void Simulator::resume(void* obj, std::uint64_t /*arg*/) {
  std::coroutine_handle<>::from_address(obj).resume();
}

void Simulator::schedule_at(Time t, std::function<void()> fn) {
  if (free_parked_.empty()) {
    free_parked_.push_back(parked_.size());
    parked_.emplace_back();
  }
  const std::uint64_t slot = free_parked_.back();
  free_parked_.pop_back();
  parked_[slot] = std::move(fn);
  schedule_event(t, &Simulator::run_parked, this, slot);
}

void Simulator::run_parked(void* sim, std::uint64_t slot) {
  auto& self = *static_cast<Simulator*>(sim);
  // Free the slot before the call: the callback may reuse it or regrow
  // the slab.
  const std::function<void()> fn = std::move(self.parked_[slot]);
  self.free_parked_.push_back(slot);
  fn();
}

void Simulator::spawn(Task task) {
  auto h = task.h_;
  task.h_ = nullptr;  // the simulator now owns the frame
  h.promise().sim = this;
  tasks_.push_back(h);
  h.resume();  // run until the first suspension (or completion)
  if (any_finished_) prune_finished();
}

void Simulator::run_next() {
  const Event ev = queue_.top();
  queue_.pop();
  now_ = ev.t;
  ev.fn(ev.obj, ev.arg);
  if (any_finished_) prune_finished();
}

void Simulator::prune_finished() {
  std::erase_if(tasks_, [](auto h) {
    if (!h.promise().finished) return false;
    h.destroy();
    return true;
  });
  any_finished_ = false;
}

std::size_t Simulator::run() {
  std::size_t n = 0;
  for (; !queue_.empty(); ++n) run_next();
  return n;
}

std::size_t Simulator::run_until(Time t) {
  std::size_t n = 0;
  for (; !queue_.empty() && queue_.top().t <= t; ++n) run_next();
  now_ = t;
  return n;
}

}  // namespace rtct::sim
