#include "src/sim/trigger.h"

#include <algorithm>

namespace rtct::sim {

void Trigger::notify_all() {
  // A woken waiter that waits again runs later, so it joins the next notify.
  for (const Waiter& w : waiters_) {
    *w.notified = true;
    sim_.schedule_event(sim_.now(), &Simulator::resume, w.h.address());
  }
  waiters_.clear();
}

void Trigger::expire(void* trigger, std::uint64_t id) {
  auto& self = *static_cast<Trigger*>(trigger);
  const auto it = std::find_if(self.waiters_.begin(), self.waiters_.end(),
                               [id](const Waiter& w) { return w.id == id; });
  if (it == self.waiters_.end()) return;  // a notify took this wait first
  const std::coroutine_handle<> h = it->h;
  self.waiters_.erase(it);  // keeps the others' notify order
  h.resume();
}

void Trigger::Awaiter::await_suspend(std::coroutine_handle<> h) {
  const std::uint64_t id = trig.next_id_++;
  trig.waiters_.push_back(Waiter{h, &notified, id});
  if (deadline != kNever) trig.sim_.schedule_event(deadline, &Trigger::expire, &trig, id);
}

}  // namespace rtct::sim
