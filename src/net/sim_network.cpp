#include "src/net/sim_network.h"

#include <utility>

namespace rtct::net {

void SimEndpoint::send(std::span<const std::uint8_t> payload) {
  const auto verdict = tx_->offer(sim_.now(), payload.size());
  if (!verdict.delivered) return;
  sim_.schedule_event(verdict.arrival, &SimEndpoint::arrive, this, park(payload));
  if (verdict.duplicate) {
    sim_.schedule_event(verdict.dup_arrival, &SimEndpoint::arrive, this, park(payload));
  }
}

std::uint64_t SimEndpoint::park(std::span<const std::uint8_t> payload) {
  if (free_slots_.empty()) {
    free_slots_.push_back(in_flight_.size());
    in_flight_.emplace_back();
  }
  const std::uint64_t slot = free_slots_.back();
  free_slots_.pop_back();
  // The slot's buffer was moved to the peer when it last arrived, so this
  // is the one allocation per datagram: try_recv hands out an owning
  // Payload.
  in_flight_[slot].assign(payload.begin(), payload.end());
  return slot;
}

void SimEndpoint::arrive(void* endpoint, std::uint64_t slot) {
  auto& self = *static_cast<SimEndpoint*>(endpoint);
  self.tx_->on_arrival();
  SimEndpoint& peer = *self.peer_;
  peer.inbox_.push_back(std::move(self.in_flight_[slot]));
  self.free_slots_.push_back(slot);
  peer.trigger_.notify_all();
}

std::optional<Payload> SimEndpoint::try_recv() {
  if (inbox_head_ == inbox_.size()) return std::nullopt;
  Payload p = std::move(inbox_[inbox_head_++]);
  if (inbox_head_ == inbox_.size()) {
    inbox_.clear();
    inbox_head_ = 0;
  }
  return p;
}

SimDuplexLink::SimDuplexLink(sim::Simulator& sim, NetemConfig a_to_b, NetemConfig b_to_a,
                             std::uint64_t seed) {
  Rng root(seed);
  a_ = std::unique_ptr<SimEndpoint>(new SimEndpoint(sim, a_to_b, root.fork()));
  b_ = std::unique_ptr<SimEndpoint>(new SimEndpoint(sim, b_to_a, root.fork()));
  a_->peer_ = b_.get();
  b_->peer_ = a_.get();
}

}  // namespace rtct::net
