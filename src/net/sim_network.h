// Simulated point-to-point network: two DatagramTransport endpoints joined
// by a pair of independently-configured Netem directions, all running on a
// rtct::sim::Simulator virtual clock. This is the testbed stand-in for the
// paper's "two PCs bridged through a Netem box" (§4).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/net/netem.h"
#include "src/net/transport.h"
#include "src/sim/simulator.h"
#include "src/sim/trigger.h"

namespace rtct::net {

class SimDuplexLink;

/// One end of a simulated duplex link.
class SimEndpoint final : public DatagramTransport {
 public:
  void send(std::span<const std::uint8_t> payload) override;
  std::optional<Payload> try_recv() override;

  /// Notified (virtual-time) whenever a datagram lands in the inbox. The
  /// simulated site driver waits on this instead of busy-polling.
  [[nodiscard]] sim::Trigger& arrival_trigger() { return trigger_; }

  /// Stats of this endpoint's *outgoing* direction.
  [[nodiscard]] const LinkStats& tx_stats() const { return tx_->stats(); }

  /// Reconfigures this endpoint's outgoing direction mid-simulation.
  void set_tx_config(const NetemConfig& cfg) { tx_->set_config(cfg); }
  [[nodiscard]] std::size_t inbox_size() const { return inbox_.size() - inbox_head_; }

 private:
  friend class SimDuplexLink;
  SimEndpoint(sim::Simulator& sim, NetemConfig cfg, Rng rng)
      : sim_(sim), tx_(std::make_unique<NetemModel>(cfg, rng)), trigger_(sim) {}

  /// Copies `payload` into a free in-flight slot; returns its index.
  std::uint64_t park(std::span<const std::uint8_t> payload);
  /// Arrival thunk: hands in-flight slot `slot` to the peer's inbox.
  static void arrive(void* endpoint, std::uint64_t slot);

  sim::Simulator& sim_;
  SimEndpoint* peer_ = nullptr;
  std::unique_ptr<NetemModel> tx_;
  // Datagrams on the wire: one copy at send, moved to the peer on arrival.
  std::vector<Payload> in_flight_;
  std::vector<std::uint64_t> free_slots_;
  // Arrived datagrams from inbox_head_ on; both reset once drained, so the
  // queue reuses its storage.
  std::vector<Payload> inbox_;
  std::size_t inbox_head_ = 0;
  sim::Trigger trigger_;
};

/// Owns both endpoints. Keep it alive until the simulation finishes: a
/// datagram in flight lives in its sender's slab, and both endpoints must
/// exist when its arrival event fires.
class SimDuplexLink {
 public:
  /// `a_to_b` / `b_to_a` shape the two directions independently (asymmetric
  /// paths are one of the extended experiments). `seed` derives both
  /// directions' RNG streams.
  SimDuplexLink(sim::Simulator& sim, NetemConfig a_to_b, NetemConfig b_to_a,
                std::uint64_t seed = 1);

  /// Symmetric convenience: both directions get `cfg`.
  SimDuplexLink(sim::Simulator& sim, NetemConfig cfg, std::uint64_t seed = 1)
      : SimDuplexLink(sim, cfg, cfg, seed) {}

  [[nodiscard]] SimEndpoint& a() { return *a_; }
  [[nodiscard]] SimEndpoint& b() { return *b_; }

 private:
  std::unique_ptr<SimEndpoint> a_;
  std::unique_ptr<SimEndpoint> b_;
};

}  // namespace rtct::net
