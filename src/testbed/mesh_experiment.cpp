#include "src/testbed/mesh_experiment.h"

#include <algorithm>

#include "src/core/input_source.h"
#include "src/core/pacer.h"
#include "src/core/sync_peer.h"
#include "src/core/wire.h"
#include "src/cores/registry.h"
#include "src/net/sim_network.h"
#include "src/sim/simulator.h"
#include "src/sim/trigger.h"

namespace rtct::testbed {

namespace {

struct MeshFlags {
  std::vector<bool> done;
  [[nodiscard]] bool all_done() const {
    return std::all_of(done.begin(), done.end(), [](bool d) { return d; });
  }
};

/// One mesh participant: machine + N-site SyncPeer + per-peer endpoints.
class MeshSite {
 public:
  MeshSite(sim::Simulator& sim, const MeshExperimentConfig& cfg, SiteId site,
           std::unique_ptr<emu::IDeterministicGame> game)
      : sim_(sim),
        cfg_(cfg),
        site_(site),
        game_holder_(std::move(game)),
        game_(*game_holder_),
        peer_(site, cfg.sync, cfg.num_sites),
        pacer_(cfg.sync),
        input_(cfg.input_seed_base + static_cast<std::uint64_t>(site), cfg.input_hold_frames),
        state_changed_(sim) {
    endpoints_.resize(static_cast<std::size_t>(cfg.num_sites), nullptr);
    result_.timeline.reserve(static_cast<std::size_t>(cfg.frames));
  }

  /// Wires the duplex endpoint that reaches `peer_site`.
  void connect(SiteId peer_site, net::SimEndpoint& ep) { endpoints_[peer_site] = &ep; }

  void launch(MeshFlags& flags) {
    sim_.spawn(run_main(&flags));
    sim_.spawn(run_sender(&flags));
    for (SiteId s = 0; s < cfg_.num_sites; ++s) {
      if (endpoints_[s] != nullptr) sim_.spawn(run_receiver(endpoints_[s]));
    }
  }

  MeshSiteResult take_result() {
    result_.sync_stats = peer_.stats();
    result_.frames_completed = static_cast<FrameNo>(result_.timeline.size());
    return std::move(result_);
  }

 private:
  void drain(net::SimEndpoint* ep) {
    bool any = false;
    while (auto payload = ep->try_recv()) {
      any = true;
      const auto msg = core::decode_message(*payload);
      if (!msg) continue;
      if (const auto* sync = std::get_if<core::SyncMsg>(&*msg)) {
        peer_.ingest(*sync, sim_.now());
      }
    }
    if (any) state_changed_.notify_all();
  }

  sim::Task run_receiver(net::SimEndpoint* ep) {
    for (;;) {
      drain(ep);
      co_await ep->arrival_trigger().wait();
    }
  }

  sim::Task run_sender(MeshFlags* flags) {
    while (!flags->all_done()) {
      const Time now = sim_.now();
      bool dispatched = false;
      for (SiteId s = 0; s < cfg_.num_sites; ++s) {
        if (endpoints_[s] == nullptr) continue;
        if (auto msg = peer_.make_message(s, now)) {
          if (!dispatched && cfg_.sync.send_dispatch_delay > 0) {
            co_await sim_.sleep(cfg_.sync.send_dispatch_delay);
            dispatched = true;  // one thread handoff per flush, not per peer
          }
          core::encode_message_into(core::Message{*msg}, wire_scratch_);
          endpoints_[s]->send(wire_scratch_);
        }
      }
      co_await sim_.sleep(cfg_.sync.send_flush_period);
    }
  }

  sim::Task run_main(MeshFlags* flags) {
    if (site_ > 0 && cfg_.boot_stagger > 0) {
      co_await sim_.sleep(site_ * cfg_.boot_stagger);
    }
    const Dur deadline = cfg_.effective_watchdog();

    for (FrameNo frame = 0; frame < cfg_.frames; ++frame) {
      core::FrameRecord rec;
      rec.frame = frame;
      pacer_.begin_frame(sim_.now(), frame, peer_.remote_obs());
      rec.begin_time = sim_.now();

      const InputWord partial = pack_player_bits_n(
          static_cast<std::uint8_t>(input_.input_for_frame(frame) & 0xF), site_,
          cfg_.num_sites);
      peer_.submit_local(frame, partial);

      const Time sync_start = sim_.now();
      while (!peer_.ready()) {
        if (sim_.now() > deadline) {
          result_.aborted = true;
          result_.failure_reason = "mesh SyncInput watchdog expired";
          flags->done[site_] = true;
          co_return;
        }
        (void)co_await state_changed_.wait_until(sim_.now() + milliseconds(5));
      }
      rec.stall = sim_.now() - sync_start;
      rec.input_ready_time = sim_.now();

      game_.step_frame(peer_.pop());
      // The mesh has no HELLO/START handshake (shared config by
      // construction), so the digest version comes straight from config.
      rec.state_hash = game_.state_digest(cfg_.sync.digest_version());
      peer_.note_state_hash(frame, rec.state_hash);

      co_await sim_.sleep(cfg_.frame_compute_time);
      const Dur wait = pacer_.end_frame(sim_.now());
      rec.wait = wait;
      result_.timeline.add(rec);
      if (wait > 0) co_await sim_.sleep(wait);
    }
    flags->done[site_] = true;
  }

  sim::Simulator& sim_;
  const MeshExperimentConfig& cfg_;
  SiteId site_;
  std::unique_ptr<emu::IDeterministicGame> game_holder_;
  emu::IDeterministicGame& game_;
  core::SyncPeer peer_;
  core::FramePacer pacer_;
  core::MasherInput input_;
  sim::Trigger state_changed_;
  std::vector<net::SimEndpoint*> endpoints_;
  std::vector<std::uint8_t> wire_scratch_;  ///< reused encode buffer
  MeshSiteResult result_;
};

}  // namespace

bool MeshExperimentResult::converged() const {
  if (sites.empty()) return false;
  for (const auto& s : sites) {
    if (s.aborted || s.frames_completed != sites[0].frames_completed) return false;
  }
  return first_divergence() == -1;
}

FrameNo MeshExperimentResult::first_divergence() const {
  for (std::size_t i = 1; i < sites.size(); ++i) {
    const FrameNo d = core::first_divergence(sites[0].timeline, sites[i].timeline);
    if (d != -1) return d;
  }
  return -1;
}

double MeshExperimentResult::avg_frame_time_ms(int site) const {
  return sites[static_cast<std::size_t>(site)].timeline.frame_times().summarize().mean;
}

double MeshExperimentResult::frame_time_deviation_ms(int site) const {
  return sites[static_cast<std::size_t>(site)]
      .timeline.frame_times()
      .summarize()
      .mean_abs_deviation;
}

double MeshExperimentResult::worst_synchrony_ms() const {
  double worst = 0;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    for (std::size_t j = i + 1; j < sites.size(); ++j) {
      worst = std::max(worst, core::synchrony_differences(sites[i].timeline,
                                                          sites[j].timeline)
                                  .summarize()
                                  .mean_abs);
    }
  }
  return worst;
}

MeshExperimentResult run_mesh_experiment(const MeshExperimentConfig& cfg) {
  MeshExperimentResult out;
  if (16 % cfg.num_sites != 0 || cfg.num_sites < 2 || cfg.num_sites > 8) {
    return out;  // empty result: converged() == false
  }
  auto factory = cfg.game_factory;
  if (!factory) {
    if (cores::make_game(cfg.game) == nullptr) return out;
    factory = [name = cfg.game] { return cores::make_game(name); };
  }

  sim::Simulator sim;

  std::vector<std::unique_ptr<MeshSite>> sites;
  for (SiteId s = 0; s < cfg.num_sites; ++s) {
    sites.push_back(std::make_unique<MeshSite>(sim, cfg, s, factory()));
  }

  // Full mesh of duplex links, one per unordered pair.
  std::vector<std::unique_ptr<net::SimDuplexLink>> links;
  std::uint64_t link_seed = cfg.net_seed;
  for (SiteId i = 0; i < cfg.num_sites; ++i) {
    for (SiteId j = i + 1; j < cfg.num_sites; ++j) {
      links.push_back(std::make_unique<net::SimDuplexLink>(sim, cfg.net, ++link_seed));
      sites[i]->connect(j, links.back()->a());
      sites[j]->connect(i, links.back()->b());
    }
  }

  for (const auto& ev : cfg.net_events) {
    sim.schedule_at(ev.at, [&links, ev] {
      for (auto& l : links) {
        l->a().set_tx_config(ev.config);
        l->b().set_tx_config(ev.config);
      }
    });
  }

  MeshFlags flags;
  flags.done.assign(static_cast<std::size_t>(cfg.num_sites), false);
  for (auto& site : sites) site->launch(flags);
  sim.run();

  for (auto& site : sites) out.sites.push_back(site->take_result());
  return out;
}

}  // namespace rtct::testbed
