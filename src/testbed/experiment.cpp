#include "src/testbed/experiment.h"

#include <algorithm>
#include <memory>
#include <span>

#include "src/baseline/tcp_like.h"
#include "src/core/frame_loop.h"
#include "src/core/input_source.h"
#include "src/core/spectate.h"
#include "src/core/wire.h"
#include "src/cores/registry.h"
#include "src/net/sim_network.h"
#include "src/sim/simulator.h"
#include "src/sim/trigger.h"
#include "src/testbed/mesh_experiment.h"

namespace rtct::testbed {

namespace {

using Phase = core::FrameLoop::Phase;

struct SharedFlags {
  std::vector<bool> done;
  [[nodiscard]] bool all_done() const {
    return std::all_of(done.begin(), done.end(), [](bool d) { return d; });
  }
};

/// What one simulated site runs, from either harness's config.
struct SiteSpec {
  SiteId site = 0;
  int num_sites = 2;
  bool handshake = true;  ///< the mesh shares its config by construction
  core::SyncConfig sync;
  core::PacingPolicy pacing = core::PacingPolicy::kFull;
  int frames = 0;
  Dur boot_delay = 0;
  Dur compute_time = 0;  ///< virtual CPU cost of Transition + render
  Dur deadline = 0;      ///< the watchdog
  std::vector<ExperimentConfig::StallEvent> stalls;  ///< this site's, by `at`
};

/// Mesh players own a 4-bit direction nibble (quadtron's partition).
class NibbleInput final : public core::InputSource {
 public:
  NibbleInput(std::uint64_t seed, int hold_frames) : masher_(seed, hold_frames) {}
  std::uint8_t input_for_frame(FrameNo frame) override {
    return static_cast<std::uint8_t>(masher_.input_for_frame(frame) & 0xF);
  }

 private:
  core::MasherInput masher_;
};

/// One simulated gaming PC: a FrameLoop plus the processes that drive it —
/// the frame loop itself, a sender, and one receiver per peer endpoint.
class SimSite {
  /// Drop observers not heard from for this long (SpectatorClient
  /// keepalive-acks every 500 ms, so live ones always stay well inside).
  static constexpr Dur kObserverIdleTimeout = seconds(2);
  /// A link toward one peer or observer.
  struct Port {
    net::DatagramTransport* transport = nullptr;
    sim::Trigger* arrival = nullptr;
    core::SpectatorBroadcastHub::ObserverId id = 0;  ///< observers only
  };

 public:
  SimSite(sim::Simulator& sim, SiteSpec spec, std::unique_ptr<emu::IDeterministicGame> game,
          std::unique_ptr<core::InputSource> input)
      : sim_(sim),
        spec_(std::move(spec)),
        game_(std::move(game)),
        input_(std::move(input)),
        loop_(spec_.site, spec_.num_sites, *game_, *input_, spec_.sync, spec_.pacing,
              spec_.frames),
        peers_(static_cast<std::size_t>(spec_.num_sites)),
        state_changed_(sim) {
    if (!spec_.handshake) loop_.skip_handshake();
  }

  /// Wires the endpoint that reaches `peer`.
  void connect(SiteId peer, net::DatagramTransport& transport, sim::Trigger& arrival) {
    peers_[peer] = Port{&transport, &arrival};
  }

  /// Registers a spectator feed toward one observer (host side). Call
  /// before launch().
  void add_observer_port(net::DatagramTransport& transport, sim::Trigger& arrival) {
    observers_.push_back(Port{&transport, &arrival, loop_.spectators().add_observer()});
  }

  void launch(SharedFlags& flags) {
    sim_.spawn(run_main(&flags));
    sim_.spawn(run_sender(&flags));
    for (auto& port : peers_) {
      if (port.transport != nullptr) sim_.spawn(run_receiver(port));
    }
    for (auto& port : observers_) sim_.spawn(run_observer_receiver(port));
  }

  SiteResult take_result() {
    result_.timeline = loop_.timeline();
    result_.replay = std::move(loop_.replay());
    const core::SyncPeer& peer = loop_.peer();
    result_.sync_stats = peer.stats();
    // The local lag the session ran with: negotiated lag or rollback delay.
    result_.buf_frames = peer.config().buf_frames;
    result_.frames_completed = static_cast<FrameNo>(result_.timeline.size());
    result_.desync_frame = peer.desync_frame();
    result_.rollback_mode = loop_.rollback() != nullptr;
    if (result_.rollback_mode) result_.rollback_stats = loop_.rollback()->rollback_stats();
    if (const auto* r = game_->renderable()) {
      const auto fb = r->framebuffer();
      result_.final_framebuffer.assign(fb.begin(), fb.end());
      result_.fb_cols = r->fb_cols();
      result_.fb_rows = r->fb_rows();
    }
    return std::move(result_);
  }

 private:
  sim::Task run_receiver(Port& port) {
    // Drain-first so nothing that arrived before this process started is
    // missed; every later delivery fires the arrival trigger.
    for (;;) {
      bool any = false;
      while (auto payload = port.transport->try_recv()) {
        any = true;
        loop_.on_datagram(*payload, sim_.now());
      }
      if (any) state_changed_.notify_all();
      co_await port.arrival->wait();
    }
  }

  sim::Task run_sender(SharedFlags* flags) {
    while (!flags->all_done()) {
      const Time now = sim_.now();
      // Session messages (handshake) go out unbatched: the game has not
      // started, so there is no interactivity to protect.
      if (auto m = loop_.session_datagram(now)) {
        for (auto& port : peers_) {
          if (port.transport != nullptr) port.transport->send(*m);
        }
      }
      bool dispatched = false;
      for (SiteId s = 0; s < spec_.num_sites; ++s) {
        if (peers_[s].transport == nullptr) continue;
        if (auto msg = loop_.sync_datagram(s, now)) {
          // The producer/consumer thread handoff of §4.2 (~5 ms mean), once
          // per flush, not per peer.
          if (!dispatched && spec_.sync.send_dispatch_delay > 0) {
            co_await sim_.sleep(spec_.sync.send_dispatch_delay);
            dispatched = true;
          }
          peers_[s].transport->send(*msg);
        }
      }
      pump_observer_ports();
      co_await sim_.sleep(spec_.sync.send_flush_period);
    }
    // Grace period: keep serving observers (snapshot/feed retransmits)
    // briefly after the match so late joiners can finish catching up.
    for (int tick = 0; tick < 100 && !observers_.empty(); ++tick) {
      pump_observer_ports();
      co_await sim_.sleep(spec_.sync.send_flush_period);
    }
  }

  void pump_observer_ports() {
    if (observers_.empty()) return;
    const Time now = sim_.now();
    core::SpectatorBroadcastHub& hub = loop_.spectators();
    // Reap observers that stopped talking (churned leavers): a dead
    // cursor must not pin the hub's trim watermark. A live observer
    // wrongly reaped re-registers on its next datagram (see
    // run_observer_receiver) — and keepalive acks make that rare.
    (void)hub.remove_idle(now, kObserverIdleTimeout);
    // Coroutines only interleave at co_await points, so the machine is
    // always between frames here.
    loop_.offer_spectator_snapshot();
    for (auto& port : observers_) {
      if (auto buf = hub.make_message(port.id, now)) port.transport->send(*buf);
    }
  }

  sim::Task run_observer_receiver(Port& port) {
    core::SpectatorBroadcastHub& hub = loop_.spectators();
    for (;;) {
      while (auto payload = port.transport->try_recv()) {
        if (auto msg = core::decode_message(*payload)) {
          // An endpoint the idle reaper dropped re-registers under a
          // fresh id (cursor state restarts from the snapshot path).
          if (!hub.observer_active(port.id)) port.id = hub.add_observer(sim_.now());
          hub.ingest(port.id, *msg, sim_.now());
        }
      }
      co_await port.arrival->wait();
    }
  }

  /// Serves any stall event whose start time has passed (in `at` order).
  [[nodiscard]] Dur pending_stall() {
    Dur freeze = 0;
    while (next_stall_ < spec_.stalls.size() &&
           sim_.now() + freeze >= spec_.stalls[next_stall_].at) {
      freeze += spec_.stalls[next_stall_].duration;
      ++next_stall_;
    }
    return freeze;
  }

  [[nodiscard]] const char* watchdog_failure(Phase phase) const {
    if (phase == Phase::kHandshake) return "handshake watchdog expired";
    if (phase == Phase::kConfirm) return "rollback confirmation drain timed out";
    return loop_.rollback() != nullptr
               ? "rollback speculation watchdog expired (peer or network gone)"
               : "SyncInput watchdog expired (peer or network gone)";
  }

  sim::Task run_main(SharedFlags* flags) {
    if (spec_.boot_delay > 0) co_await sim_.sleep(spec_.boot_delay);
    for (;;) {
      const core::LoopWait w = loop_.step(sim_.now());
      const Phase phase = loop_.phase();
      if (w.kind == core::LoopWait::Kind::kSleep) {
        if (phase == Phase::kCompute) {
          co_await sim_.sleep(spec_.compute_time);  // emulation + render cost
        } else if (const Dur d = phase == Phase::kFrameStart ? pending_stall()
                                                             : w.until - sim_.now();
                   d > 0) {
          co_await sim_.sleep(d);  // a scheduled freeze, or the pacer's wait
        }
        continue;
      }
      // The lame duck ends at once: the sender keeps flushing to every
      // peer until all sites are done.
      if (w.kind == core::LoopWait::Kind::kNetwork && phase != Phase::kLameDuck) {
        if (sim_.now() <= spec_.deadline) {
          (void)co_await state_changed_.wait_until(sim_.now() + milliseconds(5));
          continue;
        }
        result_.aborted = true;
        result_.failure_reason = watchdog_failure(phase);
      } else if (w.kind == core::LoopWait::Kind::kFailed) {
        result_.session_failed = true;
        result_.failure_reason = loop_.session().failure_reason();
      }
      flags->done[static_cast<std::size_t>(spec_.site)] = true;
      co_return;
    }
  }

  sim::Simulator& sim_;
  SiteSpec spec_;
  std::size_t next_stall_ = 0;
  std::unique_ptr<emu::IDeterministicGame> game_;
  std::unique_ptr<core::InputSource> input_;
  core::FrameLoop loop_;
  std::vector<Port> peers_;  ///< indexed by site; own entry unused
  std::vector<Port> observers_;  ///< fixed once launched (receivers hold references)
  sim::Trigger state_changed_;
  SiteResult result_;
};

/// A late-joining observer: its own replica machine + SpectatorClient,
/// talking to site 0 over its own simulated link.
class SimObserver {
 public:
  SimObserver(sim::Simulator& sim, net::SimEndpoint& ep, const ExperimentConfig& cfg,
              int index, std::unique_ptr<emu::IDeterministicGame> game)
      : sim_(sim), ep_(ep), cfg_(cfg), index_(index), game_holder_(std::move(game)),
        game_(*game_holder_), client_(game_, cfg.sync) {}

  void launch(SharedFlags& flags) { sim_.spawn(run(&flags)); }

  ObserverResult take_result() { return std::move(result_); }

 private:
  [[nodiscard]] Dur join_delay() const {
    const auto i = static_cast<std::size_t>(index_);
    return i < cfg_.observer_join_delays.size() ? cfg_.observer_join_delays[i]
                                                : cfg_.observer_join_delay;
  }
  [[nodiscard]] Dur leave_after() const {
    const auto i = static_cast<std::size_t>(index_);
    return i < cfg_.observer_leave_after.size() ? cfg_.observer_leave_after[i] : 0;
  }

  sim::Task run(SharedFlags* flags) {
    co_await sim_.sleep(join_delay());
    const Time watch_start = sim_.now();
    const Dur watch_for = leave_after();
    Time done_at = -1;
    for (;;) {
      const Time now = sim_.now();
      if (watch_for > 0 && now - watch_start >= watch_for) {
        result_.left = true;  // churn: walk away mid-feed, no goodbye
        break;
      }
      if (flags->all_done()) {
        if (done_at < 0) done_at = now;
        if (now - done_at > seconds(1)) break;  // grace to finish catching up
      }
      if (auto m = client_.make_message(now)) {
        core::encode_message_into(*m, wire_scratch_);
        ep_.send(wire_scratch_);
      }
      while (auto payload = ep_.try_recv()) {
        if (core::decode_message_into(*payload, msg_in_)) {
          const bool was_joined = client_.joined();
          client_.ingest(msg_in_);
          if (!was_joined && client_.joined()) {
            result_.joined = true;
            result_.snapshot_frame = client_.applied_frame();
          }
        }
      }
      while (client_.step_one()) {
        result_.hashes.emplace_back(client_.applied_frame(),
                                    game_.state_digest(emu::kStateDigestVersion));
      }
      result_.last_applied = client_.applied_frame();
      (void)co_await ep_.arrival_trigger().wait_until(now + cfg_.sync.send_flush_period);
    }
  }

  sim::Simulator& sim_;
  net::SimEndpoint& ep_;
  const ExperimentConfig& cfg_;
  int index_;
  std::unique_ptr<emu::IDeterministicGame> game_holder_;
  emu::IDeterministicGame& game_;
  core::SpectatorClient client_;
  std::vector<std::uint8_t> wire_scratch_;  ///< reused encode buffer
  core::Message msg_in_;                    ///< reused decode target
  ObserverResult result_;
};

using GameFactory = std::function<std::unique_ptr<emu::IDeterministicGame>()>;

/// The harness's game factory: the config's own, or the registry's.
GameFactory resolve_factory(const GameFactory& configured, const std::string& game) {
  if (configured) return configured;
  if (!cores::has_game(game)) return nullptr;
  return [game] { return cores::make_game(game); };
}

// ---- the paper's metrics, shared by both harnesses ---------------------------

/// First frame at which any site's hash differs from site 0's (-1 never).
FrameNo divergence(std::span<const SiteResult> sites) {
  for (std::size_t i = 1; i < sites.size(); ++i) {
    const FrameNo d = core::first_divergence(sites[0].timeline, sites[i].timeline);
    if (d != -1) return d;
  }
  return -1;
}

bool all_converged(std::span<const SiteResult> sites) {
  for (const auto& s : sites) {
    if (s.aborted || s.session_failed || s.frames_completed != sites[0].frames_completed) {
      return false;
    }
  }
  return divergence(sites) == -1;
}

/// Figure 1's two statistics of one site's frame times.
Summary frame_time_summary(const core::FrameTimeline& t) { return t.frame_times().summarize(); }

/// Figure 2's statistic, worst over every pair of sites.
double worst_synchrony(std::span<const SiteResult> sites) {
  double worst = 0;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    for (std::size_t j = i + 1; j < sites.size(); ++j) {
      worst = std::max(worst, core::synchrony_differences(sites[i].timeline, sites[j].timeline)
                                  .summarize()
                                  .mean_abs);
    }
  }
  return worst;
}

}  // namespace

bool ExperimentResult::converged() const { return all_converged(site); }
FrameNo ExperimentResult::first_divergence() const { return divergence(site); }
double ExperimentResult::avg_frame_time_ms(int i) const {
  return frame_time_summary(site[i].timeline).mean;
}
double ExperimentResult::frame_time_deviation_ms(int i) const {
  return frame_time_summary(site[i].timeline).mean_abs_deviation;
}
double ExperimentResult::synchrony_ms() const { return worst_synchrony(site); }

bool MeshExperimentResult::converged() const { return !sites.empty() && all_converged(sites); }
FrameNo MeshExperimentResult::first_divergence() const { return divergence(sites); }
double MeshExperimentResult::avg_frame_time_ms(int i) const {
  return frame_time_summary(sites[static_cast<std::size_t>(i)].timeline).mean;
}
double MeshExperimentResult::frame_time_deviation_ms(int i) const {
  return frame_time_summary(sites[static_cast<std::size_t>(i)].timeline).mean_abs_deviation;
}
double MeshExperimentResult::worst_synchrony_ms() const { return worst_synchrony(sites); }

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  ExperimentResult out;
  const GameFactory factory = resolve_factory(cfg.game_factory, cfg.game);
  if (!factory) {
    for (auto& s : out.site) {
      s.session_failed = true;
      s.failure_reason = "unknown game '" + cfg.game + "'";
    }
    return out;
  }

  sim::Simulator sim;
  net::SimDuplexLink link(sim, cfg.net_a_to_b, cfg.net_b_to_a, cfg.net_seed);

  // Optional TCP-like reliable in-order layer (ablation_transport).
  std::unique_ptr<baseline::TcpLikeEndpoint> tcp[2];
  net::DatagramTransport* transport[2] = {&link.a(), &link.b()};
  sim::Trigger* arrival[2] = {&link.a().arrival_trigger(), &link.b().arrival_trigger()};
  if (cfg.transport == ExperimentConfig::Transport::kTcpLike) {
    Dur rto = cfg.tcp_rto;
    if (rto <= 0) {
      rto = 2 * std::max(cfg.net_a_to_b.delay, cfg.net_b_to_a.delay) + milliseconds(20);
    }
    tcp[0] = std::make_unique<baseline::TcpLikeEndpoint>(sim, link.a(), rto);
    tcp[1] = std::make_unique<baseline::TcpLikeEndpoint>(sim, link.b(), rto);
    for (int s = 0; s < 2; ++s) {
      transport[s] = tcp[s].get();
      arrival[s] = &tcp[s]->deliverable_trigger();
    }
  }

  SharedFlags flags;
  flags.done.assign(2, false);
  std::unique_ptr<SimSite> sites[2];
  for (SiteId s = 0; s < 2; ++s) {
    SiteSpec spec{s, 2, true, cfg.sync, cfg.pacing[s], cfg.frames, cfg.site_boot_delay[s],
                  cfg.frame_compute_time, cfg.effective_watchdog(), {}};
    for (const auto& ev : cfg.stall_events) {
      if (ev.site == s && ev.duration > 0) spec.stalls.push_back(ev);
    }
    std::sort(spec.stalls.begin(), spec.stalls.end(),
              [](const auto& a, const auto& b) { return a.at < b.at; });
    sites[s] = std::make_unique<SimSite>(
        sim, std::move(spec), factory(),
        std::make_unique<core::MasherInput>(cfg.input_seed[s], cfg.input_hold_frames));
    sites[s]->connect(1 - s, *transport[s], *arrival[s]);
  }

  // Late-join observers, each on its own link to site 0.
  std::vector<std::unique_ptr<net::SimDuplexLink>> observer_links;
  std::vector<std::unique_ptr<SimObserver>> observers;
  for (int i = 0; i < cfg.observers; ++i) {
    observer_links.push_back(std::make_unique<net::SimDuplexLink>(
        sim, cfg.observer_net, cfg.net_seed + 1000 + static_cast<std::uint64_t>(i)));
    auto& obs_link = *observer_links.back();
    sites[0]->add_observer_port(obs_link.a(), obs_link.a().arrival_trigger());
    observers.push_back(std::make_unique<SimObserver>(sim, obs_link.b(), cfg, i, factory()));
  }

  using Dir = ExperimentConfig::NetEvent::Dir;
  for (const auto& ev : cfg.net_events) {
    sim.schedule_at(ev.at, [&link, ev] {
      if (ev.dir != Dir::kBToA) link.a().set_tx_config(ev.config);
      if (ev.dir != Dir::kAToB) link.b().set_tx_config(ev.config);
    });
  }

  for (auto& site : sites) site->launch(flags);
  for (auto& obs : observers) obs->launch(flags);
  sim.run();

  out.site[0] = sites[0]->take_result();
  out.site[1] = sites[1]->take_result();
  out.site[0].tx_stats = link.a().tx_stats();
  out.site[1].tx_stats = link.b().tx_stats();
  for (auto& obs : observers) out.observers.push_back(obs->take_result());
  return out;
}

MeshExperimentResult run_mesh_experiment(const MeshExperimentConfig& cfg) {
  MeshExperimentResult out;
  if (16 % cfg.num_sites != 0 || cfg.num_sites < 2 || cfg.num_sites > 8) {
    return out;  // empty result: converged() == false
  }
  const GameFactory factory = resolve_factory(cfg.game_factory, cfg.game);
  if (!factory) return out;

  sim::Simulator sim;
  std::vector<std::unique_ptr<SimSite>> sites;
  for (SiteId s = 0; s < cfg.num_sites; ++s) {
    SiteSpec spec{s, cfg.num_sites, false, cfg.sync, core::PacingPolicy::kFull, cfg.frames,
                  s * cfg.boot_stagger, cfg.frame_compute_time, cfg.effective_watchdog(), {}};
    sites.push_back(std::make_unique<SimSite>(
        sim, std::move(spec), factory(),
        std::make_unique<NibbleInput>(cfg.input_seed_base + static_cast<std::uint64_t>(s),
                                      cfg.input_hold_frames)));
  }

  // Full mesh of duplex links, one per unordered pair.
  std::vector<std::unique_ptr<net::SimDuplexLink>> links;
  std::uint64_t link_seed = cfg.net_seed;
  for (SiteId i = 0; i < cfg.num_sites; ++i) {
    for (SiteId j = i + 1; j < cfg.num_sites; ++j) {
      links.push_back(std::make_unique<net::SimDuplexLink>(sim, cfg.net, ++link_seed));
      sites[i]->connect(j, links.back()->a(), links.back()->a().arrival_trigger());
      sites[j]->connect(i, links.back()->b(), links.back()->b().arrival_trigger());
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

  SharedFlags flags;
  flags.done.assign(static_cast<std::size_t>(cfg.num_sites), false);
  for (auto& site : sites) site->launch(flags);
  sim.run();

  for (auto& site : sites) out.sites.push_back(site->take_result());
  return out;
}

bool ExperimentResult::observers_consistent() const {
  for (const auto& obs : observers) {
    if (!obs.joined) return false;
    // Caught up to within a handful of frames of the session's end —
    // unless it left mid-session, in which case only the frames it did
    // replay are held to consistency below.
    if (!obs.left && obs.last_applied < site[0].frames_completed - 5) return false;
    for (const auto& [frame, hash] : obs.hashes) {
      if (frame < 0 || frame >= static_cast<FrameNo>(site[0].timeline.size())) return false;
      if (site[0].timeline.records()[static_cast<std::size_t>(frame)].state_hash != hash) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace rtct::testbed
