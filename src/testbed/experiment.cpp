#include "src/testbed/experiment.h"

#include <algorithm>
#include <memory>

#include "src/common/log.h"
#include "src/core/input_source.h"
#include "src/core/rollback.h"
#include "src/core/session.h"
#include "src/core/spectate.h"
#include "src/core/wire.h"
#include "src/cores/registry.h"
#include "src/baseline/tcp_like.h"
#include "src/net/sim_network.h"
#include "src/sim/simulator.h"
#include "src/sim/trigger.h"

namespace rtct::testbed {

namespace {

using core::Message;
using core::SyncMsg;

struct SharedFlags {
  bool done[2] = {false, false};
  [[nodiscard]] bool all_done() const { return done[0] && done[1]; }
};

/// One simulated gaming PC: machine + sync module + three processes.
class SimSite {
  /// Drop observers not heard from for this long (SpectatorClient
  /// keepalive-acks every 500 ms, so live ones always stay well inside).
  static constexpr Dur kObserverIdleTimeout = seconds(2);
  /// Transport toward one observer; the protocol state for ALL observers
  /// lives in the shared SpectatorBroadcastHub (one backlog ring, one
  /// encoded snapshot, per-observer ack cursors).
  struct ObserverPort {
    net::DatagramTransport* transport;
    sim::Trigger* arrival;
    core::SpectatorBroadcastHub::ObserverId id;
  };

 public:
  SimSite(sim::Simulator& sim, net::DatagramTransport& transport, sim::Trigger& arrival,
          const ExperimentConfig& cfg, SiteId site,
          std::unique_ptr<emu::IDeterministicGame> game)
      : sim_(sim),
        transport_(transport),
        arrival_(arrival),
        cfg_(cfg),
        site_(site),
        game_holder_(std::move(game)),
        game_(*game_holder_),
        peer_(site, cfg.sync),
        pacer_(cfg.sync, cfg.pacing[site]),
        session_(site, game_.content_id(), cfg.sync),
        spectator_hub_(game_.content_id(), cfg.sync),
        input_(cfg.input_seed[site], cfg.input_hold_frames),
        state_changed_(sim) {
    digest_version_ = cfg.sync.digest_version();
    result_.timeline.reserve(static_cast<std::size_t>(cfg.frames));
    result_.replay = core::Replay(game_.content_id(), cfg.sync, game_.content_name());
  }

  void launch(SharedFlags& flags) {
    sim_.spawn(run_main(&flags));
    sim_.spawn(run_sender(&flags));
    sim_.spawn(run_receiver());
    for (auto& port : observer_ports_) sim_.spawn(run_observer_receiver(port.get()));
  }

  /// Registers a spectator feed toward one observer (host side).
  void add_observer_port(net::DatagramTransport& transport, sim::Trigger& arrival) {
    auto port = std::make_unique<ObserverPort>(
        ObserverPort{&transport, &arrival, spectator_hub_.add_observer()});
    observer_ports_.push_back(std::move(port));
  }

  [[nodiscard]] const SiteResult& result() const { return result_; }
  SiteResult take_result(const net::LinkStats& tx_stats) {
    result_.sync_stats = peer_.stats();
    result_.tx_stats = tx_stats;
    // The local lag the session ran with: negotiated lag or rollback delay.
    result_.buf_frames = peer_.config().buf_frames;
    result_.frames_completed = static_cast<FrameNo>(result_.timeline.size());
    result_.desync_frame = peer_.desync_frame();
    result_.rollback_mode = rollback_ != nullptr;
    if (rollback_) result_.rollback_stats = rollback_->rollback_stats();
    if (const auto* r = game_.renderable()) {
      const auto fb = r->framebuffer();
      result_.final_framebuffer.assign(fb.begin(), fb.end());
      result_.fb_cols = r->fb_cols();
      result_.fb_rows = r->fb_rows();
    }
    return std::move(result_);
  }

 private:
  void send(const Message& msg) {
    core::encode_message_into(msg, wire_scratch_);
    transport_.send(wire_scratch_);
  }

  void drain_and_dispatch() {
    bool any = false;
    while (auto payload = transport_.try_recv()) {
      any = true;
      const auto msg = core::decode_message(*payload);
      if (!msg) continue;  // malformed datagram: drop, UDP-style
      if (const auto* sync = std::get_if<SyncMsg>(&*msg)) {
        session_.note_sync_traffic(sim_.now());
        // Sync traffic arriving before the handshake settled (e.g. the
        // peer is already running but our START is in flight) is dropped:
        // the negotiated lag must be locked in before the first ingest.
        // Reliability above re-delivers whatever was in the message.
        if (session_.running()) {
          apply_negotiated_lag();
          peer_.ingest(*sync, sim_.now());
        }
      } else {
        session_.ingest(*msg, sim_.now());
      }
    }
    if (any) state_changed_.notify_all();
  }

  /// Locks the handshake-negotiated local lag into the sync state.
  /// Idempotent; must run after running() turns true and before the first
  /// submit/ingest/flush. With the fixed paper policy it is a no-op.
  void apply_negotiated_lag() {
    if (lag_applied_) return;
    lag_applied_ = true;
    digest_version_ = session_.digest_version();
    // The recording is rebuilt with the *effective* config either way: the
    // negotiated digest version stamps the replay's keyframe digests.
    core::SyncConfig eff = cfg_.sync;
    eff.digest_v2 = digest_version_ == 2;
    if (session_.rollback_mode()) {
      // v3: both sites opted into rollback. The RollbackSession consumes
      // the peer speculatively; construct it with the *effective* config
      // (negotiated digest version + input delay) before any frame
      // executes, so it captures the genesis state.
      eff.rollback_input_delay = session_.rollback_delay();
      rollback_ = std::make_unique<core::RollbackSession>(peer_, game_, eff);
    } else {
      eff.buf_frames = session_.effective_buf_frames();
      peer_.set_buf_frames(eff.buf_frames);
    }
    result_.replay = core::Replay(game_.content_id(), eff, game_.content_name());
  }

  void finish(SharedFlags* flags) { flags->done[site_] = true; }

  /// Rollback mode: feeds frames newly promoted to *confirmed* into the
  /// replay recording and the spectator hub — only confirmed frames are
  /// part of the session's canonical history.
  void record_confirmed() {
    const FrameNo confirmed = rollback_->confirmed_frames();
    for (; rb_recorded_ < confirmed; ++rb_recorded_) {
      const InputWord merged = rollback_->confirmed_input(rb_recorded_);
      result_.replay.record(merged);
      spectator_hub_.on_frame(rb_recorded_, merged);
    }
    // Keyframes come from the confirmed snapshot only (the live machine is
    // speculative), so a rollback recording bisects over confirmed frames.
    if (rb_recorded_ > 0 && result_.replay.keyframe_due()) {
      result_.replay.record_keyframe_raw(rb_recorded_ - 1,
                                         rollback_->confirmed_digest(rb_recorded_ - 1),
                                         rollback_->confirmed_state());
    }
  }

  sim::Task run_receiver() {
    // Drain-first so nothing that arrived before this process started is
    // missed; every later delivery fires the arrival trigger.
    for (;;) {
      drain_and_dispatch();
      co_await arrival_.wait();
    }
  }

  sim::Task run_sender(SharedFlags* flags) {
    while (!flags->all_done()) {
      const Time now = sim_.now();
      // Session messages (handshake) go out unbatched: the game has not
      // started, so there is no interactivity to protect.
      if (auto m = session_.poll(now)) send(*m);

      if (session_.running()) {
        apply_negotiated_lag();
        if (auto msg = peer_.make_message(1 - site_, now)) {
          // The producer/consumer thread handoff of §4.2 (~5 ms mean).
          if (cfg_.sync.send_dispatch_delay > 0) {
            co_await sim_.sleep(cfg_.sync.send_dispatch_delay);
          }
          send(Message{*msg});
        }
      }
      pump_observer_ports();
      co_await sim_.sleep(cfg_.sync.send_flush_period);
    }
    // Grace period: keep serving observers (snapshot/feed retransmits)
    // briefly after the match so late joiners can finish catching up.
    for (int tick = 0; tick < 100 && !observer_ports_.empty(); ++tick) {
      pump_observer_ports();
      co_await sim_.sleep(cfg_.sync.send_flush_period);
    }
  }

  void pump_observer_ports() {
    if (observer_ports_.empty()) return;
    const Time now = sim_.now();
    // Reap observers that stopped talking (churned leavers): a dead
    // cursor must not pin the hub's trim watermark. A live observer
    // wrongly reaped re-registers on its next datagram (see
    // run_observer_receiver) — and keepalive acks make that rare.
    (void)spectator_hub_.remove_idle(now, kObserverIdleTimeout);
    // Same gate as RealtimeSession::pump_spectators: never serve a
    // "frame -1" snapshot — defer joins until frame 0 has executed.
    if (spectator_hub_.wants_snapshot()) {
      if (rollback_ != nullptr) {
        // Rollback: only *confirmed* state is canonical — the live
        // machine is speculative and may yet be rolled back.
        if (rollback_->confirmed_frames() > 0) {
          spectator_hub_.provide_snapshot(rollback_->confirmed_frames() - 1,
                                          rollback_->confirmed_state());
        }
      } else if (game_.frame() > 0) {
        // Coroutines only interleave at co_await points, so the machine is
        // always between frames here — a consistent snapshot.
        game_.save_state_into(snapshot_scratch_);
        spectator_hub_.provide_snapshot(game_.frame() - 1, snapshot_scratch_);
      }
    }
    for (auto& port : observer_ports_) {
      if (auto buf = spectator_hub_.make_message(port->id, now)) {
        port->transport->send(*buf);
      }
    }
  }

  sim::Task run_observer_receiver(ObserverPort* port) {
    for (;;) {
      while (auto payload = port->transport->try_recv()) {
        if (auto msg = core::decode_message(*payload)) {
          // An endpoint the idle reaper dropped re-registers under a
          // fresh id (cursor state restarts from the snapshot path).
          if (!spectator_hub_.observer_active(port->id)) {
            port->id = spectator_hub_.add_observer(sim_.now());
          }
          spectator_hub_.ingest(port->id, *msg, sim_.now());
        }
      }
      co_await port->arrival->wait();
    }
  }

  /// Serves any stall event whose start time has passed (in `at` order).
  /// Returns the total freeze applied so run_main can co_await it.
  [[nodiscard]] Dur pending_stall() {
    Dur freeze = 0;
    while (next_stall_ < stalls_.size() && sim_.now() + freeze >= stalls_[next_stall_].at) {
      freeze += stalls_[next_stall_].duration;
      ++next_stall_;
    }
    return freeze;
  }

  sim::Task run_main(SharedFlags* flags) {
    if (cfg_.site_boot_delay[site_] > 0) co_await sim_.sleep(cfg_.site_boot_delay[site_]);
    for (const auto& ev : cfg_.stall_events) {
      if (ev.site == site_ && ev.duration > 0) stalls_.push_back(ev);
    }
    std::sort(stalls_.begin(), stalls_.end(),
              [](const auto& a, const auto& b) { return a.at < b.at; });
    const Dur deadline = cfg_.effective_watchdog();

    // ---- session handshake -------------------------------------------
    while (!session_.running()) {
      if (session_.state() == core::SessionState::kFailed) {
        result_.session_failed = true;
        result_.failure_reason = session_.failure_reason();
        finish(flags);
        co_return;
      }
      if (sim_.now() > deadline) {
        result_.aborted = true;
        result_.failure_reason = "handshake watchdog expired";
        finish(flags);
        co_return;
      }
      (void)co_await state_changed_.wait_until(sim_.now() + milliseconds(5));
    }
    apply_negotiated_lag();

    // ---- rollback consistency mode ------------------------------------
    if (rollback_ != nullptr) {
      auto& rb = *rollback_;
      for (FrameNo frame = 0; frame < cfg_.frames; ++frame) {
        if (const Dur freeze = pending_stall(); freeze > 0) co_await sim_.sleep(freeze);
        core::FrameRecord rec;
        rec.frame = frame;

        pacer_.begin_frame(sim_.now(), frame, peer_.remote_obs());
        rec.begin_time = sim_.now();

        const InputWord local =
            site_ == 0 ? make_input(input_.input_for_frame(frame), 0)
                       : make_input(0, input_.input_for_frame(frame));

        // Rollback never stalls on a *late* remote input — it predicts.
        // The only wait is the ring bound: speculation may not outrun the
        // confirmed watermark by more than window - 2 frames.
        const Time sync_start = sim_.now();
        while (!rb.can_advance()) {
          if (sim_.now() > deadline) {
            result_.aborted = true;
            result_.failure_reason =
                "rollback speculation watchdog expired (peer or network gone)";
            finish(flags);
            co_return;
          }
          (void)co_await state_changed_.wait_until(sim_.now() + milliseconds(5));
          rb.reconcile();
        }
        rec.stall = sim_.now() - sync_start;
        rec.input_ready_time = sim_.now();

        const auto out = rb.advance_frame(local);
        // Speculative digest for now; the canonical confirmed digests are
        // backfilled over the timeline after the run.
        rec.state_hash = out.digest;
        record_confirmed();

        rec.compute = cfg_.frame_compute_time;
        co_await sim_.sleep(cfg_.frame_compute_time);

        const Dur wait = pacer_.end_frame(sim_.now());
        rec.wait = wait;
        result_.timeline.add(rec);
        if (wait > 0) co_await sim_.sleep(wait);
      }

      // Confirmation drain: every frame has executed; hold the site alive
      // until the tail is confirmed (the receiver keeps ingesting, the
      // sender keeps flushing acks/retransmits while the peer finishes).
      while (rb.confirmed_frames() < cfg_.frames) {
        if (sim_.now() > deadline) {
          result_.aborted = true;
          result_.failure_reason = "rollback confirmation drain timed out";
          finish(flags);
          co_return;
        }
        rb.reconcile();
        record_confirmed();
        if (rb.confirmed_frames() >= cfg_.frames) break;
        (void)co_await state_changed_.wait_until(sim_.now() + milliseconds(5));
      }
      record_confirmed();
      // Canonical history: replace each frame's speculative digest with
      // the confirmed one (what the desync tripwire and replays compare).
      for (std::size_t i = 0; i < result_.timeline.size(); ++i) {
        result_.timeline.set_state_hash(i, rb.confirmed_digest(static_cast<FrameNo>(i)));
      }
      finish(flags);
      co_return;
    }

    // ---- Algorithm 1: the distributed VM frame loop -------------------
    for (FrameNo frame = 0; frame < cfg_.frames; ++frame) {
      if (const Dur freeze = pending_stall(); freeze > 0) co_await sim_.sleep(freeze);
      core::FrameRecord rec;
      rec.frame = frame;

      pacer_.begin_frame(sim_.now(), frame, peer_.remote_obs());  // step 5
      rec.begin_time = sim_.now();

      const InputWord local =
          site_ == 0 ? make_input(input_.input_for_frame(frame), 0)
                     : make_input(0, input_.input_for_frame(frame));
      peer_.submit_local(frame, local);  // step 7, lines 1-5

      const Time sync_start = sim_.now();  // step 7, the blocking loop
      while (!peer_.ready()) {
        if (sim_.now() > deadline) {
          result_.aborted = true;
          result_.failure_reason = "SyncInput watchdog expired (peer or network gone)";
          finish(flags);
          co_return;
        }
        (void)co_await state_changed_.wait_until(sim_.now() + milliseconds(5));
      }
      rec.stall = sim_.now() - sync_start;
      rec.input_ready_time = sim_.now();

      const InputWord merged = peer_.pop();
      game_.step_frame(merged);  // step 8: Transition(I, S)
      result_.replay.record(merged);
      if (result_.replay.keyframe_due()) result_.replay.record_keyframe(game_);
      rec.state_hash = game_.state_digest(digest_version_);
      peer_.note_state_hash(frame, rec.state_hash);  // desync tripwire
      spectator_hub_.on_frame(frame, merged);

      // Emulation + render cost of this frame.
      rec.compute = cfg_.frame_compute_time;
      co_await sim_.sleep(cfg_.frame_compute_time);

      const Dur wait = pacer_.end_frame(sim_.now());  // step 10
      rec.wait = wait;
      result_.timeline.add(rec);
      if (wait > 0) co_await sim_.sleep(wait);
    }
    finish(flags);
  }

  sim::Simulator& sim_;
  net::DatagramTransport& transport_;
  sim::Trigger& arrival_;
  const ExperimentConfig& cfg_;
  SiteId site_;
  bool lag_applied_ = false;
  int digest_version_ = 1;  ///< locked in with the handshake outcome
  std::vector<ExperimentConfig::StallEvent> stalls_;  ///< this site's, by `at`
  std::size_t next_stall_ = 0;
  std::vector<std::unique_ptr<ObserverPort>> observer_ports_;
  std::vector<std::uint8_t> wire_scratch_;      ///< reused encode buffer
  std::vector<std::uint8_t> snapshot_scratch_;  ///< reused save_state buffer
  std::unique_ptr<emu::IDeterministicGame> game_holder_;
  emu::IDeterministicGame& game_;
  core::SyncPeer peer_;
  core::FramePacer pacer_;
  core::SessionControl session_;
  std::unique_ptr<core::RollbackSession> rollback_;  ///< non-null iff rollback mode
  FrameNo rb_recorded_ = 0;  ///< confirmed frames fed to replay/spectators
  core::SpectatorBroadcastHub spectator_hub_;
  core::MasherInput input_;
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
        if (auto msg = core::decode_message(*payload)) {
          const bool was_joined = client_.joined();
          client_.ingest(*msg);
          if (!was_joined && client_.joined()) {
            result_.joined = true;
            result_.snapshot_frame = client_.applied_frame();
          }
        }
      }
      while (client_.step_one()) {
        result_.hashes.emplace_back(client_.applied_frame(),
                                    game_.state_digest(cfg_.sync.digest_version()));
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
  ObserverResult result_;
};

}  // namespace

bool ExperimentResult::converged() const {
  for (const auto& s : site) {
    if (s.aborted || s.session_failed) return false;
  }
  return site[0].frames_completed == site[1].frames_completed && first_divergence() == -1;
}

FrameNo ExperimentResult::first_divergence() const {
  return core::first_divergence(site[0].timeline, site[1].timeline);
}

double ExperimentResult::avg_frame_time_ms(int site_idx) const {
  return site[site_idx].timeline.frame_times().summarize().mean;
}

double ExperimentResult::frame_time_deviation_ms(int site_idx) const {
  return site[site_idx].timeline.frame_times().summarize().mean_abs_deviation;
}

double ExperimentResult::synchrony_ms() const {
  return core::synchrony_differences(site[0].timeline, site[1].timeline)
      .summarize()
      .mean_abs;
}

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  ExperimentResult out;
  auto factory = cfg.game_factory;
  if (!factory) {
    if (cores::make_game(cfg.game) == nullptr) {
      for (auto& s : out.site) {
        s.session_failed = true;
        s.failure_reason = "unknown game '" + cfg.game + "'";
      }
      return out;
    }
    factory = [name = cfg.game] { return cores::make_game(name); };
  }

  sim::Simulator sim;
  net::SimDuplexLink link(sim, cfg.net_a_to_b, cfg.net_b_to_a, cfg.net_seed);

  // Optional TCP-like reliable in-order layer (ablation_transport).
  std::unique_ptr<baseline::TcpLikeEndpoint> tcp_a;
  std::unique_ptr<baseline::TcpLikeEndpoint> tcp_b;
  net::DatagramTransport* transport[2] = {&link.a(), &link.b()};
  sim::Trigger* arrival[2] = {&link.a().arrival_trigger(), &link.b().arrival_trigger()};
  if (cfg.transport == ExperimentConfig::Transport::kTcpLike) {
    Dur rto = cfg.tcp_rto;
    if (rto <= 0) {
      rto = 2 * std::max(cfg.net_a_to_b.delay, cfg.net_b_to_a.delay) + milliseconds(20);
    }
    tcp_a = std::make_unique<baseline::TcpLikeEndpoint>(sim, link.a(), rto);
    tcp_b = std::make_unique<baseline::TcpLikeEndpoint>(sim, link.b(), rto);
    transport[0] = tcp_a.get();
    transport[1] = tcp_b.get();
    arrival[0] = &tcp_a->deliverable_trigger();
    arrival[1] = &tcp_b->deliverable_trigger();
  }

  SharedFlags flags;
  SimSite site0(sim, *transport[0], *arrival[0], cfg, 0, factory());
  SimSite site1(sim, *transport[1], *arrival[1], cfg, 1, factory());

  // Late-join observers, each on its own link to site 0.
  std::vector<std::unique_ptr<net::SimDuplexLink>> observer_links;
  std::vector<std::unique_ptr<SimObserver>> observers;
  for (int i = 0; i < cfg.observers; ++i) {
    observer_links.push_back(std::make_unique<net::SimDuplexLink>(
        sim, cfg.observer_net, cfg.net_seed + 1000 + static_cast<std::uint64_t>(i)));
    auto& obs_link = *observer_links.back();
    site0.add_observer_port(obs_link.a(), obs_link.a().arrival_trigger());
    observers.push_back(std::make_unique<SimObserver>(sim, obs_link.b(), cfg, i, factory()));
  }

  using Dir = ExperimentConfig::NetEvent::Dir;
  for (const auto& ev : cfg.net_events) {
    sim.schedule_at(ev.at, [&link, ev] {
      if (ev.dir != Dir::kBToA) link.a().set_tx_config(ev.config);
      if (ev.dir != Dir::kAToB) link.b().set_tx_config(ev.config);
    });
  }

  site0.launch(flags);
  site1.launch(flags);
  for (auto& obs : observers) obs->launch(flags);
  sim.run();

  out.site[0] = site0.take_result(link.a().tx_stats());
  out.site[1] = site1.take_result(link.b().tx_stats());
  for (auto& obs : observers) out.observers.push_back(obs->take_result());
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
