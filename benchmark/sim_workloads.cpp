// lockstep_sim and rollback_sim: the virtual-time two-site testbed
// (testbed::run_experiment) with every replica wrapped in a ProbedGame.
//
// A run first executes a fixed pool of sessions derived from --seed; their
// virtual-time metrics (input latency, frame time, synchrony) are a pure
// function of the seed. It then keeps re-running pool sessions until the
// measuring time is used up: each repeat must reproduce its first run's
// digest chain and timeline exactly, and the repeats feed the host-time
// metrics (frames_per_s, cpu_ms_per_frame; setup_s uses every session).
// After measuring, the first pool session runs again with undecorated
// games; the decorated runs must match it frame for frame.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "probes.h"
#include "src/common/hash.h"
#include "src/core/input_source.h"
#include "src/cores/registry.h"
#include "src/testbed/experiment.h"
#include "workloads.h"

namespace rtctbench {

using rtct::Dur;
using rtct::milliseconds;
using rtct::testbed::ExperimentConfig;
using rtct::testbed::ExperimentResult;

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + (stream + 1) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

struct SimSpec {
  const char* game;
  bool rollback;
  Dur delay;     ///< one-way, each direction
  Dur jitter;    ///< stddev
  double loss;
  int observers;
  int frames;    ///< per session
  int pool;      ///< distinct sessions per seed
};

// Each session's synchrony settles at an offset set by its start phase, so
// one session is one sample of a wide distribution: the pool is many short
// sessions (15 s of play each) rather than a few long ones.
// 100 ms RTT: under lockstep's full-speed threshold, so frames rarely stall.
constexpr SimSpec kLockstep{"ac16:duel", false, milliseconds(50), milliseconds(5), 0.01, 2,
                            900, 96};
// 150 ms RTT: past lockstep's threshold, where rollback is the mode to use.
constexpr SimSpec kRollback{"agent86:skirmish", true, milliseconds(75), milliseconds(10), 0.02,
                            0, 900, 64};

constexpr int kInputHold = 6;
/// Traced runs measure their overhead against this many alternating
/// undecorated / traced runs of pool session 0 (single runs vary by ~7 %).
constexpr int kOverheadPairs = 5;
/// Frames at the end of a session whose inputs are not latency samples:
/// their corrective re-simulation may run after the frame loop ends.
constexpr int kTailFrames = 64;
/// Repeat runs the host-time figures need at the least, however slow the
/// host: the first pass logs every step, so it does not time the program.
constexpr int kMinRepeats = 16;

ExperimentConfig make_config(const SimSpec& spec, std::uint64_t seed, int index) {
  ExperimentConfig cfg;
  cfg.game = spec.game;
  cfg.frames = spec.frames;
  cfg.sync.rollback = spec.rollback;
  for (auto* net : {&cfg.net_a_to_b, &cfg.net_b_to_a}) {
    net->delay = spec.delay;
    net->jitter = spec.jitter;
    net->loss = spec.loss;
  }
  const auto stream = static_cast<std::uint64_t>(index) * 8;
  cfg.input_seed[0] = derive_seed(seed, stream);
  cfg.input_seed[1] = derive_seed(seed, stream + 1);
  cfg.net_seed = derive_seed(seed, stream + 2);
  cfg.input_hold_frames = kInputHold;
  cfg.observers = spec.observers;
  // Late joiners: one a quarter into the match, one at the half.
  const Dur length = spec.frames * cfg.sync.frame_period();
  cfg.observer_join_delays = {length / 4, length / 2};
  return cfg;
}

/// Host-side and virtual-time outcome of one session.
struct Session {
  int pool_index = 0;
  std::int64_t total_ns = 0;      ///< run_experiment wall time
  std::int64_t setup_ns = 0;      ///< call to first executed frame
  std::int64_t setup_cpu_ns = 0;  ///< process CPU over the same interval
  std::int64_t loop_ns = 0;       ///< first executed frame to return
  std::int64_t make_game_ns = 0;  ///< registry construction of every replica
  std::int64_t cpu_ns = 0;        ///< process CPU over the call
  std::uint64_t fingerprint = 0;  ///< every virtual-time output of the session
  std::vector<double> latency_ms, frame_time_ms, sync_ms, stall_ms, wait_ms;
  std::uint64_t frames = 0;
  std::uint64_t failed_frames = 0;
  // Protocol counters (summed over both sites).
  std::uint64_t msgs = 0, inputs_sent = 0, inputs_retx = 0, site_frames = 0;
  std::uint64_t packets = 0, bytes = 0;
  std::uint64_t rb_executed = 0, rb_resim = 0;
  int rb_max_depth = 0;
  // From the step logs (first pass only).
  std::uint64_t first_executions = 0, mispredictions = 0;
};

std::uint64_t fingerprint(const ExperimentResult& res) {
  rtct::Fnv1a64 h;
  for (const auto& site : res.site) {
    h.update_u64(static_cast<std::uint64_t>(site.buf_frames));
    h.update_u64(site.timeline.size());
    for (const auto& rec : site.timeline.records()) {
      h.update_u64(static_cast<std::uint64_t>(rec.begin_time));
      h.update_u64(static_cast<std::uint64_t>(rec.input_ready_time));
      h.update_u64(static_cast<std::uint64_t>(rec.stall));
      h.update_u64(static_cast<std::uint64_t>(rec.wait));
      h.update_u64(rec.state_hash);
    }
  }
  for (const auto& obs : res.observers) {
    h.update_u64(static_cast<std::uint64_t>(obs.snapshot_frame));
    for (const auto& [frame, hash] : obs.hashes) {
      h.update_u64(static_cast<std::uint64_t>(frame));
      h.update_u64(hash);
    }
  }
  return h.digest();
}

/// Consistency checks every session must pass; returns the site frames
/// lost to an abort or executed after the replicas diverged.
std::uint64_t check_session(const ExperimentResult& res, const SimSpec& spec, RunResult& r,
                            const std::string& tag) {
  const FrameNo div = res.first_divergence();
  const FrameNo good = div == -1 ? spec.frames : div;
  std::uint64_t failed = 0;
  for (int s = 0; s < 2; ++s) {
    const auto& site = res.site[s];
    if (site.aborted || site.session_failed) {
      r.fail(tag + ": site " + std::to_string(s) + " failed: " + site.failure_reason);
    }
    if (site.desync_frame != -1) {
      r.fail(tag + ": site " + std::to_string(s) + " flagged a desync at frame " +
             std::to_string(site.desync_frame));
    }
    if (site.rollback_mode != spec.rollback) r.fail(tag + ": wrong consistency mode");
    failed += static_cast<std::uint64_t>(spec.frames - std::min(site.frames_completed, good));
  }
  if (div != -1) r.fail(tag + ": replicas diverged at frame " + std::to_string(div));
  if (!res.converged()) r.fail(tag + ": session did not converge");
  if (spec.observers > 0 && !res.observers_consistent()) {
    r.fail(tag + ": an observer's replica disagrees with the sites");
  }
  if (res.site[0].replay.inputs() != res.site[1].replay.inputs()) {
    r.fail(tag + ": the sites' confirmed input histories differ");
  }
  return failed;
}

/// Input latency in virtual time. Site s samples its player for frame f at
/// that frame's begin; the sample is applied at frame k = f + d (d = local
/// lag or rollback input delay). The latency is the time until the last
/// site replica first executes frame k with site s's true input, placed at
/// the frame-loop frame the execution ran under.
void input_latencies(const ExperimentResult& res, const std::vector<ReplicaLog>& logs,
                     const ExperimentConfig& cfg, Session& out, RunResult& r,
                     const std::string& tag) {
  const auto& canon = res.site[0].replay.inputs();
  const int frames = cfg.frames;
  const int d = res.site[0].buf_frames;
  if (static_cast<int>(canon.size()) != frames || res.site[1].buf_frames != d) {
    r.fail(tag + ": unexpected recording length or input delay");
    return;
  }
  for (int s = 0; s < 2; ++s) {
    rtct::core::MasherInput masher(cfg.input_seed[s], cfg.input_hold_frames);
    const auto script = rtct::core::materialize_script(masher, frames);
    for (int k = 0; k < frames; ++k) {
      const std::uint8_t want = k >= d ? script[static_cast<std::size_t>(k - d)] : 0;
      if (rtct::player_byte(canon[static_cast<std::size_t>(k)], s) != want) {
        r.fail(tag + ": site " + std::to_string(s) + "'s input was not applied " +
               std::to_string(d) + " frames after it was sampled (frame " + std::to_string(k) +
               ")");
        return;
      }
    }
  }
  // first[r][s][k]: loop frame of replica r's first execution of frame k
  // carrying site s's true input.
  // A replica's first execution of a frame with the other site's input
  // wrong is a misprediction (lockstep never has one).
  std::vector<FrameNo> first[2][2];
  for (int rep = 0; rep < 2; ++rep) {
    for (auto& v : first[rep]) v.assign(static_cast<std::size_t>(frames), -1);
    std::vector<bool> executed(static_cast<std::size_t>(frames), false);
    for (const auto& ev : logs[static_cast<std::size_t>(rep)].steps) {
      if (ev.frame < 0 || ev.frame >= frames) continue;
      const auto k = static_cast<std::size_t>(ev.frame);
      if (!executed[k]) {
        executed[k] = true;
        ++out.first_executions;
        if (rtct::player_byte(ev.input, 1 - rep) != rtct::player_byte(canon[k], 1 - rep)) {
          ++out.mispredictions;
        }
      }
      for (int s = 0; s < 2; ++s) {
        if (first[rep][s][k] < 0 &&
            rtct::player_byte(ev.input, s) == rtct::player_byte(canon[k], s)) {
          first[rep][s][k] = ev.loop_frame;
        }
      }
    }
  }
  for (int s = 0; s < 2; ++s) {
    const auto& sampler = res.site[s].timeline.records();
    for (int f = 0; f + d < frames - kTailFrames; ++f) {
      const auto k = static_cast<std::size_t>(f + d);
      rtct::Time applied = 0;
      for (int rep = 0; rep < 2; ++rep) {
        const FrameNo g = first[rep][s][k];
        if (g < 0 || g >= frames) {
          r.fail(tag + ": frame " + std::to_string(k) + " never ran with its true input");
          return;
        }
        const auto& recs = res.site[rep].timeline.records();
        applied = std::max(applied, recs[static_cast<std::size_t>(g)].input_ready_time);
      }
      out.latency_ms.push_back(
          rtct::to_ms(applied - sampler[static_cast<std::size_t>(f)].begin_time));
    }
  }
}

class SimRunner {
 public:
  SimRunner(const SimSpec& spec, const RunOptions& opt, RunResult& r)
      : spec_(spec), opt_(opt), r_(r), tracer_(opt.trace) {}

  void run() {
    const std::int64_t end = now_ns() + static_cast<std::int64_t>(opt_.seconds) * 1'000'000'000;
    for (int i = 0; i < spec_.pool + kMinRepeats || now_ns() < end; ++i) {
      sessions_.push_back(run_session(i % spec_.pool, i < spec_.pool));
      probe_.sample();
      const Session& s = sessions_.back();
      const Session& first = sessions_[static_cast<std::size_t>(s.pool_index)];
      if (i >= spec_.pool && s.fingerprint != first.fingerprint) {
        r_.fail("session " + std::to_string(s.pool_index) +
                ": a repeat run differs from the first");
      }
      if (!r_.correct) break;
    }

    // Undecorated runs of pool session 0, after the measured window. A
    // traced run alternates with each, on a scratch tracer, so the two
    // sides of the overhead comparison run equally warm and close in time.
    std::vector<double> plain_ns, traced_ns;
    for (int i = 0; i < (opt_.trace ? kOverheadPairs : 1) && r_.correct; ++i) {
      const std::int64_t t0 = now_ns();
      const ExperimentResult ref =
          rtct::testbed::run_experiment(make_config(spec_, opt_.seed, 0));
      plain_ns.push_back(static_cast<double>(now_ns() - t0));
      check_session(ref, spec_, r_, "undecorated session 0");
      if (fingerprint(ref) != sessions_.front().fingerprint) {
        r_.fail("session 0: decorated run differs from the undecorated run");
      }
      if (opt_.trace) {
        Tracer scratch(true);
        traced_ns.push_back(static_cast<double>(run_session(0, false, scratch).total_ns));
      }
    }

    for (const auto& s : sessions_) {
      r_.attempted += s.frames * 2;
      r_.failed += s.failed_frames;
    }
    if (opt_.trace) {
      report_layers(median(traced_ns) / median(plain_ns) - 1);
    } else {
      report_end_to_end();
    }
  }

 private:
  Session run_session(int pool_index, bool first_pass) {
    return run_session(pool_index, first_pass, tracer_);
  }

  Session run_session(int pool_index, bool first_pass, Tracer& tracer) {
    const ExperimentConfig base = make_config(spec_, opt_.seed, pool_index);
    Session s;
    s.pool_index = pool_index;
    std::vector<ReplicaLog> logs(static_cast<std::size_t>(2 + spec_.observers));
    int made = 0;
    ExperimentConfig cfg = base;
    cfg.game_factory = [&]() -> std::unique_ptr<rtct::emu::IDeterministicGame> {
      const int actor = made++;
      const std::int64_t t0 = now_ns();
      std::unique_ptr<rtct::emu::IDeterministicGame> inner;
      {
        Tracer::Scope span(tracer, Layer::kMakeGame, actor, static_cast<std::uint8_t>(actor));
        inner = rtct::cores::make_game(spec_.game);
      }
      s.make_game_ns += now_ns() - t0;
      ProbedGame::Options po;
      po.log_steps = actor < 2 && first_pass;
      return std::make_unique<ProbedGame>(std::move(inner), tracer,
                                          static_cast<std::uint8_t>(actor),
                                          logs.at(static_cast<std::size_t>(actor)), po);
    };

    const std::int64_t cpu0 = process_cpu_ns();
    const std::int64_t t0 = now_ns();
    const auto root = tracer.begin(Layer::kSession, pool_index);
    const ExperimentResult res = rtct::testbed::run_experiment(cfg);
    tracer.end(root);
    const std::int64_t t1 = now_ns();
    s.cpu_ns = process_cpu_ns() - cpu0;
    s.total_ns = t1 - t0;
    const ReplicaLog* first = nullptr;
    for (const auto& log : logs) {
      if (log.first_step_ns == 0) continue;
      if (first == nullptr || log.first_step_ns < first->first_step_ns) {
        first = &log;
      }
    }
    if (first == nullptr) {
      r_.fail("session " + std::to_string(pool_index) + ": no frame was executed");
      return s;
    }
    const std::int64_t first_step = first->first_step_ns;
    s.setup_ns = first_step - t0;
    s.setup_cpu_ns = first->first_step_cpu_ns - cpu0;
    s.loop_ns = t1 - first_step;

    const std::string tag = "session " + std::to_string(pool_index);
    s.failed_frames = check_session(res, spec_, r_, tag);
    s.frames = static_cast<std::uint64_t>(spec_.frames);
    s.fingerprint = fingerprint(res);
    if (first_pass) {
      input_latencies(res, logs, base, s, r_, tag);
      for (const auto& site : res.site) {
        const auto ft = site.timeline.frame_times().samples();
        s.frame_time_ms.insert(s.frame_time_ms.end(), ft.begin(), ft.end());
        const auto st = site.timeline.stalls().samples();
        s.stall_ms.insert(s.stall_ms.end(), st.begin(), st.end());
        const auto wt = site.timeline.waits().samples();
        s.wait_ms.insert(s.wait_ms.end(), wt.begin(), wt.end());
      }
      const auto& tl0 = res.site[0].timeline;
      s.sync_ms = rtct::core::synchrony_differences(tl0, res.site[1].timeline).samples();
    }
    for (const auto& site : res.site) {
      s.msgs += site.sync_stats.messages_made;
      s.inputs_sent += site.sync_stats.inputs_sent;
      s.inputs_retx += site.sync_stats.inputs_retransmitted;
      s.site_frames += static_cast<std::uint64_t>(site.frames_completed);
      s.packets += site.tx_stats.packets_offered;
      s.bytes += site.tx_stats.bytes_offered;
      s.rb_executed += site.rollback_stats.frames_executed;
      s.rb_resim += site.rollback_stats.frames_resimulated;
      s.rb_max_depth = std::max(s.rb_max_depth, site.rollback_stats.max_rollback_depth);
    }
    return s;
  }

  /// One per-session sample vector, pooled over the pool's first pass
  /// (the virtual-time samples repeats would only duplicate).
  rtct::Summary pooled(std::vector<double> Session::*field) const {
    rtct::Series out;
    for (std::size_t i = 0; i < sessions_.size() && i < static_cast<std::size_t>(spec_.pool);
         ++i) {
      for (const double x : sessions_[i].*field) out.add(x);
    }
    return out.summarize();
  }

  void report_end_to_end() {
    // Host-time figures are process CPU times scaled to the reference
    // host's speed by the probe samples taken around each session
    // (HostProbe): the VM's speed drifts by more than the bounds. They are
    // medians over sessions, so a burst of host load moves the sessions it
    // hits, not the figure. Frame figures come from the repeat runs (the
    // first pass logs every step); set-up, which logging does not touch,
    // from every session.
    std::vector<double> setups, fps, cpu_ms;
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      const Session& s = sessions_[i];
      const auto frames = static_cast<double>(s.frames);
      const double slowdown = probe_.slowdown_near(i);
      const auto cpu_s = [&](std::int64_t ns) {
        return static_cast<double>(ns) / 1e9 / slowdown;
      };
      setups.push_back(cpu_s(s.setup_cpu_ns));
      if (i < static_cast<std::size_t>(spec_.pool)) continue;
      fps.push_back(frames / cpu_s(s.cpu_ns - s.setup_cpu_ns));
      cpu_ms.push_back(cpu_s(s.cpu_ns) * 1e3 / frames);
    }
    const auto lat = pooled(&Session::latency_ms);
    r_.put("setup_s", median(setups), "s");
    r_.put("frames_per_s", median(fps), "1/s");
    r_.put("input_latency_ms_p50", lat.p50, "ms");
    r_.put("input_latency_ms_p99", lat.p99, "ms");
    r_.put("frame_time_ms_p99", pooled(&Session::frame_time_ms).p99, "ms");
    r_.put("synchrony_ms", pooled(&Session::sync_ms).mean_abs, "ms");
    r_.put("cpu_ms_per_frame", median(cpu_ms), "ms");
    r_.put("peak_rss_mb", peak_rss_mb(), "MiB");
  }

  void report_layers(double overhead_share) {
    LayerTotals t;
    t.add(tracer_.spans());
    if (!tracer_.nesting_ok()) r_.fail("trace: spans did not nest");
    double frames = 0, wall_ns = 0;
    std::vector<double> make_ms, handshake_ms, cpu_ms;
    Session sum;
    for (const auto& s : sessions_) {
      frames += static_cast<double>(s.frames);
      wall_ns += static_cast<double>(s.total_ns);
      make_ms.push_back(static_cast<double>(s.make_game_ns) / 1e6);
      handshake_ms.push_back(static_cast<double>(s.setup_ns - s.make_game_ns) / 1e6);
      cpu_ms.push_back(static_cast<double>(s.setup_cpu_ns) / 1e6);
      sum.msgs += s.msgs;
      sum.inputs_sent += s.inputs_sent;
      sum.inputs_retx += s.inputs_retx;
      sum.site_frames += s.site_frames;
      sum.packets += s.packets;
      sum.bytes += s.bytes;
      sum.rb_executed += s.rb_executed;
      sum.rb_resim += s.rb_resim;
      sum.first_executions += s.first_executions;
      sum.mispredictions += s.mispredictions;
      sum.rb_max_depth = std::max(sum.rb_max_depth, s.rb_max_depth);
    }
    put_emu_layers(r_, t, frames);
    r_.put("setup.make_game_ms", median(make_ms), "ms");
    r_.put("setup.handshake_ms", median(handshake_ms), "ms");
    r_.put("setup.cpu_ms", median(cpu_ms), "ms");

    const double stall_ms = pooled(&Session::stall_ms).mean;
    const double sf = static_cast<double>(sum.site_frames);
    if (spec_.rollback) {
      r_.put("rollback.resim_per_frame",
             ratio(static_cast<double>(sum.rb_resim), static_cast<double>(sum.rb_executed)),
             "count");
      r_.put("rollback.mispredict_share",
             ratio(static_cast<double>(sum.mispredictions),
                   static_cast<double>(sum.first_executions)),
             "ratio");
      r_.put("rollback.max_depth", sum.rb_max_depth, "frames");
      r_.put("rollback.stall_ms_per_frame", stall_ms, "ms");
    } else {
      r_.put("sync.stall_ms_per_frame", stall_ms, "ms");
    }
    r_.put("sync.msgs_per_frame", ratio(static_cast<double>(sum.msgs), sf), "count");
    r_.put("sync.inputs_per_msg",
           ratio(static_cast<double>(sum.inputs_sent), static_cast<double>(sum.msgs)), "count");
    r_.put("sync.retransmit_share",
           ratio(static_cast<double>(sum.inputs_retx), static_cast<double>(sum.inputs_sent)),
           "ratio");
    r_.put("pacer.sleep_ms_per_frame", pooled(&Session::wait_ms).mean, "ms");
    r_.put("udp.sends_per_frame", ratio(static_cast<double>(sum.packets), sf), "count");
    r_.put("udp.bytes_per_frame", ratio(static_cast<double>(sum.bytes), sf), "B");

    if (spec_.observers > 0) report_spectate(t);

    r_.put("testbed.other_us_per_frame", ratio(t.self(Layer::kSession), frames) / 1000.0, "us");
    std::vector<double> wall_fps;
    for (std::size_t i = static_cast<std::size_t>(spec_.pool); i < sessions_.size(); ++i) {
      const Session& s = sessions_[i];
      wall_fps.push_back(static_cast<double>(s.frames) /
                         (static_cast<double>(s.loop_ns) / 1e9));
    }
    r_.put("host.wall_frames_per_s", median(wall_fps), "1/s");
    r_.put("host.probe_ms", probe_.median_ms(), "ms");
    check_reconciles(r_, t, wall_ns);
    r_.put("trace.overhead_share", overhead_share, "ratio");
    if (!write_spans(opt_.out_dir + "/" + opt_.workload + ".spans.csv", {&tracer_})) {
      std::fprintf(stderr, "warning: could not write the span file under %s\n",
                   opt_.out_dir.c_str());
    }
  }

  /// Observer catch-up, from the span order (the testbed is single-
  /// threaded): when an observer loads its join snapshot, how many frames
  /// site 0 had already executed beyond it.
  void report_spectate(const LayerTotals& t) {
    double observer_steps = 0;
    rtct::Series catchup;
    FrameNo site0_head = -1;
    std::map<std::uint32_t, bool> loaded;  // observer joins per session root
    std::uint32_t session_root = Tracer::kNone;
    const auto& spans = tracer_.spans();
    for (std::uint32_t i = 0; i < spans.size(); ++i) {
      const Span& sp = spans[i];
      if (sp.layer == Layer::kSession) {
        session_root = i;
        site0_head = -1;
        continue;
      }
      if (sp.layer == Layer::kStep) {
        if (sp.actor >= 2) observer_steps += 1;
        if (sp.actor == 0) site0_head = std::max<FrameNo>(site0_head, sp.id);
      }
      if (sp.layer == Layer::kLoad && sp.actor >= 2) {
        const std::uint32_t key = session_root * 8 + sp.actor;
        if (!loaded[key]) {
          loaded[key] = true;
          catchup.add(static_cast<double>(site0_head + 1 - sp.id));
        }
      }
    }
    r_.put("spectate.catchup_frames", catchup.summarize().mean, "frames");
    r_.put("spectate.observer_step_share",
           ratio(observer_steps, static_cast<double>(t.n(Layer::kStep))), "ratio");
  }

  const SimSpec& spec_;
  const RunOptions& opt_;
  RunResult& r_;
  Tracer tracer_;
  HostProbe probe_;
  std::vector<Session> sessions_;
};

}  // namespace

void run_lockstep_sim(const RunOptions& opt, RunResult& r) {
  SimRunner(kLockstep, opt, r).run();
}
void run_rollback_sim(const RunOptions& opt, RunResult& r) {
  SimRunner(kRollback, opt, r).run();
}

}  // namespace rtctbench
