// relay_live: two real RealtimeSessions in lockstep on ac16:duel, each on
// its own thread, over loopback UDP through an in-process one-shard
// RelayServer, paced by the wall clock at 60 FPS.
//
// The run is a series of short sessions, each with its own relay, lobby
// handshake, games and session handshake, so set-up is sampled once per
// session and the frame-phase offset between the sites (which sets
// synchrony) is sampled afresh each time. Threads: site 0's session thread,
// the main thread running site 1, and the relay's lobby and shard threads.
//
// Every hop is stamped from outside: ProbedInput stamps the moment a site
// samples its player, ProbedGame the moment each replica executes a frame,
// and the frame hook reads the session thread's CPU clock. Traced sessions
// add ProbedTransport around each relay endpoint.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "probes.h"
#include "src/common/telemetry.h"
#include "src/core/input_source.h"
#include "src/core/realtime.h"
#include "src/cores/registry.h"
#include "src/relay/relay_client.h"
#include "src/relay/relay_server.h"
#include "trace.h"
#include "workloads.h"

namespace rtctbench {
namespace {

constexpr const char* kGame = "ac16:duel";
/// Frames per measured session (9 s at 60 FPS): long enough that the
/// pacer's start-up transient is a small share of the frames, and that
/// each session's p99 of its ~1080 frame times has ten samples beyond it.
constexpr int kSessionFrames = 540;
/// Set-up-only sessions (handshake, then one frame) run before each
/// measured session. Set-up time is a chain of thread wake-ups whose
/// latency drifts with the host's load, so it is sampled many times,
/// spread over the run, and reported as a median.
constexpr int kSetupSamplesPerSession = 20;
constexpr int kInputHold = 6;

/// Relay statistics read through RelayServer's public accessors.
struct RelayTotals {
  std::uint64_t forwarded = 0;  ///< inbound DATA frames accepted
  std::uint64_t fanout = 0;     ///< outbound copies sent
  std::uint64_t drops = 0;      ///< unknown session/sender + malformed
  rtct::Histogram dispatch_ns;  ///< per-datagram dispatch time, merged

  void add(const rtct::relay::RelayServer& server) {
    const auto s = server.stats();
    forwarded += s.datagrams_forwarded;
    fanout += s.fanout_datagrams;
    drops += s.dropped_unknown_session + s.dropped_unknown_sender + s.dropped_malformed;
    rtct::MetricsRegistry reg;
    server.export_metrics(reg);
    dispatch_ns.merge(reg.histogram("relay.dispatch_ns"));
  }

  /// Percentile of the dispatch histogram, interpolated linearly inside
  /// the power-of-two bucket that holds the rank (bucket bounds are in the
  /// histogram's sample unit, here ns). The last bucket holds everything
  /// above 16.4 us; a rank there is interpolated up to the maximum.
  [[nodiscard]] double dispatch_pct(double p) const {
    const auto n = dispatch_ns.count();
    if (n == 0) return 0;
    const double rank = p / 100.0 * static_cast<double>(n);
    double below = 0;
    const auto& b = dispatch_ns.buckets();
    for (int i = 0; i < rtct::Histogram::kBuckets; ++i) {
      const double c = static_cast<double>(b[static_cast<std::size_t>(i)]);
      if (below + c >= rank && c > 0) {
        const double lo = i == 0 ? 0.0 : rtct::Histogram::bucket_bound(i - 1);
        const double hi = i == rtct::Histogram::kBuckets - 1 ? dispatch_ns.max()
                                                             : rtct::Histogram::bucket_bound(i);
        return std::min(lo + (hi - lo) * (rank - below) / c, dispatch_ns.max());
      }
      below += c;
    }
    return dispatch_ns.max();
  }

  void report(RunResult& r) const {
    r.put("relay.dispatch_ns_mean", dispatch_ns.mean(), "ns");
    r.put("relay.dispatch_ns_p50", dispatch_pct(50), "ns");
    r.put("relay.dispatch_ns_p99", dispatch_pct(99), "ns");
    r.put("relay.fanout_per_datagram",
          forwarded > 0 ? static_cast<double>(fanout) / static_cast<double>(forwarded) : 0.0,
          "count");
    r.put("relay.drops", static_cast<double>(drops), "count");
  }
};

struct Site {
  explicit Site(bool traced)
      : tracer_owner(std::make_unique<Tracer>(traced)), tracer(*tracer_owner) {}
  std::unique_ptr<Tracer> tracer_owner;  ///< moved out to outlive the session
  Tracer& tracer;
  ReplicaLog log;
  std::unique_ptr<rtct::core::MasherInput> masher;
  std::unique_ptr<ProbedInput> input;
  std::unique_ptr<ProbedGame> game;
  std::unique_ptr<rtct::relay::RelayEndpoint> endpoint;
  std::unique_ptr<ProbedTransport> transport;
  std::unique_ptr<rtct::core::RealtimeSession> session;
  bool ok = false;
  std::string error;
  std::int64_t run_begin_ns = 0, run_end_ns = 0;
  std::int64_t thread_cpu_ns = 0;                 ///< whole run() on this thread
  std::int64_t frame_cpu_first = 0, frame_cpu_last = 0;  ///< hook at frame 0 / last
  std::int64_t process_cpu_frame0 = 0;  ///< process CPU clock at the frame-0 hook

  void run() {
    const std::int64_t cpu0 = rtctbench::thread_cpu_ns();
    run_begin_ns = now_ns();
    tracer.begin(Layer::kSetup, -1);
    ok = session->run(&error);
    tracer.end_open(Layer::kFrame);
    tracer.end_open(Layer::kSetup);
    run_end_ns = now_ns();
    thread_cpu_ns = rtctbench::thread_cpu_ns() - cpu0;
  }
};

struct SessionOut {
  bool traced = false;
  double setup_wall_ms = 0;  ///< relay start until both sites sampled frame 0
  double setup_cpu_ms = 0;   ///< process CPU, all threads, until both ran frame 0
  double make_game_ms = 0, lobby_ms = 0, handshake_ms = 0;
  std::vector<double> latency_ms, frame_time_ms, sync_ms, relay_ms;
  double cpu_frame_ns = 0;  ///< summed over sites, hook-to-hook
  double cpu_frames = 0;    ///< frames that cpu_frame_ns covers
  double fps_sum = 0;       ///< per-site frames per wall second, summed
  double relay_cpu_ns = 0;  ///< process CPU minus both session threads
  std::uint64_t frames = 0;
};

class RelayLive {
 public:
  RelayLive(const RunOptions& opt, RunResult& r) : opt_(opt), r_(r) {}

  void run() {
    const std::int64_t end = now_ns() + static_cast<std::int64_t>(opt_.seconds) * 1'000'000'000;
    int index = 0;
    for (int i = 0; (i < 2 || now_ns() < end) && r_.correct; ++i) {
      for (int k = 0; k < kSetupSamplesPerSession && r_.correct; ++k) {
        run_session(index++, 1, false);
      }
      // Traced runs alternate untraced and traced sessions, so the tracing
      // overhead is measured within the run.
      if (r_.correct) run_session(index++, kSessionFrames, opt_.trace && i % 2 == 1);
    }
    if (opt_.trace) {
      report_layers();
    } else {
      report_end_to_end();
    }
  }

 private:
  void run_session(int index, int frames, bool traced) {
    const std::string tag = "session " + std::to_string(index);
    SessionOut out;
    out.traced = traced;
    Site sites[2] = {Site(traced), Site(traced)};

    const std::int64_t t0 = now_ns();
    const std::int64_t cpu_t0 = process_cpu_ns();
    rtct::relay::RelayConfig rcfg;
    rcfg.shards = 1;
    rtct::relay::RelayServer relay(rcfg);
    std::string err;
    if (!relay.start(&err)) {
      r_.fail(tag + ": relay start: " + err);
      return;
    }
    const std::int64_t t_games = now_ns();
    for (int s = 0; s < 2; ++s) {
      auto inner = rtct::cores::make_game(kGame);
      if (inner == nullptr) {
        r_.fail(std::string("unknown game ") + kGame);
        return;
      }
      sites[s].game = std::make_unique<ProbedGame>(
          std::move(inner), sites[s].tracer, static_cast<std::uint8_t>(s), sites[s].log,
          ProbedGame::Options{true, true});
    }
    const std::int64_t t_lobby = now_ns();
    rtct::relay::RelayLobby creator("127.0.0.1", relay.lobby_port());
    rtct::relay::RelayLobby joiner("127.0.0.1", relay.lobby_port());
    const auto created = creator.create(sites[0].game->content_id());
    const auto joined = created ? joiner.join(created->conn) : std::nullopt;
    if (!created || !joined) {
      r_.fail(tag + ": lobby create/join failed: " + creator.last_error() +
              joiner.last_error());
      return;
    }
    sites[0].endpoint = creator.into_endpoint(*created);
    sites[1].endpoint = joiner.into_endpoint(*joined);
    const std::int64_t t_lobby_done = now_ns();
    out.make_game_ms = static_cast<double>(t_lobby - t_games) / 1e6;
    out.lobby_ms = static_cast<double>((t_games - t0) + (t_lobby_done - t_lobby)) / 1e6;

    rtct::core::RealtimeConfig cfg;
    cfg.frames = frames;
    for (int s = 0; s < 2; ++s) {
      Site& site = sites[s];
      site.masher = std::make_unique<rtct::core::MasherInput>(
          derive_seed(opt_.seed, static_cast<std::uint64_t>(index) * 8 + s), kInputHold);
      site.input = std::make_unique<ProbedInput>(*site.masher, site.tracer,
                                                 static_cast<std::uint8_t>(s));
      rtct::net::PollableTransport* transport = site.endpoint.get();
      if (traced) {
        site.transport = std::make_unique<ProbedTransport>(
            *site.endpoint, site.tracer, *site.input, static_cast<std::uint8_t>(s));
        transport = site.transport.get();
      }
      site.session = std::make_unique<rtct::core::RealtimeSession>(
          static_cast<rtct::SiteId>(s), *site.game, *site.input, *transport, cfg);
      site.session->set_frame_hook([&site](const rtct::emu::IDeterministicGame&,
                                           const rtct::core::FrameRecord& rec) {
        const std::int64_t cpu = rtctbench::thread_cpu_ns();
        if (rec.frame == 0) {
          site.frame_cpu_first = cpu;
          site.process_cpu_frame0 = process_cpu_ns();
        }
        site.frame_cpu_last = cpu;
      });
    }

    const std::int64_t pcpu0 = process_cpu_ns();
    std::thread site0([&sites] { sites[0].run(); });
    sites[1].run();
    site0.join();
    const std::int64_t pcpu1 = process_cpu_ns();

    RelayTotals relay_totals;
    relay_totals.add(relay);
    relay.stop();

    for (int s = 0; s < 2; ++s) {
      if (!sites[s].ok) r_.fail(tag + ": site " + std::to_string(s) + ": " + sites[s].error);
    }
    r_.attempted += 2 * static_cast<std::uint64_t>(frames);
    if (!r_.correct) {
      r_.failed += 2 * static_cast<std::uint64_t>(frames);
      return;
    }
    evaluate(sites, frames, out, tag);
    if (!r_.correct) return;
    out.relay_cpu_ns = static_cast<double>(pcpu1 - pcpu0) -
                       static_cast<double>(sites[0].thread_cpu_ns + sites[1].thread_cpu_ns);
    // Set-up ends once both sites have executed frame 0.
    out.setup_cpu_ms = static_cast<double>(std::max(sites[0].process_cpu_frame0,
                                                    sites[1].process_cpu_frame0) -
                                           cpu_t0) /
                       1e6;
    out.setup_wall_ms = static_cast<double>(std::max(sites[0].input->samples().front().t_ns,
                                                     sites[1].input->samples().front().t_ns) -
                                            t0) /
                        1e6;

    if (frames == 1) {
      setup_sessions_.push_back(std::move(out));
      probe_.sample();
      return;
    }
    if (traced) {
      for (int s = 0; s < 2; ++s) {
        Site& site = sites[s];
        totals_.add(site.tracer.spans());
        if (!site.tracer.nesting_ok()) r_.fail(tag + ": trace spans did not nest");
        traced_wall_ns_ += static_cast<double>(site.run_end_ns - site.run_begin_ns);
        const auto& tl = site.session->timeline();
        for (const auto& rec : tl.records()) {
          stall_ms_.add_dur(rec.stall);
          wait_ms_.add_dur(rec.wait);
        }
        const auto& st = site.session->stats();
        msgs_ += st.messages_made;
        inputs_sent_ += st.inputs_sent;
        inputs_retx_ += st.inputs_retransmitted;
        rtct::MetricsRegistry reg;
        site.session->export_metrics(reg);
        overruns_ += reg.value("pacer.overruns").value_or(0);
        soft_drops_ += site.endpoint->socket().send_soft_drops();
        sends_ += site.transport->sends();
        bytes_ += site.transport->bytes();
        recv_calls_ += site.transport->recv_calls();
        recv_hits_ += site.transport->received().size();
        wait_calls_ += site.transport->wait_calls();
      }
      relay_ms_match(sites, out);
      relay_sum_.forwarded += relay_totals.forwarded;
      relay_sum_.fanout += relay_totals.fanout;
      relay_sum_.drops += relay_totals.drops;
      relay_sum_.dispatch_ns.merge(relay_totals.dispatch_ns);
      for (auto& site : sites) tracers_.push_back(std::move(site.tracer_owner));
    }
    sessions_.push_back(std::move(out));
  }

  /// Input latency, frame time, synchrony and CPU of one session, from the
  /// input stamps and step stamps, with a check that each replica executed
  /// frame k with the inputs both sites sampled for frame k - lag.
  void evaluate(Site (&sites)[2], int n, SessionOut& out, const std::string& tag) {
    const int lag = rtct::core::SyncConfig{}.buf_frames;
    for (int s = 0; s < 2; ++s) {
      const auto& steps = sites[s].log.steps;
      const auto samples = sites[s].input->samples().size();
      if (static_cast<int>(steps.size()) != n || static_cast<int>(samples) != n) {
        r_.fail(tag + ": site " + std::to_string(s) +
                " did not run exactly one step per frame");
        return;
      }
    }
    for (int k = 0; k < n; ++k) {
      for (int rep = 0; rep < 2; ++rep) {
        const StepEvent& ev = sites[rep].log.steps[static_cast<std::size_t>(k)];
        if (ev.frame != k) {
          r_.fail(tag + ": replica " + std::to_string(rep) + " stepped out of order");
          return;
        }
        for (int s = 0; s < 2; ++s) {
          const std::uint8_t want =
              k >= lag ? sites[s].input->samples()[static_cast<std::size_t>(k - lag)].value : 0;
          if (rtct::player_byte(ev.input, s) != want) {
            r_.fail(tag + ": frame " + std::to_string(k) + " on replica " +
                    std::to_string(rep) + " did not carry site " + std::to_string(s) +
                    "'s sampled input");
            r_.failed += 1;
            return;
          }
        }
      }
    }
    auto ms = [](std::int64_t ns) { return static_cast<double>(ns) / 1e6; };
    for (int s = 0; s < 2; ++s) {
      const auto& in = sites[s].input->samples();
      for (std::size_t f = 0; f + static_cast<std::size_t>(lag) < in.size(); ++f) {
        const std::size_t k = f + static_cast<std::size_t>(lag);
        const std::int64_t applied =
            std::max(sites[0].log.steps[k].t_ns, sites[1].log.steps[k].t_ns);
        out.latency_ms.push_back(ms(applied - in[f].t_ns));
      }
      for (std::size_t f = 1; f < in.size(); ++f) {
        out.frame_time_ms.push_back(ms(in[f].t_ns - in[f - 1].t_ns));
      }
      if (n > 1) {
        out.fps_sum += static_cast<double>(n - 1) * 1e9 /
                       static_cast<double>(in.back().t_ns - in.front().t_ns);
      }
      out.cpu_frame_ns +=
          static_cast<double>(sites[s].frame_cpu_last - sites[s].frame_cpu_first);
      out.cpu_frames += n - 1;
      out.handshake_ms =
          std::max(out.handshake_ms, ms(in.front().t_ns - sites[s].run_begin_ns));
    }
    const auto& in0 = sites[0].input->samples();
    const auto& in1 = sites[1].input->samples();
    for (std::size_t f = 0; f < in0.size(); ++f) {
      out.sync_ms.push_back(ms(in0[f].t_ns - in1[f].t_ns));
    }
    out.frames = static_cast<std::uint64_t>(n);
  }

  /// One-way latency of the session's datagrams through the relay: each
  /// arrival is paired with the earliest unpaired send of the same bytes
  /// by the other site.
  static void relay_ms_match(Site (&sites)[2], SessionOut& out) {
    for (int from = 0; from < 2; ++from) {
      std::unordered_map<std::uint64_t, std::deque<std::int64_t>> pending;
      for (const auto& d : sites[from].transport->sent()) {
        pending[d.fingerprint].push_back(d.t_ns);
      }
      for (const auto& d : sites[1 - from].transport->received()) {
        auto it = pending.find(d.fingerprint);
        if (it == pending.end() || it->second.empty() || it->second.front() > d.t_ns) continue;
        out.relay_ms.push_back(static_cast<double>(d.t_ns - it->second.front()) / 1e6);
        it->second.pop_front();
      }
    }
  }

  /// One per-session sample vector, pooled over the traced or the untraced
  /// measured sessions.
  rtct::Summary pooled(std::vector<double> SessionOut::*field, bool traced) const {
    rtct::Series out;
    for (const auto& s : sessions_) {
      if (s.traced != traced) continue;
      for (const double x : s.*field) out.add(x);
    }
    return out.summarize();
  }

  /// Median over the untraced measured sessions of each session's p99. The
  /// tail follows the host's timer wake-ups, which come in bursts; a burst
  /// moves the p99 of the sessions it hits, not the median over sessions.
  double median_session_p99(std::vector<double> SessionOut::*field) const {
    std::vector<double> p99s;
    for (const auto& s : sessions_) {
      if (!s.traced) p99s.push_back(rtct::percentile(s.*field, 99));
    }
    return median(p99s);
  }

  void report_end_to_end() {
    std::vector<double> setups;
    // Set-up wall time scaled to the reference host's speed by the probe
    // samples around each set-up session (HostProbe): its thread wake-ups
    // and registry work follow the host's speed, which drifts by more than
    // the bound. Waits still show, scaled by the same factor.
    for (std::size_t i = 0; i < setup_sessions_.size(); ++i) {
      setups.push_back(setup_sessions_[i].setup_wall_ms / 1e3 / probe_.slowdown_near(i));
    }
    std::vector<double> cpu_ms;
    double fps = 0;
    for (const auto& s : sessions_) {
      cpu_ms.push_back(ratio(s.cpu_frame_ns / 1e6, s.cpu_frames));
      fps += s.fps_sum / 2;
    }
    r_.put("setup_s", median(setups), "s");
    r_.put("frames_per_s", ratio(fps, static_cast<double>(sessions_.size())), "1/s");
    r_.put("input_latency_ms_p50", pooled(&SessionOut::latency_ms, false).p50, "ms");
    r_.put("input_latency_ms_p99", median_session_p99(&SessionOut::latency_ms), "ms");
    r_.put("frame_time_ms_p99", median_session_p99(&SessionOut::frame_time_ms), "ms");
    r_.put("synchrony_ms", pooled(&SessionOut::sync_ms, false).mean_abs, "ms");
    r_.put("cpu_ms_per_frame", median(cpu_ms), "ms");
    r_.put("peak_rss_mb", peak_rss_mb(), "MiB");
  }

  void report_layers() {
    double frames = 0, relay_cpu = 0, cpu[2] = {0, 0}, cpu_frames[2] = {0, 0};
    std::vector<double> make, lobby, handshake, cpu_ms;
    for (const auto& s : setup_sessions_) {
      cpu_ms.push_back(s.setup_cpu_ms);
      make.push_back(s.make_game_ms);
      lobby.push_back(s.lobby_ms);
      handshake.push_back(s.handshake_ms);
    }
    for (const auto& s : sessions_) {
      cpu[s.traced] += s.cpu_frame_ns;
      cpu_frames[s.traced] += s.cpu_frames;
      if (!s.traced) continue;
      frames += static_cast<double>(s.frames);
      relay_cpu += s.relay_cpu_ns;
    }
    const double site_frames = 2 * frames;
    const LayerTotals& t = totals_;
    put_emu_layers(r_, t, frames);
    r_.put("setup.make_game_ms", median(make), "ms");
    r_.put("setup.lobby_ms", median(lobby), "ms");
    r_.put("setup.handshake_ms", median(handshake), "ms");
    r_.put("setup.cpu_ms", median(cpu_ms), "ms");
    r_.put("host.probe_ms", probe_.median_ms(), "ms");
    r_.put("sync.msgs_per_frame", ratio(static_cast<double>(msgs_), site_frames), "count");
    r_.put("sync.inputs_per_msg",
           ratio(static_cast<double>(inputs_sent_), static_cast<double>(msgs_)), "count");
    r_.put("sync.retransmit_share",
           ratio(static_cast<double>(inputs_retx_), static_cast<double>(inputs_sent_)),
           "ratio");
    r_.put("sync.stall_ms_per_frame", stall_ms_.summarize().mean, "ms");
    r_.put("pacer.sleep_ms_per_frame", wait_ms_.summarize().mean, "ms");
    r_.put("pacer.overruns", overruns_, "count");
    r_.put("realtime.polls_per_frame",
           ratio(static_cast<double>(recv_calls_ + wait_calls_), site_frames), "count");
    r_.put("realtime.recv_hit_share",
           ratio(static_cast<double>(recv_hits_), static_cast<double>(recv_calls_)), "ratio");
    r_.put("realtime.wait_ms_per_frame", ratio(t.total(Layer::kUdpWait) / 1e6, site_frames),
           "ms");
    r_.put("udp.send_us", t.mean_us(Layer::kUdpSend), "us");
    r_.put("udp.sends_per_frame", ratio(static_cast<double>(sends_), site_frames), "count");
    r_.put("udp.bytes_per_frame", ratio(static_cast<double>(bytes_), site_frames), "B");
    r_.put("udp.soft_drops", static_cast<double>(soft_drops_), "count");
    relay_sum_.report(r_);
    r_.put("relay.cpu_ms_per_frame", ratio(relay_cpu / 1e6, frames), "ms");
    const auto relay_ms = pooled(&SessionOut::relay_ms, true);
    r_.put("relay.latency_ms_p50", relay_ms.p50, "ms");
    r_.put("relay.latency_ms_p99", relay_ms.p99, "ms");
    r_.put("relay.cpu_us_per_datagram",
           ratio(relay_cpu / 1e3, static_cast<double>(relay_sum_.forwarded)), "us");
    r_.put("testbed.other_us_per_frame",
           ratio((t.self(Layer::kFrame) + t.self(Layer::kSetup)) / 1e3, site_frames), "us");
    check_reconciles(r_, t, traced_wall_ns_);
    std::vector<const Tracer*> all;
    for (const auto& tr : tracers_) all.push_back(tr.get());
    if (!write_spans(opt_.out_dir + "/" + opt_.workload + ".spans.csv", all)) {
      std::fprintf(stderr, "warning: could not write the span file under %s\n",
                   opt_.out_dir.c_str());
    }
    const double untraced = ratio(cpu[0], cpu_frames[0]);
    r_.put("trace.overhead_share",
           untraced > 0 ? ratio(cpu[1], cpu_frames[1]) / untraced - 1 : 0.0, "ratio");
  }

  const RunOptions& opt_;
  RunResult& r_;
  std::vector<SessionOut> setup_sessions_;  ///< set-up-only sessions
  HostProbe probe_;  ///< one sample after each set-up-only session
  std::vector<SessionOut> sessions_;        ///< measured sessions
  LayerTotals totals_;
  RelayTotals relay_sum_;
  std::vector<std::unique_ptr<Tracer>> tracers_;  ///< traced sessions' spans
  double traced_wall_ns_ = 0;
  rtct::Series stall_ms_, wait_ms_;
  std::uint64_t msgs_ = 0, inputs_sent_ = 0, inputs_retx_ = 0;
  double overruns_ = 0;
  std::uint64_t soft_drops_ = 0, sends_ = 0, bytes_ = 0, recv_calls_ = 0, recv_hits_ = 0,
                wait_calls_ = 0;
};

}  // namespace

void run_relay_live(const RunOptions& opt, RunResult& r) { RelayLive(opt, r).run(); }

}  // namespace rtctbench
