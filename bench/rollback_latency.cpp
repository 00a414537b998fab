// ROLLBACK-LAT — perceived input latency and frame-time smoothness,
// lockstep vs rollback, across RTT (the argument for the second
// consistency mode, measured).
//
// Both modes run the same virtual-clock two-site experiment on the same
// game and frame count per RTT point:
//
//   * lockstep uses the strongest configuration the repo has — v2
//     adaptive lag, which sizes BufFrame from the handshake-measured RTT
//     (ceil(RTT/2 / period) + margin). Its perceived input latency is
//     BufFrame * period, i.e. it GROWS with RTT by design: that is what
//     keeps Algorithm 2 from stalling.
//   * rollback holds the local input exactly `rollback_input_delay`
//     frames no matter the RTT — the network only moves the *confirmation*
//     watermark, not the frame clock — so perceived latency is flat and
//     mispredictions are paid as invisible restore + re-simulate work.
//
// Acceptance criteria (self-checked; nonzero exit on failure):
//   * every run at every RTT converges (byte-identical confirmed digests);
//   * at RTT >= 100 ms rollback's perceived input latency is strictly
//     lower than lockstep's;
//   * rollback's frame-time deviation stays within 2x lockstep's
//     (+0.25 ms epsilon for the near-zero regime).
//
// Usage: rollback_latency [frames] [--json PATH]
// Emits "rtct.bench.v1" JSON (validated in CI by rtct_trace --check);
// committed reference: bench/baselines/BENCH_rollback_latency.json.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/games/cellwars.h"
#include "src/testbed/experiment.h"

namespace {

using namespace rtct;
using namespace rtct::testbed;

struct ModeResult {
  double latency_ms = 0;  ///< perceived input latency: delay-frames * period
  double avg_ft_ms = 0;   ///< worst site's average frame time
  double dev_ms = 0;      ///< worst site's frame-time deviation
  bool converged = false;
  std::uint64_t rollbacks = 0;
  std::uint64_t mispredicted = 0;
  std::uint64_t snapshots_saved = 0;  ///< restore points saved, genesis included
  int snapshot_buffers = 0;           ///< peak snapshot pool size
};

ModeResult run_mode(ExperimentConfig cfg, Dur rtt, bool rollback) {
  if (rollback) {
    cfg.sync.rollback = true;
  } else {
    cfg.sync.adaptive_lag = true;
  }
  cfg.set_rtt(rtt);
  const ExperimentResult r = run_experiment(cfg);
  ModeResult m;
  const double period_ms = 1000.0 / cfg.sync.cfps;
  m.latency_ms = r.site[0].buf_frames * period_ms;
  m.avg_ft_ms = std::max(r.avg_frame_time_ms(0), r.avg_frame_time_ms(1));
  m.dev_ms = std::max(r.frame_time_deviation_ms(0), r.frame_time_deviation_ms(1));
  m.converged = r.converged() && r.site[0].rollback_mode == rollback &&
                r.site[1].rollback_mode == rollback;
  m.rollbacks = r.site[0].rollback_stats.rollbacks;
  m.mispredicted = r.site[0].rollback_stats.mispredicted_frames;
  m.snapshots_saved = r.site[0].rollback_stats.snapshots_saved;
  m.snapshot_buffers = r.site[0].rollback_stats.snapshot_buffers;
  return m;
}

struct Point {
  double rtt_ms = 0;
  ModeResult lockstep;
  ModeResult rollback;
};

}  // namespace

int main(int argc, char** argv) {
  ExperimentConfig base;
  base.game = "cellwars";
  base.game_factory = games::make_cellwars;
  base.frames = 600;
  std::string json_path = "BENCH_rollback_latency.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      base.frames = std::atoi(argv[i]);
    }
  }

  std::printf("=== ROLLBACK-LAT: perceived input latency, lockstep vs rollback "
              "(%d frames/point) ===\n\n",
              base.frames);
  std::printf("%8s | %12s %12s | %10s %10s | %10s %10s | %9s\n", "RTT(ms)",
              "ls lat(ms)", "rb lat(ms)", "ls dev", "rb dev", "ls avgFT", "rb avgFT",
              "rollbacks");
  std::printf("---------+---------------------------+-----------------------+"
              "-----------------------+----------\n");

  std::vector<Point> points;
  for (const int rtt_ms : {25, 50, 100, 150, 200}) {
    Point p;
    p.rtt_ms = rtt_ms;
    p.lockstep = run_mode(base, milliseconds(rtt_ms), /*rollback=*/false);
    p.rollback = run_mode(base, milliseconds(rtt_ms), /*rollback=*/true);
    std::printf("%8d | %12.1f %12.1f | %10.3f %10.3f | %10.3f %10.3f | %9llu\n", rtt_ms,
                p.lockstep.latency_ms, p.rollback.latency_ms, p.lockstep.dev_ms,
                p.rollback.dev_ms, p.lockstep.avg_ft_ms, p.rollback.avg_ft_ms,
                static_cast<unsigned long long>(p.rollback.rollbacks));
    points.push_back(p);
  }

  // ---- acceptance criteria ---------------------------------------------------
  bool ok = true;
  for (const Point& p : points) {
    if (!p.lockstep.converged || !p.rollback.converged) {
      std::printf("FAIL: RTT %.0f ms did not converge (lockstep %s, rollback %s)\n",
                  p.rtt_ms, p.lockstep.converged ? "ok" : "DIVERGED",
                  p.rollback.converged ? "ok" : "DIVERGED");
      ok = false;
    }
    if (p.rtt_ms < 100) continue;
    if (p.rollback.latency_ms >= p.lockstep.latency_ms) {
      std::printf("FAIL: RTT %.0f ms: rollback latency %.1f ms not below lockstep's "
                  "%.1f ms\n",
                  p.rtt_ms, p.rollback.latency_ms, p.lockstep.latency_ms);
      ok = false;
    }
    if (p.rollback.dev_ms > 2.0 * p.lockstep.dev_ms + 0.25) {
      std::printf("FAIL: RTT %.0f ms: rollback deviation %.3f ms exceeds 2x lockstep "
                  "(%.3f ms) + 0.25\n",
                  p.rtt_ms, p.rollback.dev_ms, p.lockstep.dev_ms);
      ok = false;
    }
  }
  std::printf("\nacceptance (latency below lockstep at RTT >= 100 ms, deviation within "
              "2x): %s\n",
              ok ? "PASS" : "FAIL");

  if (!json_path.empty()) {
    JsonWriter w;
    w.begin_object();
    w.key("schema").value("rtct.bench.v1");
    w.key("name").value("rollback_latency");
    w.key("meta").begin_object();
    w.key("game").value(base.game);
    w.key("frames").value(std::to_string(base.frames));
    w.key("rollback_input_delay").value(std::to_string(base.sync.rollback_input_delay));
    w.end_object();
    w.key("series").begin_object();
    auto series = [&w, &points](const char* key, auto proj) {
      w.key(key).begin_array();
      for (const auto& p : points) w.value(proj(p));
      w.end_array();
    };
    series("rtt_ms", [](const Point& p) { return p.rtt_ms; });
    series("lockstep_latency_ms", [](const Point& p) { return p.lockstep.latency_ms; });
    series("rollback_latency_ms", [](const Point& p) { return p.rollback.latency_ms; });
    series("lockstep_dev_ms", [](const Point& p) { return p.lockstep.dev_ms; });
    series("rollback_dev_ms", [](const Point& p) { return p.rollback.dev_ms; });
    series("lockstep_avg_ft_ms", [](const Point& p) { return p.lockstep.avg_ft_ms; });
    series("rollback_avg_ft_ms", [](const Point& p) { return p.rollback.avg_ft_ms; });
    series("rollbacks", [](const Point& p) { return p.rollback.rollbacks; });
    series("mispredicted_frames", [](const Point& p) { return p.rollback.mispredicted; });
    series("snapshots_saved", [](const Point& p) { return p.rollback.snapshots_saved; });
    series("snapshot_buffers", [](const Point& p) { return p.rollback.snapshot_buffers; });
    series("converged", [](const Point& p) {
      return static_cast<std::uint64_t>(p.lockstep.converged && p.rollback.converged);
    });
    w.end_object();
    w.end_object();
    std::ofstream out(json_path, std::ios::binary);
    out << w.str() << "\n";
    if (out.good()) {
      std::printf("wrote %s\n", json_path.c_str());
    } else {
      std::printf("FAILED to write %s\n", json_path.c_str());
      return 1;
    }
  }
  return ok ? 0 : 1;
}
