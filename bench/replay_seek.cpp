// REPLAY-SEEK — RTCTRPL2 random-access cost: seek latency and re-simulated
// frames versus recording length, at keyframe intervals 150 / 600 / 1200,
// against the keyframeless v1 baseline (every seek re-simulates from
// genesis).
//
// The embedded keyframes bound a seek's re-simulation to at most one
// interval, so mean resim should sit near interval/2 regardless of where
// in the recording the target lands — while the v1 baseline's cost grows
// linearly with the target frame. That gap is the whole point of the v2
// container.
//
// Usage: replay_seek [frames] [--seeks K] [--json PATH]
// Emits "rtct.bench.v1" JSON (validated in CI by rtct_trace --check) and
// self-checks the acceptance criterion: mean resim <= interval, and every
// seek digest equals the linear-replay digest at that frame.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/common/random.h"
#include "src/core/replay.h"
#include "src/emu/game.h"
#include "src/cores/registry.h"

namespace {

using namespace rtct;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SeekPoint {
  int interval = 0;
  int frames = 0;
  std::size_t keyframes = 0;
  std::size_t container_bytes = 0;
  double seek_ns_mean = 0;      ///< keyframed seek, mean over K targets
  double resim_frames_mean = 0; ///< frames re-simulated per keyframed seek
  double linear_ns_mean = 0;    ///< v1 baseline: same targets, genesis resim
  double linear_resim_mean = 0;
  bool digests_agree = true;    ///< every seek matched the linear digest
};

/// Records `frames` of a deterministic session (inputs from `rng`) into a
/// keyframed v2 replay and, in parallel, captures the per-frame digests
/// that every seek must reproduce.
core::Replay record_session(const char* game, int frames, int interval, Rng rng,
                            std::vector<std::uint64_t>* linear_digests) {
  auto m = cores::make_game(game);
  core::SyncConfig cfg;
  cfg.replay_keyframe_interval = interval;
  core::Replay rec(m->content_id(), cfg, m->content_name());
  linear_digests->clear();
  linear_digests->reserve(static_cast<std::size_t>(frames));
  for (int f = 0; f < frames; ++f) {
    const auto input = static_cast<InputWord>(rng.next_u64());
    m->step_frame(input);
    rec.record(input);
    linear_digests->push_back(m->state_digest(emu::kStateDigestVersion));
    if (rec.keyframe_due()) rec.record_keyframe(*m);
  }
  return rec;
}

SeekPoint run_point(const char* game, int frames, int interval, int seeks) {
  SeekPoint p;
  p.interval = interval;
  p.frames = frames;

  std::vector<std::uint64_t> linear;
  const core::Replay rec = record_session(game, frames, interval, Rng(0x5EED), &linear);
  p.keyframes = rec.keyframes().size();
  std::vector<std::uint8_t> wire;
  rec.serialize_into(wire);
  p.container_bytes = wire.size();

  // The v1 baseline: same inputs, no keyframes — every seek restarts at
  // genesis.
  const core::Replay v1 = [&] {
    core::SyncConfig cfg;
      cfg.replay_keyframe_interval = 0;
    core::Replay r(rec.content_id(), cfg);
    for (FrameNo f = 0; f < rec.frames(); ++f) {
      r.record(rec.inputs()[static_cast<std::size_t>(f)]);
    }
    return r;
  }();

  auto m = cores::make_game(game);
  Rng targets(0x5EEC + static_cast<std::uint64_t>(interval));
  std::int64_t seek_total = 0;
  std::int64_t linear_total = 0;
  std::int64_t resim_total = 0;
  std::int64_t linear_resim_total = 0;
  for (int i = 0; i < seeks; ++i) {
    const auto target = static_cast<FrameNo>(targets.uniform(0, frames - 1));
    core::Replay::SeekStats st;
    std::int64_t t0 = now_ns();
    const auto digest = rec.seek(*m, target, emu::kStateDigestVersion, &st);
    seek_total += now_ns() - t0;
    resim_total += st.resimulated;

    core::Replay::SeekStats lst;
    t0 = now_ns();
    const auto linear_digest = v1.seek(*m, target, emu::kStateDigestVersion, &lst);
    linear_total += now_ns() - t0;
    linear_resim_total += lst.resimulated;

    if (!digest || !linear_digest || *digest != *linear_digest ||
        *digest != linear[static_cast<std::size_t>(target)]) {
      p.digests_agree = false;
    }
  }
  p.seek_ns_mean = static_cast<double>(seek_total) / seeks;
  p.resim_frames_mean = static_cast<double>(resim_total) / seeks;
  p.linear_ns_mean = static_cast<double>(linear_total) / seeks;
  p.linear_resim_mean = static_cast<double>(linear_resim_total) / seeks;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  int frames = 2400;  // CI-sized; 2 keyframes even at the widest interval
  int seeks = 32;
  std::string json_path = "BENCH_replay_seek.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--seeks") == 0 && i + 1 < argc) {
      seeks = std::atoi(argv[++i]);
    } else {
      frames = std::atoi(argv[i]);
    }
  }
  const char* game = "duel";
  const int intervals[] = {150, 600, 1200};

  std::printf("=== REPLAY-SEEK: keyframed seek vs genesis re-simulation (%s, %d frames, %d seeks) ===\n\n",
              game, frames, seeks);
  std::printf("%9s %7s %10s %13s %12s %13s %13s\n", "interval", "kfs", "bytes",
              "seek us", "resim/seek", "linear us", "linear resim");
  std::vector<SeekPoint> points;
  bool ok = true;
  for (int interval : intervals) {
    points.push_back(run_point(game, frames, interval, seeks));
    const SeekPoint& p = points.back();
    std::printf("%9d %7zu %10zu %13.1f %12.1f %13.1f %13.1f\n", p.interval, p.keyframes,
                p.container_bytes, p.seek_ns_mean / 1e3, p.resim_frames_mean,
                p.linear_ns_mean / 1e3, p.linear_resim_mean);
    if (!p.digests_agree) {
      std::printf("FAIL: a seek digest disagreed with the linear replay at interval %d\n",
                  p.interval);
      ok = false;
    }
    if (p.resim_frames_mean > static_cast<double>(p.interval)) {
      std::printf("FAIL: mean resim %.1f exceeds the keyframe interval %d\n",
                  p.resim_frames_mean, p.interval);
      ok = false;
    }
  }

  JsonWriter w;
  w.begin_object();
  w.key("schema").value("rtct.bench.v1");
  w.key("name").value("replay_seek");
  w.key("meta").begin_object();
  w.key("game").value(game);
  w.key("frames").value(std::to_string(frames));
  w.key("seeks").value(std::to_string(seeks));
  w.end_object();
  w.key("series").begin_object();
  auto series = [&w, &points](const char* key, auto proj) {
    w.key(key).begin_array();
    for (const auto& p : points) w.value(proj(p));
    w.end_array();
  };
  series("interval", [](const SeekPoint& p) { return static_cast<std::uint64_t>(p.interval); });
  series("keyframes", [](const SeekPoint& p) { return static_cast<std::uint64_t>(p.keyframes); });
  series("container_bytes",
         [](const SeekPoint& p) { return static_cast<std::uint64_t>(p.container_bytes); });
  series("seek_ns_mean", [](const SeekPoint& p) { return p.seek_ns_mean; });
  series("resim_frames_mean", [](const SeekPoint& p) { return p.resim_frames_mean; });
  series("linear_ns_mean", [](const SeekPoint& p) { return p.linear_ns_mean; });
  series("linear_resim_mean", [](const SeekPoint& p) { return p.linear_resim_mean; });
  w.end_object();
  w.end_object();

  std::ofstream out(json_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::printf("FAILED to write %s\n", json_path.c_str());
    return 1;
  }
  out << w.take() << '\n';
  std::printf("\nwrote %s\n", json_path.c_str());
  if (!ok) return 1;
  std::printf("PASS: every seek reproduced the linear digest; mean resim bounded by the interval\n");
  return 0;
}
