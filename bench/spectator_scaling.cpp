// SPEC-SCALE — spectator fan-out scaling of the SpectatorBroadcastHub.
//
// All observers sit at identical cursors (the common case: a healthy
// broadcast where everyone acks promptly), so the hub should pay encode
// work ONCE per flush regardless of observer count — bytes_encoded must
// grow sub-linearly (in practice: stay flat) in N while bytes_sent grows
// linearly.
//
// Usage: spectator_scaling [frames] [--json PATH]
// Emits "rtct.bench.v1" JSON (validated in CI by rtct_trace --check) and
// self-checks the sub-linearity acceptance criterion.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/core/spectate.h"
#include "src/core/wire.h"
#include "src/cores/registry.h"

namespace {

using namespace rtct;

constexpr int kWarmFrames = 60;   ///< frames executed before the snapshot
constexpr int kFlushEvery = 3;    ///< frames per serve/ack round (~50 ms)

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ScalePoint {
  int observers = 0;
  double hub_serve_ms = 0;        ///< hub-side work: on_frame + serve + acks
  std::uint64_t hub_bytes_encoded = 0;
  std::uint64_t hub_bytes_sent = 0;
  std::uint64_t hub_feed_encodes = 0;
  std::uint64_t hub_snapshot_encodes = 0;
};

InputWord input_for(int f) { return static_cast<InputWord>((f * 2654435761u) & 0xFFFF); }

/// The drill: warm the machine, join everyone, serve the snapshot, then
/// `frames` live frames with a serve + cumulative-ack round every
/// kFlushEvery frames.
ScalePoint run_point(int n, int frames) {
  ScalePoint p;
  p.observers = n;
  std::vector<std::uint8_t> scratch;
  auto m = cores::make_game("duel");
  core::SpectatorBroadcastHub hub(m->content_id(), core::SyncConfig{});
  std::vector<core::SpectatorBroadcastHub::ObserverId> ids;
  ids.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) ids.push_back(hub.add_observer());
  for (int f = 0; f < kWarmFrames; ++f) m->step_frame(input_for(f));

  std::int64_t total = 0;
  Time now = 0;
  std::int64_t t0 = now_ns();
  for (auto id : ids) {
    hub.ingest(id, core::Message{core::JoinRequestMsg{m->content_id()}});
  }
  if (hub.wants_snapshot() && m->frame() > 0) {
    m->save_state_into(scratch);
    hub.provide_snapshot(m->frame() - 1, scratch);
  }
  for (auto id : ids) (void)hub.make_message(id, now);
  for (auto id : ids) {
    hub.ingest(id, core::Message{core::FeedAckMsg{m->frame() - 1}});
  }
  total += now_ns() - t0;

  for (int f = 0; f < frames; ++f) {
    m->step_frame(input_for(kWarmFrames + f));
    const FrameNo fr = m->frame() - 1;
    t0 = now_ns();
    hub.on_frame(fr, input_for(kWarmFrames + f));
    if ((f + 1) % kFlushEvery == 0 || f + 1 == frames) {
      now += 1'000'000;
      for (auto id : ids) (void)hub.make_message(id, now);
      for (auto id : ids) hub.ingest(id, core::Message{core::FeedAckMsg{fr}});
    }
    total += now_ns() - t0;
  }
  p.hub_serve_ms = static_cast<double>(total) / 1e6;
  const core::SpectatorHubStats& s = hub.stats();
  p.hub_bytes_encoded = s.bytes_encoded;
  p.hub_bytes_sent = s.bytes_sent;
  p.hub_feed_encodes = s.feed_encodes;
  p.hub_snapshot_encodes = s.snapshot_encodes;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  int frames = 600;  // CI-sized
  std::string json_path = "BENCH_spectator_scaling.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      frames = std::atoi(argv[i]);
    }
  }

  const int counts[] = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  std::vector<ScalePoint> points;
  std::printf("=== SPEC-SCALE: broadcast hub fan-out (%d frames) ===\n\n", frames);
  std::printf("%9s %14s %16s %14s\n", "observers", "hub serve ms", "hub enc bytes",
              "hub sent bytes");
  for (int n : counts) {
    points.push_back(run_point(n, frames));
    const ScalePoint& p = points.back();
    std::printf("%9d %14.2f %16llu %14llu\n", p.observers, p.hub_serve_ms,
                static_cast<unsigned long long>(p.hub_bytes_encoded),
                static_cast<unsigned long long>(p.hub_bytes_sent));
  }

  JsonWriter w;
  w.begin_object();
  w.key("schema").value("rtct.bench.v1");
  w.key("name").value("spectator_scaling");
  w.key("meta").begin_object();
  w.key("game").value("duel");
  w.key("frames").value(std::to_string(frames));
  w.key("flush_every_frames").value(std::to_string(kFlushEvery));
  w.end_object();
  w.key("series").begin_object();
  auto series = [&w, &points](const char* key, auto proj) {
    w.key(key).begin_array();
    for (const auto& p : points) w.value(proj(p));
    w.end_array();
  };
  series("observers", [](const ScalePoint& p) {
    return static_cast<std::uint64_t>(p.observers);
  });
  series("hub_serve_ms", [](const ScalePoint& p) { return p.hub_serve_ms; });
  series("hub_bytes_encoded", [](const ScalePoint& p) { return p.hub_bytes_encoded; });
  series("hub_bytes_sent", [](const ScalePoint& p) { return p.hub_bytes_sent; });
  series("hub_feed_encodes", [](const ScalePoint& p) { return p.hub_feed_encodes; });
  series("hub_snapshot_encodes",
         [](const ScalePoint& p) { return p.hub_snapshot_encodes; });
  w.end_object();
  w.end_object();

  std::ofstream out(json_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::printf("FAILED to write %s\n", json_path.c_str());
    return 1;
  }
  out << w.take() << '\n';
  std::printf("\nwrote %s\n", json_path.c_str());

  // Acceptance gate: with identical cursors the hub's encode work must be
  // sub-linear in observer count (flat, in practice), while each payload
  // still reaches every observer.
  const ScalePoint& one = points.front();
  const ScalePoint& big = points.back();
  const double enc_ratio =
      static_cast<double>(big.hub_bytes_encoded) / static_cast<double>(one.hub_bytes_encoded);
  const double sent_ratio =
      static_cast<double>(big.hub_bytes_sent) / static_cast<double>(one.hub_bytes_sent);
  std::printf("encoded-bytes growth 1 -> %d observers: %.2fx (sent grows %.0fx)\n",
              big.observers, enc_ratio, sent_ratio);
  const bool sub_linear = enc_ratio < static_cast<double>(big.observers) / 4.0;
  const bool fan_out_real = big.hub_bytes_sent > one.hub_bytes_sent * 32;
  if (!sub_linear) std::printf("FAIL: hub encode work scales with observer count\n");
  if (!fan_out_real) std::printf("FAIL: fan-out did not actually serve the observers\n");
  return (sub_linear && fan_out_real) ? 0 : 1;
}
