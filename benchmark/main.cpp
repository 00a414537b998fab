// rtct benchmark program.
//
//   rtct_benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// Runs one workload (see NOTES.md), checks the program's outputs, and prints
// as its last stdout line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set; both lists are below and in BENCHMARK.json. A per-layer
// metric of a layer the workload does not exercise reads 0. Exit code 0
// when every check passed, 1 when a check failed, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <sys/stat.h>

#include "workloads.h"

namespace {

using rtctbench::RunOptions;
using rtctbench::RunResult;

struct Name {
  const char* name;
  const char* unit;
};

constexpr Name kEndToEnd[] = {
    {"setup_s", "s"},
    {"frames_per_s", "1/s"},
    {"input_latency_ms_p50", "ms"},
    {"input_latency_ms_p99", "ms"},
    {"frame_time_ms_p99", "ms"},
    {"synchrony_ms", "ms"},
    {"cpu_ms_per_frame", "ms"},
    {"peak_rss_mb", "MiB"},
};

constexpr Name kPerLayer[] = {
    {"emu.step_us", "us"},
    {"emu.steps_per_frame", "count"},
    {"digest.us", "us"},
    {"digest.calls_per_frame", "count"},
    {"snapshot.save_us", "us"},
    {"snapshot.saves_per_frame", "count"},
    {"snapshot.load_us", "us"},
    {"snapshot.loads_per_frame", "count"},
    {"setup.make_game_ms", "ms"},
    {"setup.handshake_ms", "ms"},
    {"setup.lobby_ms", "ms"},
    {"setup.cpu_ms", "ms"},
    {"rollback.resim_per_frame", "count"},
    {"rollback.mispredict_share", "ratio"},
    {"rollback.max_depth", "frames"},
    {"rollback.stall_ms_per_frame", "ms"},
    {"sync.msgs_per_frame", "count"},
    {"sync.inputs_per_msg", "count"},
    {"sync.retransmit_share", "ratio"},
    {"sync.stall_ms_per_frame", "ms"},
    {"spectate.catchup_frames", "frames"},
    {"spectate.observer_step_share", "ratio"},
    {"pacer.sleep_ms_per_frame", "ms"},
    {"pacer.overruns", "count"},
    {"realtime.polls_per_frame", "count"},
    {"realtime.recv_hit_share", "ratio"},
    {"realtime.wait_ms_per_frame", "ms"},
    {"udp.send_us", "us"},
    {"udp.sends_per_frame", "count"},
    {"udp.bytes_per_frame", "B"},
    {"udp.soft_drops", "count"},
    {"relay.dispatch_ns_mean", "ns"},
    {"relay.dispatch_ns_p50", "ns"},
    {"relay.dispatch_ns_p99", "ns"},
    {"relay.fanout_per_datagram", "count"},
    {"relay.drops", "count"},
    {"relay.cpu_ms_per_frame", "ms"},
    {"relay.latency_ms_p50", "ms"},
    {"relay.latency_ms_p99", "ms"},
    {"relay.cpu_us_per_datagram", "us"},
    {"testbed.other_us_per_frame", "us"},
    {"host.probe_ms", "ms"},
    {"host.wall_frames_per_s", "1/s"},
    {"trace.overhead_share", "ratio"},
    {"trace.reconcile_error_share", "ratio"},
};

int usage() {
  std::fprintf(stderr,
               "usage: rtct_benchmark --workload lockstep_sim|rollback_sim|relay_live "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
  return 2;
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

/// Completes the metric set for the mode: every listed name once, in list
/// order, with its unit; names the workload did not set read 0. A name the
/// workload set twice, set but not listed, or set with another unit is a
/// benchmark bug and fails the run.
template <std::size_t N>
void finish_metrics(RunResult& r, const Name (&names)[N], bool fill_missing) {
  std::vector<rtctbench::Metric> out;
  std::set<std::string> seen;
  for (const auto& m : r.metrics) {
    bool known = false;
    for (const auto& n : names) known = known || (m.name == n.name && m.unit == n.unit);
    if (!known || !seen.insert(m.name).second) r.fail("benchmark bug: metric " + m.name);
    if (!std::isfinite(m.value)) r.fail("metric " + m.name + " is not finite");
  }
  for (const auto& n : names) {
    const rtctbench::Metric* found = nullptr;
    for (const auto& m : r.metrics) {
      if (m.name == n.name) found = &m;
    }
    if (found == nullptr && !fill_missing) r.fail(std::string("metric ") + n.name + " missing");
    double v = found != nullptr ? found->value : 0.0;
    if (!std::isfinite(v)) v = 0.0;
    out.push_back(rtctbench::Metric{n.name, v, n.unit});
  }
  r.metrics = std::move(out);
}

void print_result(const RunResult& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                r.metrics[i].name.c_str(), r.metrics[i].value, r.metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  opt.out_dir = ".";
  std::uint64_t seed = 0, seconds = 0, trace = 0;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return usage();
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      have_seed = parse_u64(val, &seed);
      if (!have_seed) return usage();
    } else if (key == "--seconds") {
      have_seconds = parse_u64(val, &seconds) && seconds >= 1 && seconds <= 120;
      if (!have_seconds) return usage();
    } else if (key == "--trace") {
      if (!parse_u64(val, &trace) || trace > 1) return usage();
    } else if (key == "--out-dir") {
      opt.out_dir = val;
    } else {
      return usage();
    }
  }
  if (!have_seed || !have_seconds) return usage();
  opt.seed = seed;
  opt.seconds = static_cast<int>(seconds);
  opt.trace = trace == 1;
  if (opt.trace) ::mkdir(opt.out_dir.c_str(), 0755);

  RunResult r;
  if (opt.workload == "lockstep_sim") {
    rtctbench::run_lockstep_sim(opt, r);
  } else if (opt.workload == "rollback_sim") {
    rtctbench::run_rollback_sim(opt, r);
  } else if (opt.workload == "relay_live") {
    rtctbench::run_relay_live(opt, r);
  } else {
    return usage();
  }
  if (opt.trace) {
    finish_metrics(r, kPerLayer, /*fill_missing=*/true);
  } else {
    finish_metrics(r, kEndToEnd, /*fill_missing=*/false);
  }
  if (r.attempted == 0) r.fail("no operation was attempted");
  for (const auto& e : r.errors) std::fprintf(stderr, "check failed: %s\n", e.c_str());
  print_result(r);
  return r.correct ? 0 : 1;
}
