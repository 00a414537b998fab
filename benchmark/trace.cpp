#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <limits>
#include <vector>

namespace rtctbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
}  // namespace

std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

void HostProbe::sample() {
  // A byte-code loop over a 2 MiB table: dispatch, data-dependent branches
  // and scattered reads and writes, like interpreters stepping replicas
  // whose states together outgrow a core's L2 cache. A table that fits in
  // L2 misses the slowdowns that come from the shared caches (NOTES.md).
  static std::vector<std::uint32_t> table(1 << 19, 1);
  static volatile std::uint32_t sink = 0;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint32_t acc = 0;
  const std::int64_t t0 = thread_cpu_ns();
  for (int i = 0; i < 400'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint32_t& cell = table[x & (table.size() - 1)];
    switch (x >> 62) {
      case 0: cell += acc; break;
      case 1: acc ^= cell; break;
      case 2: acc += cell >> 3; break;
      default: cell = acc * 2654435761u; break;
    }
  }
  const std::int64_t t1 = thread_cpu_ns();
  sink = sink + acc;
  ms_.push_back(static_cast<double>(t1 - t0) / 1e6);
}

double HostProbe::median_ms() const { return ms_.empty() ? 0.0 : median(ms_); }

double HostProbe::slowdown_near(std::size_t i) const {
  constexpr std::size_t kRadius = 3;
  const std::size_t lo = i > kRadius ? i - kRadius : 0;
  const std::size_t hi = std::min(i + kRadius + 1, ms_.size());
  return median(std::vector<double>(ms_.begin() + static_cast<std::ptrdiff_t>(lo),
                                    ms_.begin() + static_cast<std::ptrdiff_t>(hi))) /
         kReferenceMs;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across execve,
  // so under a launcher (run.py) it would report the launcher's larger RSS.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kSession: return "testbed.session";
    case Layer::kSetup: return "realtime.setup";
    case Layer::kFrame: return "realtime.frame";
    case Layer::kMakeGame: return "cores.make_game";
    case Layer::kInput: return "core.input";
    case Layer::kStep: return "emu.step";
    case Layer::kDigest: return "emu.digest";
    case Layer::kSave: return "emu.save_state";
    case Layer::kLoad: return "emu.load_state";
    case Layer::kUdpSend: return "net.send";
    case Layer::kUdpRecv: return "net.try_recv";
    case Layer::kUdpWait: return "net.wait_readable";
    case Layer::kCount: break;
  }
  return "?";
}

void LayerTotals::add(const std::vector<Span>& spans) {
  for (const auto& s : spans) {
    const double d = static_cast<double>(s.end - s.start);
    const int l = static_cast<int>(s.layer);
    total_ns[l] += d;
    self_ns[l] += d;
    ++count[l];
    if (s.parent == Tracer::kNone) continue;
    const Span& p = spans[s.parent];
    if (s.start < p.start || s.end > p.end || s.end < s.start) well_formed = false;
    self_ns[static_cast<int>(p.layer)] -= d;
  }
}

double LayerTotals::self_sum_ns() const {
  double sum = 0;
  for (const double v : self_ns) sum += v;
  return sum;
}

double LayerTotals::mean_us(Layer l) const {
  const auto c = n(l);
  return c == 0 ? 0.0 : total(l) / static_cast<double>(c) / 1000.0;
}

bool write_spans(const std::string& path, const std::vector<const Tracer*>& tracers) {
  std::int64_t t0 = std::numeric_limits<std::int64_t>::max();
  for (const auto* t : tracers) {
    for (const auto& s : t->spans()) t0 = std::min(t0, s.start);
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread,actor,layer,start_ns,end_ns,parent,id\n");
  for (std::size_t ti = 0; ti < tracers.size(); ++ti) {
    for (const auto& s : tracers[ti]->spans()) {
      std::fprintf(f, "%zu,%u,%s,%lld,%lld,%lld,%lld\n", ti, static_cast<unsigned>(s.actor),
                   layer_name(s.layer),
                   static_cast<long long>(s.start - t0), static_cast<long long>(s.end - t0),
                   s.parent == Tracer::kNone ? -1LL : static_cast<long long>(s.parent),
                   static_cast<long long>(s.id));
    }
  }
  return std::fclose(f) == 0;
}

void check_reconciles(RunResult& r, const LayerTotals& t, double wall_ns) {
  if (!t.well_formed) r.fail("trace: a span lies outside its parent");
  const double err = wall_ns > 0 ? std::abs(t.self_sum_ns() - wall_ns) / wall_ns : 1.0;
  r.put("trace.reconcile_error_share", err, "ratio");
  if (err > 0.01) {
    r.fail("trace: layer self times sum to " + std::to_string(t.self_sum_ns()) +
           " ns but the measured wall time is " + std::to_string(wall_ns) + " ns");
  }
}

void put_emu_layers(RunResult& r, const LayerTotals& t, double frames) {
  const struct {
    Layer layer;
    const char* time_name;
    const char* count_name;
  } rows[] = {
      {Layer::kStep, "emu.step_us", "emu.steps_per_frame"},
      {Layer::kDigest, "digest.us", "digest.calls_per_frame"},
      {Layer::kSave, "snapshot.save_us", "snapshot.saves_per_frame"},
      {Layer::kLoad, "snapshot.load_us", "snapshot.loads_per_frame"},
  };
  for (const auto& row : rows) {
    r.put(row.time_name, t.mean_us(row.layer), "us");
    r.put(row.count_name, ratio(static_cast<double>(t.n(row.layer)), frames), "count");
  }
}

}  // namespace rtctbench
