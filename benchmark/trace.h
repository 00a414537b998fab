// Span recorder and run result shared by every workload.
//
// Spans are recorded from the benchmark's own files only, around calls into
// the program's public interfaces (see probes.h). Each thread that calls
// into a decorated object owns one Tracer, so recording needs no locks. A
// span is {layer, start, end, parent, id}; `id` is the frame or datagram
// the work belongs to. Spans stay in memory and are written out once when
// the run ends.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/stats.h"

namespace rtctbench {

/// Steady-clock nanoseconds (the same clock the program uses).
std::int64_t now_ns();
/// CPU time of the calling thread / of the whole process, nanoseconds.
std::int64_t thread_cpu_ns();
std::int64_t process_cpu_ns();
/// Peak resident set size of the process so far, MiB.
double peak_rss_mb();

/// Host-speed probe. The shared VM this benchmark was built on changes
/// speed by up to a third within minutes and by half between hours, and
/// the program's CPU-bound figures follow (NOTES.md). A sample runs a fixed
/// piece of the benchmark's own work and reads the thread CPU time it took;
/// no change to the program can move it. Dividing a CPU time by the
/// slowdown around it gives the CPU time it would have taken on the
/// reference host.
class HostProbe {
 public:
  /// The probe's CPU time on the reference host (the 4-vCPU VM NOTES.md
  /// describes, at its usual speed), ms.
  static constexpr double kReferenceMs = 6.0;

  void sample();
  [[nodiscard]] double median_ms() const;
  /// Median of samples i-3 .. i+3 over kReferenceMs: above 1 on a slower
  /// host. The host's speed changes within seconds, so a figure is scaled
  /// by the samples taken around it rather than by the run's median.
  [[nodiscard]] double slowdown_near(std::size_t i) const;

 private:
  std::vector<double> ms_;
};

enum class Layer : std::uint8_t {
  kSession,     ///< testbed: one run_experiment call (root)
  kSetup,       ///< realtime: session construction + handshake (root)
  kFrame,       ///< realtime: input sample of frame f to that of f+1 (root)
  kMakeGame,    ///< cores: registry make_game
  kInput,       ///< core::InputSource::input_for_frame
  kStep,        ///< emu: step_frame
  kDigest,      ///< emu: state_digest / state_hash
  kSave,        ///< emu: save_state / save_state_into
  kLoad,        ///< emu: load_state
  kUdpSend,     ///< net: PollableTransport::send
  kUdpRecv,     ///< net: PollableTransport::try_recv
  kUdpWait,     ///< net: PollableTransport::wait_readable
  kCount
};
const char* layer_name(Layer l);

struct Span {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int64_t id = 0;
  std::uint32_t parent = 0;
  Layer layer = Layer::kSession;
  std::uint8_t actor = 0;  ///< replica/site the span belongs to
};

class Tracer {
 public:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  explicit Tracer(bool enabled = false) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one. Returns its handle, or
  /// kNone when tracing is off.
  std::uint32_t begin(Layer layer, std::int64_t id, std::uint8_t actor = 0) {
    if (!enabled_) return kNone;
    const auto idx = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(
        Span{now_ns(), 0, id, stack_.empty() ? kNone : stack_.back(), layer, actor});
    stack_.push_back(idx);
    return idx;
  }
  /// Closes the innermost open span, which must be `handle`.
  void end(std::uint32_t handle) {
    if (handle == kNone) return;
    spans_[handle].end = now_ns();
    if (stack_.empty() || stack_.back() != handle) nesting_ok_ = false;
    if (!stack_.empty()) stack_.pop_back();
  }
  /// Relabels an open or closed span (for ids known only after the call).
  void set_id(std::uint32_t handle, std::int64_t id) {
    if (handle != kNone) spans_[handle].id = id;
  }
  /// Closes the innermost open span if it has layer `layer`.
  void end_open(Layer layer) {
    if (!stack_.empty() && spans_[stack_.back()].layer == layer) end(stack_.back());
  }

  class Scope {
   public:
    Scope(Tracer& t, Layer layer, std::int64_t id, std::uint8_t actor = 0)
        : t_(t), h_(t.begin(layer, id, actor)) {}
    ~Scope() { t_.end(h_); }
    [[nodiscard]] std::uint32_t handle() const { return h_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::uint32_t h_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] bool nesting_ok() const { return nesting_ok_ && stack_.empty(); }

 private:
  bool enabled_;
  bool nesting_ok_ = true;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// Per-layer totals over a set of spans. A span's self time is its
/// duration minus the durations of its direct children.
struct LayerTotals {
  std::array<double, static_cast<int>(Layer::kCount)> self_ns{};
  std::array<double, static_cast<int>(Layer::kCount)> total_ns{};
  std::array<std::uint64_t, static_cast<int>(Layer::kCount)> count{};
  bool well_formed = true;  ///< every child lies inside its parent

  void add(const std::vector<Span>& spans);
  [[nodiscard]] double self_sum_ns() const;
  [[nodiscard]] double mean_us(Layer l) const;
  [[nodiscard]] std::uint64_t n(Layer l) const { return count[static_cast<int>(l)]; }
  [[nodiscard]] double self(Layer l) const { return self_ns[static_cast<int>(l)]; }
  [[nodiscard]] double total(Layer l) const { return total_ns[static_cast<int>(l)]; }
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir;  ///< where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  void put(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
};

/// Writes every tracer's spans as CSV (thread,actor,layer,start_ns,end_ns,parent,id;
/// times relative to the earliest span) to `path`.
bool write_spans(const std::string& path, const std::vector<const Tracer*>& tracers);

/// Adds the trace-shape checks shared by every traced workload: every span
/// lies inside its parent, and the layers' self times sum to `wall_ns`, the
/// wall time the workload read around its root spans, within 1 %. Self times
/// telescope, so the sum is an identity once spans nest; the check catches
/// broken nesting and lost or overlapping spans, not time the probes miss
/// (that time is the root layers' own self time by construction).
void check_reconciles(RunResult& r, const LayerTotals& t, double wall_ns);

/// Puts the emu-layer metrics (step, digest, snapshot: mean span time and
/// calls per session frame) derived from traced spans.
void put_emu_layers(RunResult& r, const LayerTotals& t, double frames);

/// a / b, or 0 when b is 0 (a layer the workload never exercised).
inline double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

/// Median of a sample (rtct::percentile interpolates, so p50 is the median).
inline double median(std::vector<double> xs) { return rtct::percentile(std::move(xs), 50); }

}  // namespace rtctbench
