// Per-frame timing/consistency records — what the paper's time server
// collected (§4: "we record the beginning time of every frame of each site
// to the time server"), plus state hashes so logical consistency can be
// *verified* rather than assumed.
//
// The timeline also serializes to JSON ("rtct.timeline.v1": exact-ns
// per-frame columns plus the Figure-1/Figure-2 summary statistics and the
// §4.2 latency breakdown) so sessions can be archived, diffed and plotted;
// tools/rtct_trace loads two exports back and reports first divergence and
// synchrony — the paper's whole evaluation, offline.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/stats.h"
#include "src/common/time.h"
#include "src/common/types.h"

namespace rtct {
class JsonValue;       // src/common/json.h
class MetricsRegistry;  // src/common/telemetry.h
}  // namespace rtct

namespace rtct::core {

struct FrameRecord {
  FrameNo frame = 0;
  Time begin_time = 0;        ///< when BeginFrameTiming ran (→ time server)
  Time input_ready_time = 0;  ///< when SyncInput returned
  Dur compute = 0;            ///< Transition + render cost (§4.2 "5ms" term)
  Dur wait = 0;               ///< sleep granted by EndFrameTiming
  Dur stall = 0;              ///< time spent blocked in SyncInput's loop
  std::uint64_t state_hash = 0;  ///< game state after Transition()
};

/// The §4.2 latency-budget terms, averaged per frame (ms): how a frame's
/// period divides between waiting for remote input, executing Transition,
/// and sleeping out the pacer's remainder. `other` is what is left of the
/// mean frame time after those three (loop overhead; ~0 in simulation).
struct LatencyBreakdown {
  double frame_ms = 0;    ///< mean frame time (consecutive begin deltas)
  double stall_ms = 0;    ///< input submit → ready (network wait)
  double compute_ms = 0;  ///< ready → transition done
  double sleep_ms = 0;    ///< EndFrameTiming wait actually granted
  double other_ms = 0;    ///< frame_ms − stall − compute − sleep
};

class FrameTimeline {
 public:
  void reserve(std::size_t n) { records_.reserve(n); }
  void add(const FrameRecord& r) { records_.push_back(r); }

  [[nodiscard]] const std::vector<FrameRecord>& records() const { return records_; }
  [[nodiscard]] std::size_t size() const { return records_.size(); }

  /// Rewrites one record's state hash in place. Under rollback FrameLoop
  /// records a frame's *speculative* digest when it executes and backfills
  /// the canonical confirmed digest once the frame is final, so archived
  /// timelines always compare confirmed state.
  void set_state_hash(std::size_t i, std::uint64_t hash) {
    records_[i].state_hash = hash;
  }

  /// Frame begin times in ms (the raw time-server log of §4.1.1).
  [[nodiscard]] std::vector<double> begin_times_ms() const;

  /// Frame times (consecutive begin-time deltas) as a Series — the paper's
  /// Figure 1 statistic base.
  [[nodiscard]] Series frame_times() const;

  /// Time spent stalled in SyncInput per frame, in ms.
  [[nodiscard]] Series stalls() const;
  /// Transition+render cost per frame, in ms.
  [[nodiscard]] Series computes() const;
  /// Pacer-granted sleep per frame, in ms.
  [[nodiscard]] Series waits() const;

  /// Number of frames whose SyncInput blocked on the network for >= 1 ms.
  [[nodiscard]] std::size_t stalled_frames() const;

  /// Mean per-frame split of the §4.2 latency budget.
  [[nodiscard]] LatencyBreakdown latency_breakdown() const;

  /// Exports the per-frame instruments under "timeline." names.
  void export_metrics(MetricsRegistry& reg) const;

 private:
  std::vector<FrameRecord> records_;
};

/// Figure 2's statistic: per-frame begin-time difference (a - b, in ms)
/// over the common prefix of two timelines. Summarize().mean_abs is the
/// paper's "absolute average" (footnote 11).
Series synchrony_differences(const FrameTimeline& a, const FrameTimeline& b);

/// Logical consistency check: first frame index at which the two replicas'
/// state hashes differ, or -1 if they never diverge over the common prefix.
FrameNo first_divergence(const FrameTimeline& a, const FrameTimeline& b);

/// Serializes a timeline as "rtct.timeline.v1" (see docs/PROTOCOL.md —
/// exact-ns columns, hex state hashes, Figure-1 summary block). `name`
/// labels the session/site; `cfps` gives readers the nominal frame period.
std::string timeline_to_json(const FrameTimeline& t, std::string_view name, int cfps);

/// Loads a "rtct.timeline.v1" document back. Returns nullopt when the
/// schema tag, the column set, or the column lengths are wrong.
std::optional<FrameTimeline> timeline_from_json(const JsonValue& doc);

}  // namespace rtct::core
