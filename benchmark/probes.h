// Outside-in probes: decorators around the program's public interfaces.
//
// Each decorator forwards every call unchanged to the object it wraps and
// records, around the call, what the benchmark needs: a step log for the
// input-latency model, wall stamps where the workload runs on the wall
// clock, and spans when tracing. None of them changes an argument, a return
// value or the order of calls, so a decorated session executes exactly the
// same frames as an undecorated one; the sim workloads check that.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/common/types.h"
#include "src/core/input_source.h"
#include "src/emu/game.h"
#include "src/net/transport.h"
#include "trace.h"

namespace rtctbench {

using rtct::FrameNo;
using rtct::InputWord;

/// One step_frame call on a replica.
struct StepEvent {
  FrameNo frame = 0;       ///< frame index the replica executed
  InputWord input = 0;     ///< merged input it was given
  FrameNo loop_frame = 0;  ///< frame-loop frame the call ran under
  std::int64_t t_ns = 0;   ///< wall stamp at the call (0 when not stamped)
};

/// What a ProbedGame leaves behind; owned by the benchmark, so it outlives
/// the replica (the testbed destroys its games when run_experiment returns).
struct ReplicaLog {
  std::vector<StepEvent> steps;    ///< filled when the probe logs steps
  std::int64_t first_step_ns = 0;      ///< wall stamp of the first step_frame
  std::int64_t first_step_cpu_ns = 0;  ///< process CPU clock at that moment
};

/// Decorates emu::IDeterministicGame (the step / digest / snapshot layer).
///
/// A step of a frame the replica has not executed before is a new frame and
/// runs under its own frame-loop frame. A step of an earlier frame is a
/// rollback re-simulation and runs under the next new frame, which is the
/// frame loop's position when the re-simulation happens.
class ProbedGame final : public rtct::emu::IDeterministicGame {
 public:
  struct Options {
    bool log_steps = false;  ///< keep a StepEvent per step_frame
    bool stamp = false;      ///< wall-stamp each StepEvent
  };

  ProbedGame(std::unique_ptr<rtct::emu::IDeterministicGame> inner, Tracer& tracer,
             std::uint8_t actor, ReplicaLog& log, Options opt)
      : inner_(std::move(inner)), tracer_(tracer), actor_(actor), log_(log), opt_(opt) {}

  void reset() override { inner_->reset(); }

  void step_frame(InputWord input) override {
    const FrameNo k = inner_->frame();
    if (log_.first_step_ns == 0) {
      log_.first_step_ns = now_ns();
      log_.first_step_cpu_ns = process_cpu_ns();
    }
    if (opt_.log_steps) {
      const FrameNo g = k >= next_new_ ? k : next_new_;
      if (k >= next_new_) next_new_ = k + 1;
      log_.steps.push_back(StepEvent{k, input, g, opt_.stamp ? now_ns() : 0});
    }
    Tracer::Scope s(tracer_, Layer::kStep, k, actor_);
    inner_->step_frame(input);
  }

  [[nodiscard]] std::uint64_t state_hash() const override {
    Tracer::Scope s(tracer_, Layer::kDigest, inner_->frame(), actor_);
    return inner_->state_hash();
  }
  [[nodiscard]] std::uint64_t state_digest(int version) const override {
    Tracer::Scope s(tracer_, Layer::kDigest, inner_->frame(), actor_);
    return inner_->state_digest(version);
  }
  [[nodiscard]] std::vector<std::uint64_t> page_digests() const override {
    Tracer::Scope s(tracer_, Layer::kDigest, inner_->frame(), actor_);
    return inner_->page_digests();
  }
  [[nodiscard]] std::uint32_t page_digest_base() const override {
    return inner_->page_digest_base();
  }
  [[nodiscard]] std::vector<std::uint8_t> save_state() const override {
    Tracer::Scope s(tracer_, Layer::kSave, inner_->frame(), actor_);
    return inner_->save_state();
  }
  void save_state_into(std::vector<std::uint8_t>& out) const override {
    Tracer::Scope s(tracer_, Layer::kSave, inner_->frame(), actor_);
    inner_->save_state_into(out);
  }
  bool load_state(std::span<const std::uint8_t> data) override {
    Tracer::Scope s(tracer_, Layer::kLoad, 0, actor_);
    const bool ok = inner_->load_state(data);
    tracer_.set_id(s.handle(), inner_->frame());
    return ok;
  }
  [[nodiscard]] FrameNo frame() const override { return inner_->frame(); }
  [[nodiscard]] std::uint64_t content_id() const override { return inner_->content_id(); }
  [[nodiscard]] std::string content_name() const override { return inner_->content_name(); }
  [[nodiscard]] bool faulted() const override { return inner_->faulted(); }
  [[nodiscard]] const rtct::emu::IRenderableGame* renderable() const override {
    return inner_->renderable();
  }

 private:
  std::unique_ptr<rtct::emu::IDeterministicGame> inner_;
  Tracer& tracer_;
  std::uint8_t actor_;
  ReplicaLog& log_;
  Options opt_;
  FrameNo next_new_ = 0;
};

/// One input_for_frame call: the moment a site sampled its player.
struct InputSample {
  FrameNo frame = 0;
  std::uint8_t value = 0;
  std::int64_t t_ns = 0;
};

/// Decorates core::InputSource. The realtime frame loop samples input
/// right after beginning a frame, so each call also closes the previous
/// frame's root span (or the set-up span) and opens this frame's.
class ProbedInput final : public rtct::core::InputSource {
 public:
  ProbedInput(rtct::core::InputSource& inner, Tracer& tracer, std::uint8_t actor)
      : inner_(inner), tracer_(tracer), actor_(actor) {}

  std::uint8_t input_for_frame(FrameNo frame) override {
    const std::int64_t t = now_ns();
    tracer_.end_open(Layer::kSetup);
    tracer_.end_open(Layer::kFrame);
    tracer_.begin(Layer::kFrame, frame, actor_);
    Tracer::Scope s(tracer_, Layer::kInput, frame, actor_);
    const std::uint8_t v = inner_.input_for_frame(frame);
    samples_.push_back(InputSample{frame, v, t});
    return v;
  }

  [[nodiscard]] const std::vector<InputSample>& samples() const { return samples_; }
  /// Frame most recently sampled (-1 before the first frame).
  [[nodiscard]] FrameNo current_frame() const {
    return samples_.empty() ? -1 : samples_.back().frame;
  }

 private:
  rtct::core::InputSource& inner_;
  Tracer& tracer_;
  std::uint8_t actor_;
  std::vector<InputSample> samples_;
};

/// A datagram seen at the transport boundary: payload fingerprint + stamp.
struct DatagramStamp {
  std::uint64_t fingerprint = 0;
  std::int64_t t_ns = 0;
};

/// Decorates net::PollableTransport (the socket layer of a realtime
/// session). Only used in traced runs.
class ProbedTransport final : public rtct::net::PollableTransport {
 public:
  ProbedTransport(rtct::net::PollableTransport& inner, Tracer& tracer, const ProbedInput& clock,
                  std::uint8_t actor)
      : inner_(inner), tracer_(tracer), frames_(clock), actor_(actor) {}

  void send(std::span<const std::uint8_t> payload) override {
    const std::int64_t t = now_ns();
    {
      Tracer::Scope s(tracer_, Layer::kUdpSend, frames_.current_frame(), actor_);
      inner_.send(payload);
    }
    ++sends_;
    bytes_ += payload.size();
    sent_.push_back(DatagramStamp{fingerprint(payload), t});
  }

  std::optional<rtct::net::Payload> try_recv() override {
    std::optional<rtct::net::Payload> p;
    {
      Tracer::Scope s(tracer_, Layer::kUdpRecv, frames_.current_frame(), actor_);
      p = inner_.try_recv();
    }
    ++recv_calls_;
    if (p) received_.push_back(DatagramStamp{fingerprint(*p), now_ns()});
    return p;
  }

  bool wait_readable(rtct::Dur timeout) override {
    Tracer::Scope s(tracer_, Layer::kUdpWait, frames_.current_frame(), actor_);
    ++wait_calls_;
    return inner_.wait_readable(timeout);
  }

  [[nodiscard]] bool valid() const override { return inner_.valid(); }
  [[nodiscard]] const std::string& last_error() const override { return inner_.last_error(); }
  void export_metrics(rtct::MetricsRegistry& reg) const override { inner_.export_metrics(reg); }

  [[nodiscard]] std::uint64_t sends() const { return sends_; }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  [[nodiscard]] std::uint64_t recv_calls() const { return recv_calls_; }
  [[nodiscard]] std::uint64_t wait_calls() const { return wait_calls_; }
  [[nodiscard]] const std::vector<DatagramStamp>& sent() const { return sent_; }
  [[nodiscard]] const std::vector<DatagramStamp>& received() const { return received_; }

  /// Payload fingerprint: pairs a datagram's send with its arrival.
  static std::uint64_t fingerprint(std::span<const std::uint8_t> bytes) {
    rtct::Fnv1a64 h;
    h.update(bytes);
    return h.digest();
  }

 private:
  rtct::net::PollableTransport& inner_;
  Tracer& tracer_;
  const ProbedInput& frames_;
  std::uint8_t actor_;
  std::uint64_t sends_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t recv_calls_ = 0;
  std::uint64_t wait_calls_ = 0;
  std::vector<DatagramStamp> sent_;
  std::vector<DatagramStamp> received_;
};

}  // namespace rtctbench
