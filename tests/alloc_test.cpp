// Heap allocations on the steady-state frame path, counted by a global
// operator new that this test binary alone replaces.
//
// Each case counts over a window that holds only steady frames, or takes
// the difference between a 1,800-frame and a 900-frame session of the same
// seeds, so set-up and teardown cancel. The counts are exact: a change that
// adds an allocation to a frame, a datagram or a flush fails here on every
// build leg. What remains is named beside each pin.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "src/core/frame_loop.h"
#include "src/core/input_source.h"
#include "src/cores/registry.h"
#include "src/testbed/experiment.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace rtct {
namespace {

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

// ---- a sans-IO FrameLoop pair ------------------------------------------------

struct Site {
  Site(SiteId id, const core::SyncConfig& cfg, int frames)
      : game(cores::make_game("ac16:duel")),
        input(static_cast<std::uint64_t>(51 + id)),
        loop(id, 2, *game, input, cfg, core::PacingPolicy::kFull, frames) {}
  std::unique_ptr<emu::IDeterministicGame> game;
  core::MasherInput input;
  core::FrameLoop loop;
};

/// Steps a site until it waits on the network or on a later time.
void run(Site& s, Time now) {
  core::LoopWait w;
  do {
    w = s.loop.step(now);
  } while (w.kind == core::LoopWait::Kind::kSleep && w.until <= now);
}

/// Flushes `from`'s datagrams straight into `to`: the span of one loop's
/// encode buffer goes into the other's decoder, so the harness itself
/// allocates nothing.
void flush(Site& from, Site& to, Time now) {
  if (auto d = from.loop.session_datagram(now)) to.loop.on_datagram(*d, now);
  if (auto d = from.loop.sync_datagram(to.loop.peer().site(), now)) {
    to.loop.on_datagram(*d, now);
  }
}

TEST(AllocTest, LockstepFrameLoopPairSteadyWindow) {
  constexpr int kFrames = 1200;
  constexpr std::size_t kWindowBegin = 300;
  constexpr std::size_t kWindowEnd = 900;
  core::SyncConfig cfg;
  Site a(0, cfg, kFrames);
  Site b(1, cfg, kFrames);
  std::uint64_t in_window = 0;
  for (Time now = 0; a.loop.timeline().size() < kWindowEnd; now += milliseconds(1)) {
    ASSERT_LT(now, seconds(60));
    const bool steady = a.loop.timeline().size() >= kWindowBegin;
    const std::uint64_t before = allocations();
    if (now % cfg.send_flush_period == 0) {
      flush(a, b, now);
      flush(b, a, now);
    }
    run(a, now);
    run(b, now);
    if (steady) in_window += allocations() - before;
  }
  ASSERT_EQ(a.loop.rollback(), nullptr);
  EXPECT_EQ(core::first_divergence(a.loop.timeline(), b.loop.timeline()), -1);
  std::printf("FrameLoop pair, frames %zu..%zu: %llu allocations\n", kWindowBegin, kWindowEnd,
              static_cast<unsigned long long>(in_window));
  // Per site, and nothing else: the replay's input log doubles once (512
  // -> 1,024 entries), and frame 600's replay keyframe copies the state
  // into a new buffer and grows the keyframe list. Encode, decode, ingest,
  // Transition and digest allocate nothing.
  EXPECT_EQ(in_window, 2u * (1 + 2));
}

// ---- whole testbed sessions ----------------------------------------------------

/// A benchmark workload's configuration (benchmark/sim_workloads.cpp) with
/// fixed seeds. The observers join at fixed times, so a longer session
/// differs from a shorter one only in its extra steady frames.
testbed::ExperimentConfig workload(const char* game, bool rollback, Dur delay, Dur jitter,
                                   double loss, int observers, int frames) {
  testbed::ExperimentConfig cfg;
  cfg.game = game;
  cfg.frames = frames;
  cfg.sync.rollback = rollback;
  for (auto* net : {&cfg.net_a_to_b, &cfg.net_b_to_a}) {
    net->delay = delay;
    net->jitter = jitter;
    net->loss = loss;
  }
  cfg.input_seed[0] = 11;
  cfg.input_seed[1] = 12;
  cfg.net_seed = 13;
  cfg.input_hold_frames = 6;
  cfg.observers = observers;
  const Dur length = 900 * cfg.sync.frame_period();
  cfg.observer_join_delays = {length / 4, length / 2};
  return cfg;
}

testbed::ExperimentConfig lockstep_sim(int frames) {
  return workload("ac16:duel", false, milliseconds(50), milliseconds(5), 0.01, 2, frames);
}
testbed::ExperimentConfig rollback_sim(int frames) {
  return workload("agent86:skirmish", true, milliseconds(75), milliseconds(10), 0.02, 0, frames);
}

std::uint64_t session_allocations(const testbed::ExperimentConfig& cfg) {
  const std::uint64_t before = allocations();
  const testbed::ExperimentResult res = testbed::run_experiment(cfg);
  const std::uint64_t n = allocations() - before;
  EXPECT_TRUE(res.converged());
  EXPECT_EQ(res.site[0].rollback_mode, cfg.sync.rollback);
  if (cfg.observers > 0) {
    EXPECT_TRUE(res.observers_consistent());
  }
  return n;
}

/// Allocations of session frames 900..1,800, counted as the difference of
/// two whole sessions after a warm-up run (first-use statics).
std::uint64_t steady_allocations(testbed::ExperimentConfig (*make)(int)) {
  (void)session_allocations(make(900));
  const std::uint64_t short_run = session_allocations(make(900));
  EXPECT_EQ(session_allocations(make(900)), short_run);  // counts are exact
  return session_allocations(make(1800)) - short_run;
}

void print_steady(const char* name, std::uint64_t n) {
  std::printf("%s: %llu allocations over 900 frames (%.2f per frame)\n", name,
              static_cast<unsigned long long>(n), static_cast<double>(n) / 900);
}

// Two sites and two observers. Of the 3,616:
// - 3,590 are one owning Payload per datagram delivered: SimEndpoint copies
//   a datagram once at send, and try_recv hands that buffer to the
//   receiver, whose DatagramTransport signature returns an owning Payload;
// - 14 are the observers' SpectatorClient pending-input deques, one block
//   per 128 frames each;
// - 8 are the replay keyframes of frames 1,200 and 1,800 at each site
//   (state copy and keyframe-list growth), 4 are amortized growth of other
//   history vectors.
// Kernel events, trigger waits, SYNC encode/decode, feed encodes (pooled
// shared buffers) and feed decodes allocate nothing.
TEST(AllocTest, LockstepSimSessionFrames) {
  const std::uint64_t n = steady_allocations(&lockstep_sim);
  print_steady("lockstep_sim", n);
  EXPECT_LE(static_cast<double>(n) / 900, 6.0);
  EXPECT_EQ(n, 3616u);
}

// Two sites in rollback mode. Of the 1,185, 1,173 are one owning Payload
// per datagram delivered (as above); the other 12 are amortized growth of
// the confirmed-history vectors and the replay's keyframes.
TEST(AllocTest, RollbackSimSessionFrames) {
  const std::uint64_t n = steady_allocations(&rollback_sim);
  print_steady("rollback_sim", n);
  EXPECT_LE(static_cast<double>(n) / 900, 2.0);
  EXPECT_EQ(n, 1185u);
}

}  // namespace
}  // namespace rtct
