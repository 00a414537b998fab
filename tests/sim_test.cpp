// Unit tests for the discrete-event simulation kernel.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "src/net/sim_network.h"
#include "src/sim/simulator.h"
#include "src/sim/trigger.h"

namespace rtct::sim {
namespace {

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(milliseconds(30), [&] { order.push_back(3); });
  sim.schedule_at(milliseconds(10), [&] { order.push_back(1); });
  sim.schedule_at(milliseconds(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), milliseconds(30));
}

TEST(SimulatorTest, EqualTimesRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(milliseconds(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, PastEventsClampToNow) {
  Simulator sim;
  sim.schedule_at(milliseconds(10), [] {});
  sim.run();
  Time ran_at = -1;
  sim.schedule_at(milliseconds(3), [&] { ran_at = sim.now(); });  // in the past
  sim.run();
  EXPECT_EQ(ran_at, milliseconds(10));
}

TEST(SimulatorTest, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator sim;
  EXPECT_EQ(sim.run_until(milliseconds(100)), 0u);
  EXPECT_EQ(sim.now(), milliseconds(100));
}

TEST(SimulatorTest, RunUntilLeavesLaterEventsPending) {
  Simulator sim;
  int ran = 0;
  sim.schedule_at(milliseconds(10), [&] { ++ran; });
  sim.schedule_at(milliseconds(50), [&] { ++ran; });
  sim.run_until(milliseconds(20));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(ran, 2);
}

TEST(SimulatorTest, CallbacksScheduleCallbacksWhileTheirSlotsAreReused) {
  // Each callback frees its slot before it runs, so the two it schedules
  // reuse that slot and may regrow the slab under it. The captured array
  // is too large for std::function's local buffer: a callable that the
  // slab moved or overwrote would show up as a wrong tag.
  Simulator sim;
  std::vector<int> ran;
  std::function<void(int)> spawn = [&](int id) {
    std::array<int, 16> tag{};
    tag.fill(id);
    sim.schedule_in(milliseconds(1), [&, id, tag] {
      for (int t : tag) ASSERT_EQ(t, id);
      ran.push_back(id);
      if (id < 64) {
        spawn(2 * id);
        spawn(2 * id + 1);
      }
    });
  };
  spawn(1);
  sim.run();
  ASSERT_EQ(ran.size(), 127u);
  // Breadth-first: one level per millisecond, each level in schedule order.
  for (std::size_t i = 0; i < ran.size(); ++i) EXPECT_EQ(ran[i], static_cast<int>(i + 1));
  EXPECT_EQ(sim.now(), milliseconds(7));
  EXPECT_TRUE(sim.idle());
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) sim.schedule_in(milliseconds(1), chain);
  };
  sim.schedule_in(milliseconds(1), chain);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), milliseconds(5));
}

// ---- coroutine tasks --------------------------------------------------------

Task counting_task(Simulator& sim, std::vector<Time>& wakeups, int n, Dur step) {
  for (int i = 0; i < n; ++i) {
    co_await sim.sleep(step);
    wakeups.push_back(sim.now());
  }
}

TEST(TaskTest, SleepAdvancesVirtualTime) {
  Simulator sim;
  std::vector<Time> wakeups;
  sim.spawn(counting_task(sim, wakeups, 3, milliseconds(10)));
  sim.run();
  ASSERT_EQ(wakeups.size(), 3u);
  EXPECT_EQ(wakeups[0], milliseconds(10));
  EXPECT_EQ(wakeups[2], milliseconds(30));
  EXPECT_EQ(sim.live_tasks(), 0u);  // finished tasks are reclaimed
}

TEST(TaskTest, ZeroSleepDoesNotSuspend) {
  Simulator sim;
  bool done = false;
  struct Fn {
    static Task run(Simulator& s, bool& flag) {
      co_await s.sleep(0);
      flag = true;
    }
  };
  sim.spawn(Fn::run(sim, done));
  // Completed synchronously during spawn (await_ready short-circuits).
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.live_tasks(), 0u);
}

TEST(TaskTest, ManyInterleavedTasksKeepOrder) {
  Simulator sim;
  std::vector<int> log;
  struct Fn {
    static Task run(Simulator& s, std::vector<int>& out, int id, Dur period) {
      for (int i = 0; i < 3; ++i) {
        co_await s.sleep(period);
        out.push_back(id);
      }
    }
  };
  sim.spawn(Fn::run(sim, log, 1, milliseconds(10)));  // wakes 10,20,30
  sim.spawn(Fn::run(sim, log, 2, milliseconds(15)));  // wakes 15,30,45
  sim.run();
  // At the t=30 tie, task 2 scheduled its wakeup at t=15 — before task 1
  // did at t=20 — so FIFO ordering runs task 2 first.
  EXPECT_EQ(log, (std::vector<int>{1, 2, 1, 2, 1, 2}));
}

TEST(TaskTest, UnfinishedTaskIsReclaimedAtTeardown) {
  // A task suspended forever must not leak (ASan would catch it).
  auto sim = std::make_unique<Simulator>();
  struct Fn {
    static Task run(Simulator& s) {
      co_await s.sleep(seconds(999));
      ADD_FAILURE() << "should never resume";
    }
  };
  sim->spawn(Fn::run(*sim));
  sim->run_until(milliseconds(1));
  EXPECT_EQ(sim->live_tasks(), 1u);
  sim.reset();  // must destroy the suspended coroutine cleanly
}

// ---- triggers ---------------------------------------------------------------

TEST(TriggerTest, NotifyWakesAllWaiters) {
  Simulator sim;
  Trigger trig(sim);
  int woken = 0;
  struct Fn {
    static Task run(Simulator&, Trigger& t, int& count) {
      co_await t.wait();
      ++count;
    }
  };
  sim.spawn(Fn::run(sim, trig, woken));
  sim.spawn(Fn::run(sim, trig, woken));
  sim.run();
  EXPECT_EQ(woken, 0);  // nothing notified yet
  EXPECT_EQ(trig.waiter_count(), 2u);
  trig.notify_all();
  sim.run();
  EXPECT_EQ(woken, 2);
}

TEST(TriggerTest, NotifyBeforeWaitIsNotSticky) {
  // Like a condition variable: a notify with no waiters is lost, so
  // callers must check their predicate before waiting.
  Simulator sim;
  Trigger trig(sim);
  trig.notify_all();
  bool woke = false;
  struct Fn {
    static Task run(Simulator& s, Trigger& t, bool& flag) {
      const bool notified = co_await t.wait_until(s.now() + milliseconds(10));
      flag = notified;
    }
  };
  sim.spawn(Fn::run(sim, trig, woke));
  sim.run();
  EXPECT_FALSE(woke);  // timed out, did not see the pre-wait notify
  EXPECT_EQ(sim.now(), milliseconds(10));
}

TEST(TriggerTest, WaitUntilReportsNotifyVsTimeout) {
  Simulator sim;
  Trigger trig(sim);
  std::vector<bool> results;
  struct Fn {
    static Task run(Simulator& s, Trigger& t, std::vector<bool>& out, Dur timeout) {
      out.push_back(co_await t.wait_until(s.now() + timeout));
    }
  };
  sim.spawn(Fn::run(sim, trig, results, milliseconds(5)));    // will time out
  sim.spawn(Fn::run(sim, trig, results, milliseconds(100)));  // will be notified
  sim.schedule_at(milliseconds(20), [&] { trig.notify_all(); });
  sim.run();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0]);
  EXPECT_TRUE(results[1]);
}

TEST(TriggerTest, TimedOutWaiterNotWokenLater) {
  Simulator sim;
  Trigger trig(sim);
  int wakes = 0;
  struct Fn {
    static Task run(Simulator& s, Trigger& t, int& count) {
      (void)co_await t.wait_until(s.now() + milliseconds(5));
      ++count;
      // Do NOT re-register; a later notify must not touch this coroutine.
      co_await s.sleep(milliseconds(100));
    }
  };
  sim.spawn(Fn::run(sim, trig, wakes));
  sim.schedule_at(milliseconds(50), [&] { trig.notify_all(); });
  sim.run();
  EXPECT_EQ(wakes, 1);
}

TEST(TriggerTest, RewaitAfterNotifyReceivesNextNotify) {
  Simulator sim;
  Trigger trig(sim);
  int wakes = 0;
  struct Fn {
    static Task run(Simulator&, Trigger& t, int& count) {
      co_await t.wait();
      ++count;
      co_await t.wait();
      ++count;
    }
  };
  sim.spawn(Fn::run(sim, trig, wakes));
  sim.schedule_at(milliseconds(1), [&] { trig.notify_all(); });
  sim.schedule_at(milliseconds(2), [&] { trig.notify_all(); });
  sim.run();
  EXPECT_EQ(wakes, 2);
}

TEST(TriggerTest, NotifierDoesNotRunWaiterInline) {
  Simulator sim;
  Trigger trig(sim);
  bool waiter_ran = false;
  struct Fn {
    static Task run(Simulator&, Trigger& t, bool& flag) {
      co_await t.wait();
      flag = true;
    }
  };
  sim.spawn(Fn::run(sim, trig, waiter_ran));
  bool observed_during_notify = true;
  sim.schedule_at(milliseconds(1), [&] {
    trig.notify_all();
    observed_during_notify = waiter_ran;  // must still be false here
  });
  sim.run();
  EXPECT_FALSE(observed_during_notify);
  EXPECT_TRUE(waiter_ran);
}

TEST(TriggerTest, RewaitAfterTimeoutIsNotWokenByAnythingStale) {
  // The first wait is notified at 1 ms, leaving its 10 ms deadline queued;
  // the second times out at 2 ms, leaving nothing. The third wait must
  // be woken by neither the stale deadline nor an old notify, only by its
  // own deadline at 25 ms.
  Simulator sim;
  Trigger trig(sim);
  std::vector<std::pair<bool, Time>> out;
  struct Fn {
    static Task run(Simulator& s, Trigger& t, std::vector<std::pair<bool, Time>>& log) {
      log.emplace_back(co_await t.wait_until(milliseconds(10)), s.now());
      log.emplace_back(co_await t.wait_until(milliseconds(2)), s.now());
      log.emplace_back(co_await t.wait_until(milliseconds(25)), s.now());
    }
  };
  sim.spawn(Fn::run(sim, trig, out));
  sim.schedule_at(milliseconds(1), [&] { trig.notify_all(); });
  sim.run();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], std::make_pair(true, milliseconds(1)));
  EXPECT_EQ(out[1], std::make_pair(false, milliseconds(2)));
  EXPECT_EQ(out[2], std::make_pair(false, milliseconds(25)));
  EXPECT_EQ(trig.waiter_count(), 0u);
}

TEST(TriggerTest, NotifiedTimedWaitsDeadlineDoesNothing) {
  Simulator sim;
  Trigger trig(sim);
  int resumes = 0;
  Time slept_until = -1;
  struct Fn {
    static Task run(Simulator& s, Trigger& t, int& count, Time& until) {
      EXPECT_TRUE(co_await t.wait_until(milliseconds(10)));
      ++count;
      co_await s.sleep(milliseconds(20));  // spans the old deadline
      ++count;
      until = s.now();
    }
  };
  sim.spawn(Fn::run(sim, trig, resumes, slept_until));
  sim.schedule_at(milliseconds(1), [&] { trig.notify_all(); });
  sim.run();
  EXPECT_EQ(resumes, 2);
  EXPECT_EQ(slept_until, milliseconds(21));
}

TEST(TriggerTest, NotifyAndDeadlineAtTheSameTimeRunInScheduleOrder) {
  struct Fn {
    static Task run(Simulator&, Trigger& t, std::vector<bool>& out) {
      out.push_back(co_await t.wait_until(milliseconds(10)));
    }
  };
  {
    // The wait's deadline was scheduled before the notify: it times out.
    Simulator sim;
    Trigger trig(sim);
    std::vector<bool> out;
    sim.spawn(Fn::run(sim, trig, out));
    sim.schedule_at(milliseconds(10), [&] { trig.notify_all(); });
    sim.run();
    EXPECT_EQ(out, std::vector<bool>{false});
  }
  {
    // The notify was scheduled first: it takes the wait, and the deadline
    // that follows at the same time finds nothing to expire.
    Simulator sim;
    Trigger trig(sim);
    std::vector<bool> out;
    sim.schedule_at(milliseconds(10), [&] { trig.notify_all(); });
    sim.spawn(Fn::run(sim, trig, out));
    sim.run();
    EXPECT_EQ(out, std::vector<bool>{true});
  }
}

// Teardown with work outstanding: timed waits pending on triggers, and
// datagrams in flight in a link's slab. Nothing may run or leak (the
// sanitize preset runs this under ASan).
Task waiter(Simulator& s, Trigger& t, int& resumes) {
  for (;;) {
    (void)co_await t.wait_until(s.now() + milliseconds(30));
    ++resumes;
  }
}

void start_pending_work(Simulator& sim, net::SimDuplexLink& link, Trigger& trig, int& resumes) {
  sim.spawn(waiter(sim, trig, resumes));
  sim.spawn(waiter(sim, link.b().arrival_trigger(), resumes));
  const std::vector<std::uint8_t> datagram(300, 0xAB);  // beyond any small buffer
  for (int i = 0; i < 8; ++i) link.a().send(datagram);
  sim.run_until(milliseconds(5));
}

TEST(SimulatorTeardownTest, SimulatorDestroyedFirst) {
  int resumes = 0;
  auto sim = std::make_unique<Simulator>();
  auto link = std::make_unique<net::SimDuplexLink>(*sim, net::NetemConfig::for_rtt(
                                                             milliseconds(100)));
  auto trig = std::make_unique<Trigger>(*sim);
  start_pending_work(*sim, *link, *trig, resumes);
  EXPECT_GT(sim->pending_events(), 8u);
  sim.reset();
  trig.reset();
  link.reset();
  EXPECT_EQ(resumes, 0);
}

TEST(SimulatorTeardownTest, SimulatorDestroyedLast) {
  int resumes = 0;
  Simulator sim;
  net::SimDuplexLink link(sim, net::NetemConfig::for_rtt(milliseconds(100)));
  Trigger trig(sim);
  start_pending_work(sim, link, trig, resumes);
  EXPECT_EQ(link.b().arrival_trigger().waiter_count(), 1u);
  EXPECT_EQ(trig.waiter_count(), 1u);
  EXPECT_EQ(resumes, 0);
}

}  // namespace
}  // namespace rtct::sim
