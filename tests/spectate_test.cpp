// Tests for the spectator / late-join extension (journal-version feature).
//
// A "session" machine plays torture (maximally divergence-sensitive) while
// a SpectatorBroadcastHub records its merged inputs; SpectatorClients join
// late across a hand-rolled lossy channel and must converge to
// bit-identical state. SpectateTest drives one observer, SpectateHubTest
// several.
#include <gtest/gtest.h>

#include <deque>

#include "src/common/random.h"
#include "src/core/spectate.h"
#include "src/games/roms.h"

namespace rtct::core {
namespace {

/// One message from `hub` to `client`, through the wire encoding.
void deliver(SpectatorBroadcastHub& hub, SpectatorBroadcastHub::ObserverId id,
             SpectatorClient& client, Time now, bool drop = false) {
  if (auto buf = hub.make_message(id, now); buf && !drop) {
    if (auto msg = decode_message(*buf)) client.ingest(*msg);
  }
}

/// One session, one observer served by a hub.
struct Rig {
  std::unique_ptr<emu::ArcadeMachine> session = games::make_machine("torture");
  std::unique_ptr<emu::ArcadeMachine> replica = games::make_machine("torture");
  SpectatorBroadcastHub host{session->content_id(), SyncConfig{}};
  SpectatorBroadcastHub::ObserverId id = host.add_observer();
  SpectatorClient client{*replica, SyncConfig{}};
  Rng rng{77};
  FrameNo frame = 0;

  InputWord play_one_frame() {
    const auto input = static_cast<InputWord>(rng.next_u64() & 0xFFFF);
    session->step_frame(input);
    host.on_frame(frame, input);
    ++frame;
    return input;
  }

  void serve_snapshot_if_needed() {
    // Same gate as the production drivers: never snapshot before the
    // session has executed frame 0.
    if (host.wants_snapshot() && session->frame() > 0) {
      host.provide_snapshot(session->frame() - 1, session->save_state());
    }
  }

  /// One message in each direction, with optional loss.
  void exchange(Time now, bool drop_host_to_client = false, bool drop_client_to_host = false) {
    if (auto m = client.make_message(now); m && !drop_client_to_host) host.ingest(id, *m, now);
    serve_snapshot_if_needed();
    deliver(host, id, client, now, drop_host_to_client);
    client.step_available();
  }
};

TEST(SpectateTest, LateJoinerConvergesOnPerfectChannel) {
  Rig rig;
  for (int i = 0; i < 100; ++i) rig.play_one_frame();  // session well underway

  Time now = 0;
  rig.exchange(now);  // join request -> snapshot taken and delivered
  EXPECT_TRUE(rig.client.joined());
  EXPECT_EQ(rig.client.applied_frame(), 99);
  EXPECT_EQ(rig.replica->state_hash(), rig.session->state_hash());

  // Keep playing; feed flows every "flush".
  for (int i = 0; i < 50; ++i) {
    rig.play_one_frame();
    now += milliseconds(20);
    rig.exchange(now);
  }
  EXPECT_EQ(rig.client.applied_frame(), rig.frame - 1);
  EXPECT_EQ(rig.replica->state_hash(), rig.session->state_hash());
}

TEST(SpectateTest, JoinBeforeFirstFrameDefersUntilFrameZero) {
  // Pre-frame-0 snapshots are banned (wire and client both reject them):
  // a join that lands before the session's first frame stays pending and
  // is answered right after frame 0 executes.
  Rig rig;
  rig.exchange(0);
  EXPECT_FALSE(rig.client.joined());
  for (int i = 0; i < 30; ++i) {
    rig.play_one_frame();
    rig.exchange(milliseconds(60 * (i + 1)));
  }
  EXPECT_TRUE(rig.client.joined());
  EXPECT_EQ(rig.replica->state_hash(), rig.session->state_hash());
}

TEST(SpectateTest, SnapshotLossIsRepairedByResend) {
  Rig rig;
  for (int i = 0; i < 20; ++i) rig.play_one_frame();
  rig.exchange(0, /*drop_host_to_client=*/true);  // snapshot lost
  EXPECT_FALSE(rig.client.joined());
  rig.exchange(milliseconds(60));  // host still holds it; resend succeeds
  EXPECT_TRUE(rig.client.joined());
  EXPECT_EQ(rig.replica->state_hash(), rig.session->state_hash());
}

TEST(SpectateTest, FeedLossIsRepairedByGoBackN) {
  Rig rig;
  for (int i = 0; i < 10; ++i) rig.play_one_frame();
  Time now = 0;
  rig.exchange(now);
  ASSERT_TRUE(rig.client.joined());

  // Drop several consecutive feed messages, then let one through.
  for (int i = 0; i < 5; ++i) {
    rig.play_one_frame();
    now += milliseconds(20);
    rig.exchange(now, /*drop_host_to_client=*/true);
  }
  EXPECT_LT(rig.client.applied_frame(), rig.frame - 1);
  now += milliseconds(20);
  rig.exchange(now);  // the full unacked window arrives at once
  EXPECT_EQ(rig.client.applied_frame(), rig.frame - 1);
  EXPECT_EQ(rig.replica->state_hash(), rig.session->state_hash());
}

TEST(SpectateTest, AckLossOnlyCausesDuplicates) {
  Rig rig;
  for (int i = 0; i < 10; ++i) rig.play_one_frame();
  Time now = 0;
  rig.exchange(now);
  ASSERT_TRUE(rig.client.joined());
  for (int i = 0; i < 10; ++i) {
    rig.play_one_frame();
    now += milliseconds(20);
    rig.exchange(now, false, /*drop_client_to_host=*/i % 2 == 0);
  }
  EXPECT_EQ(rig.client.applied_frame(), rig.frame - 1);
  EXPECT_EQ(rig.replica->state_hash(), rig.session->state_hash());
}

TEST(SpectateTest, BacklogTrimsOnAck) {
  Rig rig;
  for (int i = 0; i < 10; ++i) rig.play_one_frame();
  Time now = 0;
  rig.exchange(now);
  for (int i = 0; i < 20; ++i) {
    rig.play_one_frame();
    now += milliseconds(20);
    rig.exchange(now);
    now += milliseconds(20);
    rig.exchange(now);  // second round lets the ack land
  }
  // Everything is acked. What the hub still holds is the feed after its
  // frame-9 snapshot (frames 10..29), kept for future joiners.
  EXPECT_GE(rig.host.acked_frame(rig.id), rig.frame - 2);
  EXPECT_EQ(rig.host.backlog_size(), 20u);
}

TEST(SpectateTest, WrongGameJoinIgnored) {
  Rig rig;
  rig.host.ingest(rig.id, Message{JoinRequestMsg{rig.session->content_id() + 1}});
  EXPECT_FALSE(rig.host.wants_snapshot());
}

TEST(SpectateTest, CorruptSnapshotRejectedAndRetried) {
  Rig rig;
  for (int i = 0; i < 5; ++i) rig.play_one_frame();
  // Deliver a truncated snapshot by hand.
  auto state = rig.session->save_state();
  state.resize(state.size() / 2);
  SnapshotMsg bad;
  bad.frame = rig.frame - 1;
  bad.state = state;
  rig.client.ingest(Message{bad});
  EXPECT_FALSE(rig.client.joined());
  // The genuine exchange still succeeds afterwards.
  rig.exchange(milliseconds(60));
  EXPECT_TRUE(rig.client.joined());
}

TEST(SpectateTest, HostlessClientKeepsRequesting) {
  auto replica = games::make_machine("pong");
  SpectatorClient client(*replica, SyncConfig{});
  EXPECT_TRUE(client.make_message(0).has_value());
  EXPECT_FALSE(client.make_message(milliseconds(10)).has_value());  // rate-limited
  EXPECT_TRUE(client.make_message(milliseconds(60)).has_value());
  EXPECT_FALSE(client.joined());
}

TEST(SpectateTest, JoinDuringHandshakeNeverYieldsPreFrameZeroSnapshot) {
  // An observer whose join request lands before the session executed a
  // single frame (the handshake race) must be deferred, not served a
  // frame -1 snapshot; once frame 0 exists it joins at snapshot frame 0.
  Rig rig;
  Time now = 0;
  rig.exchange(now);  // join arrives pre-frame-0
  EXPECT_TRUE(rig.host.wants_snapshot());
  EXPECT_FALSE(rig.host.observer_joined(rig.id));
  EXPECT_FALSE(rig.client.joined());

  rig.play_one_frame();
  now += milliseconds(60);
  rig.exchange(now);
  ASSERT_TRUE(rig.client.joined());
  EXPECT_EQ(rig.client.applied_frame(), 0);
  EXPECT_EQ(rig.replica->state_hash(), rig.session->state_hash());
}

TEST(SpectateTest, ClientRejectsPreFrameZeroSnapshot) {
  // Defense in depth below the wire decoder: even an in-process snapshot
  // claiming a pre-session frame must not be adopted.
  Rig rig;
  rig.play_one_frame();
  SnapshotMsg bad;
  bad.frame = -1;
  bad.state = rig.session->save_state();
  rig.client.ingest(Message{bad});
  EXPECT_FALSE(rig.client.joined());
  // And the wire layer refuses to even decode one.
  EXPECT_FALSE(decode_message(encode_message(Message{bad})).has_value());
}

TEST(SpectateTest, ChurnRejoinAfterLeaveConverges) {
  // Leave/rejoin churn: a second observer lifecycle on a fresh
  // one-observer hub started mid-session must converge just like the
  // first.
  Rig rig;
  Time now = 0;
  for (int i = 0; i < 50; ++i) rig.play_one_frame();
  rig.exchange(now);
  ASSERT_TRUE(rig.client.joined());  // first observer lifecycle ends here

  auto replica2 = games::make_machine("torture");
  SpectatorBroadcastHub host2(rig.session->content_id(), SyncConfig{});
  const auto id2 = host2.add_observer(now);
  SpectatorClient client2(*replica2, SyncConfig{});
  for (int i = 0; i < 25; ++i) {
    const auto input = rig.play_one_frame();
    host2.on_frame(rig.frame - 1, input);
  }
  for (int round = 0; round < 40 && client2.applied_frame() < rig.frame - 1;
       ++round) {
    now += milliseconds(60);
    if (auto m = client2.make_message(now)) host2.ingest(id2, *m, now);
    if (host2.wants_snapshot() && rig.session->frame() > 0) {
      host2.provide_snapshot(rig.session->frame() - 1, rig.session->save_state());
    }
    deliver(host2, id2, client2, now);
    client2.step_available();
  }
  ASSERT_TRUE(client2.joined());
  EXPECT_GE(client2.applied_frame(), 0);
  EXPECT_EQ(replica2->state_hash(), rig.session->state_hash());
}

TEST(SpectateTest, RandomizedLossyChannelProperty) {
  for (std::uint64_t seed : {3u, 17u, 99u}) {
    Rig rig;
    Rng net(seed);
    Time now = 0;
    for (int i = 0; i < 30; ++i) rig.play_one_frame();
    for (int round = 0; round < 400 && rig.client.applied_frame() < rig.frame - 1; ++round) {
      if (round % 3 == 0) rig.play_one_frame();
      now += milliseconds(20);
      rig.exchange(now, net.bernoulli(0.3), net.bernoulli(0.3));
    }
    ASSERT_EQ(rig.client.applied_frame(), rig.frame - 1) << "seed " << seed;
    ASSERT_EQ(rig.replica->state_hash(), rig.session->state_hash()) << "seed " << seed;
  }
}

// ---- SpectatorBroadcastHub -------------------------------------------------

/// N unmodified SpectatorClients against ONE hub.
struct HubRig {
  std::unique_ptr<emu::ArcadeMachine> session = games::make_machine("torture");
  SpectatorBroadcastHub hub{session->content_id(), SyncConfig{}};
  struct Obs {
    std::unique_ptr<emu::ArcadeMachine> replica;
    std::unique_ptr<SpectatorClient> client;
    SpectatorBroadcastHub::ObserverId id = 0;
  };
  std::vector<Obs> obs;
  Rng rng{77};
  FrameNo frame = 0;
  std::vector<std::uint8_t> scratch;

  SpectatorBroadcastHub::ObserverId add_observer() {
    Obs o;
    o.replica = games::make_machine("torture");
    o.client = std::make_unique<SpectatorClient>(*o.replica, SyncConfig{});
    o.id = hub.add_observer();
    const auto id = o.id;
    obs.push_back(std::move(o));
    return id;
  }

  InputWord play_one_frame() {
    const auto input = static_cast<InputWord>(rng.next_u64() & 0xFFFF);
    session->step_frame(input);
    hub.on_frame(frame, input);
    ++frame;
    return input;
  }

  void serve_snapshot_if_needed() {
    if (hub.wants_snapshot() && session->frame() > 0) {
      session->save_state_into(scratch);
      hub.provide_snapshot(session->frame() - 1, scratch);
    }
  }

  /// One message in each direction per observer, with per-observer loss.
  void exchange(Time now, double loss = 0.0, Rng* net = nullptr) {
    for (auto& o : obs) {
      if (auto m = o.client->make_message(now)) {
        if (net == nullptr || !net->bernoulli(loss)) hub.ingest(o.id, *m);
      }
    }
    serve_snapshot_if_needed();
    for (auto& o : obs) {
      deliver(hub, o.id, *o.client, now, net != nullptr && net->bernoulli(loss));
      o.client->step_available();
    }
  }

  [[nodiscard]] bool all_at_head() const {
    for (const auto& o : obs) {
      if (o.client->applied_frame() != frame - 1) return false;
    }
    return true;
  }
};

TEST(SpectateHubTest, StaggeredObserversAllConvergeEncodeOnce) {
  HubRig rig;
  Time now = 0;
  rig.add_observer();
  for (int i = 0; i < 40; ++i) rig.play_one_frame();
  rig.exchange(now);
  rig.add_observer();  // joins 40 frames late
  rig.add_observer();
  for (int i = 0; i < 60; ++i) {
    rig.play_one_frame();
    now += milliseconds(20);
    rig.exchange(now);
  }
  now += milliseconds(20);
  rig.exchange(now);  // deliver the final round of acks
  EXPECT_EQ(rig.hub.observer_count(), 3u);
  EXPECT_EQ(rig.hub.joined_count(), 3u);
  ASSERT_TRUE(rig.all_at_head());
  EXPECT_TRUE(rig.hub.all_caught_up());
  for (const auto& o : rig.obs) {
    EXPECT_EQ(o.replica->state_hash(), rig.session->state_hash());
    EXPECT_TRUE(rig.hub.observer_joined(o.id));
    EXPECT_EQ(rig.hub.acked_frame(o.id), rig.frame - 1);
  }
  // The scaling property: every feed flush served 3 observers at (mostly)
  // identical cursors from ONE encode. Strictly fewer encodes than sends
  // proves the shared-buffer path is actually taken.
  const SpectatorHubStats& s = rig.hub.stats();
  EXPECT_GT(s.feed_messages_sent, 0u);
  EXPECT_LT(s.feed_encodes, s.feed_messages_sent);
  EXPECT_LT(s.bytes_encoded, s.bytes_sent);
  EXPECT_EQ(s.snapshot_encodes, 1u);  // one snapshot, shared by all three
}

TEST(SpectateHubTest, ObserverChurnJoinLeaveRejoin) {
  HubRig rig;
  Time now = 0;
  rig.add_observer();
  rig.add_observer();
  for (int i = 0; i < 30; ++i) rig.play_one_frame();
  for (int i = 0; i < 10; ++i) {
    rig.play_one_frame();
    now += milliseconds(20);
    rig.exchange(now);
  }
  ASSERT_TRUE(rig.all_at_head());

  // Observer 0 walks away without a goodbye (the driver notices and
  // removes it); the survivors keep converging, the hub stops serving it.
  rig.hub.remove_observer(rig.obs[0].id);
  const auto removed = rig.obs[0].id;
  rig.obs.erase(rig.obs.begin());
  EXPECT_EQ(rig.hub.observer_count(), 1u);
  EXPECT_EQ(rig.hub.make_message(removed, now), nullptr);

  rig.add_observer();  // rejoin as a brand-new id mid-session
  for (int i = 0; i < 30; ++i) {
    rig.play_one_frame();
    now += milliseconds(20);
    rig.exchange(now);
  }
  ASSERT_TRUE(rig.all_at_head());
  for (const auto& o : rig.obs) {
    EXPECT_EQ(o.replica->state_hash(), rig.session->state_hash());
  }
  EXPECT_EQ(rig.hub.stats().observers_removed, 1u);
}

TEST(SpectateHubTest, HandshakeRacingJoinDeferredUntilFrameZero) {
  // The realtime handshake race through the hub: a join before frame 0
  // must pend (no frame -1 snapshot), then be answered after frame 0.
  HubRig rig;
  rig.add_observer();
  rig.exchange(0);
  EXPECT_TRUE(rig.hub.wants_snapshot());
  EXPECT_EQ(rig.hub.joined_count(), 0u);
  EXPECT_FALSE(rig.obs[0].client->joined());

  Time now = 0;
  for (int i = 0; i < 5; ++i) {
    rig.play_one_frame();
    now += milliseconds(60);
    rig.exchange(now);
  }
  ASSERT_TRUE(rig.obs[0].client->joined());
  EXPECT_EQ(rig.obs[0].replica->state_hash(), rig.session->state_hash());
}

TEST(SpectateHubTest, LateJoinerAfterDeepBacklogGetsFreshSnapshot) {
  // Run far past the backlog cap with one live observer, then join a new
  // one: the shared snapshot has been retired with the trimmed ring, so
  // the hub must request a FRESH snapshot rather than serve a stale one
  // whose continuation frames are gone.
  HubRig rig;
  Time now = 0;
  rig.add_observer();
  for (int i = 0; i < 5; ++i) rig.play_one_frame();
  rig.exchange(now);
  ASSERT_TRUE(rig.obs[0].client->joined());
  for (int i = 0; i < 700; ++i) {  // > max_backlog() with prompt acks
    rig.play_one_frame();
    if (i % 3 == 0) {
      now += milliseconds(20);
      rig.exchange(now);
    }
  }
  const auto snapshots_before = rig.hub.stats().snapshot_encodes;
  rig.add_observer();
  for (int i = 0; i < 40; ++i) {
    rig.play_one_frame();
    now += milliseconds(20);
    rig.exchange(now);
  }
  EXPECT_GT(rig.hub.stats().snapshot_encodes, snapshots_before);
  ASSERT_TRUE(rig.all_at_head());
  for (const auto& o : rig.obs) {
    EXPECT_EQ(o.replica->state_hash(), rig.session->state_hash());
  }
}

TEST(SpectateHubTest, WrongGameJoinIgnored) {
  HubRig rig;
  const auto id = rig.add_observer();
  rig.hub.ingest(id, Message{JoinRequestMsg{rig.session->content_id() + 1}});
  EXPECT_FALSE(rig.hub.wants_snapshot());
}

// ---- idle-reaping regressions ----------------------------------------------
// The pinned-slowest-reader bug: an observer that vanished without a
// goodbye kept its stale ack cursor in the trim watermark, growing the
// ring without bound and holding all_caught_up() false forever. The fix
// is two-sided — clients keepalive-ack on a 500 ms clock even with no
// progress, and the hub reaps observers silent past a timeout.

TEST(SpectateTest, ClientKeepalivesWhileIdle) {
  // A fully caught-up client with nothing new to ack must still emit an
  // ack every kKeepaliveInterval — that is what makes hub idle-reaping
  // safe against false positives.
  Rig rig;
  for (int i = 0; i < 10; ++i) rig.play_one_frame();
  Time now = 0;
  rig.exchange(now);
  ASSERT_TRUE(rig.client.joined());
  ASSERT_EQ(rig.client.applied_frame(), rig.frame - 1);
  // Drain any owed ack, then go idle: no feed traffic at all.
  while (rig.client.make_message(now).has_value()) {}
  int keepalives = 0;
  for (int i = 1; i <= 20; ++i) {  // 2 s of idleness, polled every 100 ms
    now += milliseconds(100);
    if (rig.client.make_message(now).has_value()) ++keepalives;
  }
  EXPECT_EQ(keepalives, 4) << "expected one keepalive per 500 ms of idle time";
}

TEST(SpectateHubTest, IdleReaperUnpinsSlowestReaderTrim) {
  HubRig rig;
  Time now = 0;
  rig.add_observer();
  rig.add_observer();
  for (int i = 0; i < 10; ++i) rig.play_one_frame();
  for (int i = 0; i < 6; ++i) {
    now += milliseconds(20);
    rig.exchange(now);
  }
  ASSERT_TRUE(rig.all_at_head());

  // Observer 0 vanishes: its datagrams stop cold, but the driver never
  // learns (no goodbye). Keep playing; only observer 1 stays live. The
  // dead cursor pins the ring past the 512-frame backlog cap, and the
  // drivers' drain predicate (all_caught_up) can never turn true — the
  // original unbounded-growth bug.
  const auto gone = rig.obs[0].id;
  const auto live = rig.obs[1].id;
  for (int i = 0; i < 600; ++i) {
    rig.play_one_frame();
    now += milliseconds(20);
    if (auto m = rig.obs[1].client->make_message(now)) rig.hub.ingest(live, *m, now);
    deliver(rig.hub, live, *rig.obs[1].client, now);
    rig.obs[1].client->step_available();
  }
  EXPECT_GT(rig.hub.backlog_size(), 550u) << "pinned cursor must defeat the cap";
  EXPECT_FALSE(rig.hub.all_caught_up());

  // The reaper fires (observer 0 was last heard ~12 s ago); the next ack
  // from the live observer re-trims, bounding the ring by the backlog cap
  // again and unsticking the drain predicate.
  const auto removed = rig.hub.remove_idle(now, seconds(2));
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0], gone);
  EXPECT_FALSE(rig.hub.observer_active(gone));
  EXPECT_EQ(rig.hub.stats().observers_idle_removed, 1u);
  now += milliseconds(20);
  if (auto m = rig.obs[1].client->make_message(now)) rig.hub.ingest(live, *m, now);
  EXPECT_LE(rig.hub.backlog_size(), 512u);
  EXPECT_TRUE(rig.hub.all_caught_up());

  // And the reaper never touches the observer that kept acking.
  EXPECT_TRUE(rig.hub.observer_active(live));
  EXPECT_EQ(rig.obs[1].replica->state_hash(), rig.session->state_hash());
}

TEST(SpectateHubTest, LiveObserverSurvivesReaperViaKeepalives) {
  // No frames at all for several seconds (a stalled session): a healthy
  // client produces pure keepalive acks, and those alone must keep it off
  // the reaper's list.
  HubRig rig;
  Time now = 0;
  rig.add_observer();
  for (int i = 0; i < 5; ++i) rig.play_one_frame();
  for (int i = 0; i < 4; ++i) {
    now += milliseconds(20);
    rig.exchange(now);
  }
  ASSERT_TRUE(rig.all_at_head());
  const auto id = rig.obs[0].id;
  for (int i = 0; i < 50; ++i) {  // 5 s of stall, no frames, no feed
    now += milliseconds(100);
    if (auto m = rig.obs[0].client->make_message(now)) rig.hub.ingest(id, *m, now);
    EXPECT_TRUE(rig.hub.remove_idle(now, seconds(2)).empty())
        << "keepalive-acking observer reaped at t=" << i;
  }
  EXPECT_TRUE(rig.hub.observer_active(id));
}

TEST(SpectateHubTest, WrongfulRemovalSelfHealsByReregistration) {
  // The documented false-positive story: if a live observer is reaped
  // anyway (timeout shorter than its network outage), its next datagram
  // gets a fresh id from the driver and the snapshot/feed path re-seeds
  // it to the head — no permanent eviction.
  HubRig rig;
  Time now = 0;
  rig.add_observer();
  for (int i = 0; i < 20; ++i) rig.play_one_frame();
  for (int i = 0; i < 4; ++i) {
    now += milliseconds(20);
    rig.exchange(now);
  }
  ASSERT_TRUE(rig.all_at_head());

  // Outage longer than the timeout: the hub reaps the observer.
  now += seconds(5);
  ASSERT_EQ(rig.hub.remove_idle(now, seconds(2)).size(), 1u);
  ASSERT_FALSE(rig.hub.observer_active(rig.obs[0].id));

  // The client comes back; the driver re-registers the endpoint exactly
  // as the production receive loops do (observer_active gate -> new id).
  rig.obs[0].id = rig.hub.add_observer(now);
  for (int i = 0; i < 30; ++i) {
    rig.play_one_frame();
    now += milliseconds(20);
    rig.exchange(now);
  }
  ASSERT_TRUE(rig.all_at_head());
  EXPECT_EQ(rig.obs[0].replica->state_hash(), rig.session->state_hash());
}

TEST(SpectateHubTest, RandomizedLossyChannelProperty) {
  for (std::uint64_t seed : {5u, 23u, 111u}) {
    HubRig rig;
    Rng net(seed);
    Time now = 0;
    for (int i = 0; i < 4; ++i) rig.add_observer();
    for (int i = 0; i < 30; ++i) rig.play_one_frame();
    for (int round = 0; round < 600 && !rig.all_at_head(); ++round) {
      if (round % 3 == 0) rig.play_one_frame();
      now += milliseconds(20);
      rig.exchange(now, 0.3, &net);
    }
    ASSERT_TRUE(rig.all_at_head()) << "seed " << seed;
    for (const auto& o : rig.obs) {
      ASSERT_EQ(o.replica->state_hash(), rig.session->state_hash()) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace rtct::core
