// Session-resilience coverage: idempotent retries over a fault-injected
// transport, resumable change streams, slow-consumer backpressure, and the
// seeded schedule sweep from the acceptance criteria.
//
// Scale knobs (env):
//   TENDAX_RESILIENCE_SCHEDULES  seeded fault schedules in the sweep
//                                (default 100)
//   TENDAX_RESILIENCE_OPS        inserts per client per schedule (default 6)

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "collab/retrying_client.h"
#include "collab/wire.h"
#include "server_fixture.h"
#include "testing/flaky_transport.h"

namespace tendax {
namespace {

uint64_t EnvU64(const char* name, uint64_t def) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return def;
  return std::strtoull(value, nullptr, 10);
}

class ResilienceTest : public ServerTest {
 protected:
  /// A remote editor: session + endpoint + (possibly flaky) transport +
  /// retrying client, wired together in destruction-safe order.
  struct Remote {
    std::unique_ptr<Editor> editor;
    std::unique_ptr<RemoteEditorEndpoint> endpoint;
    std::unique_ptr<FlakyTransport> transport;
    std::unique_ptr<RetryingClient> client;
  };

  Remote MakeRemote(UserId user, const std::string& name,
                    NetFaultOptions faults, RetryOptions retry = {}) {
    Remote r;
    auto editor = server_->AttachEditor(user, name);
    EXPECT_TRUE(editor.ok()) << editor.status().ToString();
    r.editor = std::move(*editor);
    r.endpoint = std::make_unique<RemoteEditorEndpoint>(r.editor.get());
    r.transport =
        std::make_unique<FlakyTransport>(r.endpoint.get(), faults);
    r.client = std::make_unique<RetryingClient>(r.transport.get(), retry);
    return r;
  }

  static NetFaultOptions NoFaults(uint64_t seed = 1) {
    return NetFaultOptions::Uniform(seed, 0.0);
  }
};

// --- fault-injection determinism ---

TEST_F(ResilienceTest, FlakyScheduleIsDeterministic) {
  DocumentId doc = MakeDoc(alice_, "det", "");
  auto run = [&](const std::string& tag) {
    RetryOptions retry;
    retry.max_attempts = 32;
    retry.seed = 9;
    Remote r = MakeRemote(alice_, "det-" + tag,
                          NetFaultOptions::Uniform(/*seed=*/42, 0.15), retry);
    EXPECT_TRUE(r.client->Open(doc).ok());
    for (int i = 0; i < 10; ++i) {
      EXPECT_TRUE(r.client->Type(doc, 0, "x").ok());
    }
    r.transport->Disarm();
    return r.transport->stats();
  };
  const auto a = run("a");
  const auto b = run("b");
  EXPECT_EQ(a.round_trips, b.round_trips);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.duplicated, b.duplicated);
  EXPECT_EQ(a.delayed, b.delayed);
  EXPECT_EQ(a.corrupted, b.corrupted);
  EXPECT_EQ(a.late_deliveries, b.late_deliveries);
  // The seed actually produced faults (rate 0.15 over ~30+ round trips).
  EXPECT_GT(a.dropped + a.duplicated + a.delayed + a.corrupted, 0u);
}

// --- idempotency: at-most-once execution under at-least-once delivery ---

TEST_F(ResilienceTest, DuplicatedRequestExecutesOnce) {
  DocumentId doc = MakeDoc(alice_, "dup", "");
  Remote r = MakeRemote(alice_, "dup-editor", NoFaults());
  ASSERT_TRUE(r.client->Open(doc).ok());
  r.transport->Force(2, NetFault::kDupRequest);  // round trip 2 = the Type
  ASSERT_TRUE(r.client->Type(doc, 0, "a").ok());
  auto text = r.client->GetText(doc);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_EQ(*text, "a") << r.transport->Describe();
  EXPECT_EQ(r.endpoint->dedup_hits(), 1u);
}

TEST_F(ResilienceTest, LostResponseRetryIsServedFromDedupCache) {
  DocumentId doc = MakeDoc(alice_, "lost-resp", "");
  Remote r = MakeRemote(alice_, "lr-editor", NoFaults());
  ASSERT_TRUE(r.client->Open(doc).ok());
  // The command executes, the reply evaporates; the retry must not
  // execute again but must still return the original (cached) response.
  r.transport->Force(2, NetFault::kDropResponse);
  ASSERT_TRUE(r.client->Type(doc, 0, "a").ok());
  auto text = r.client->GetText(doc);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "a") << r.transport->Describe();
  EXPECT_EQ(r.endpoint->dedup_hits(), 1u);
  EXPECT_EQ(r.client->stats().timeouts, 1u);
}

TEST_F(ResilienceTest, StaleDelayedRetryIsAbsorbedByDedup) {
  DocumentId doc = MakeDoc(alice_, "stale", "");
  Remote r = MakeRemote(alice_, "stale-editor", NoFaults());
  ASSERT_TRUE(r.client->Open(doc).ok());
  // The first delivery of the Type is held back in the network and lands
  // *after* later commands — a stale retry out of order with newer writes.
  r.transport->Force(2, NetFault::kDelayRequest);
  ASSERT_TRUE(r.client->Type(doc, 0, "a").ok());
  ASSERT_TRUE(r.client->Type(doc, 1, "b").ok());
  ASSERT_TRUE(r.client->Type(doc, 2, "c").ok());
  r.transport->Disarm();  // flush anything still in flight
  auto text = r.client->GetText(doc);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "abc") << r.transport->Describe();
  EXPECT_EQ(r.transport->stats().late_deliveries, 1u);
  EXPECT_GE(r.endpoint->dedup_hits(), 1u);
}

// --- dedup exemption: reads run again, writes stay at-most-once ---

TEST_F(ResilienceTest, LostReadResponseReExecutesAndReturnsCurrentText) {
  DocumentId doc = MakeDoc(alice_, "lost-read", "a");
  // Between the lost reply and the retry another writer commits: a read
  // that runs again sees it, a cached reply would not.
  bool typed = false;
  RetryOptions retry;
  retry.sleep_fn = [&](uint64_t) {
    if (typed) return;
    typed = true;
    EXPECT_TRUE(server_->text()->InsertText(alice_, doc, 1, "b").ok());
  };
  Remote r = MakeRemote(alice_, "lread-editor", NoFaults(), retry);
  ASSERT_TRUE(r.client->Open(doc).ok());
  // An explicit key, so the exemption is the server's, not the client's
  // (RetryingClient sends reads without one).
  EditCommand read;
  read.kind = CommandKind::kGetText;
  read.doc = doc;
  read.request_id = 4242;
  r.transport->Force(2, NetFault::kDropResponse);
  auto response = r.client->Call(read);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, StatusCode::kOk);
  EXPECT_EQ(response->payload, "ab") << r.transport->Describe();
  EXPECT_TRUE(typed);
  EXPECT_EQ(r.client->stats().timeouts, 1u);
  EXPECT_EQ(r.endpoint->dedup_hits(), 0u);
}

TEST_F(ResilienceTest, LostCopyResponseIsServedFromDedupCache) {
  DocumentId doc = MakeDoc(alice_, "lost-copy", "hello");
  Remote r = MakeRemote(alice_, "lcopy-editor", NoFaults());
  ASSERT_TRUE(r.client->Open(doc).ok());
  EditCommand copy;
  copy.kind = CommandKind::kCopy;
  copy.doc = doc;
  copy.len = 5;
  r.transport->Force(2, NetFault::kDropResponse);
  auto first = r.client->Call(copy);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->code, StatusCode::kOk);
  EXPECT_EQ(first->payload, "0") << r.transport->Describe();
  EXPECT_EQ(r.endpoint->dedup_hits(), 1u);
  // The retry did not run the copy again: the next copy gets handle 1.
  auto second = r.client->Call(copy);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->payload, "1");
}

TEST_F(ResilienceTest, ReadsLeaveNoEntryInTheDedupCache) {
  DocumentId doc = MakeDoc(alice_, "many-reads", "");
  Remote r = MakeRemote(alice_, "reads-editor", NoFaults());
  ASSERT_TRUE(r.client->Open(doc).ok());
  ASSERT_TRUE(r.client->Type(doc, 0, "text").ok());
  const size_t writes = r.endpoint->dedup_entries();
  EXPECT_EQ(writes, 2u);
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(r.client->GetText(doc).ok());
    ASSERT_TRUE(r.client->GetTextAt(doc, 1).ok());
    EditCommand keyed;
    keyed.kind = i % 2 == 0 ? CommandKind::kGetText : CommandKind::kGetTextAt;
    keyed.doc = doc;
    keyed.request_id = 1'000'000 + i;
    auto response = r.client->Call(keyed);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->code, StatusCode::kOk);
  }
  EXPECT_EQ(r.endpoint->dedup_entries(), writes);
  EXPECT_EQ(r.endpoint->dedup_hits(), 0u);
}

TEST_F(ResilienceTest, CorruptFramesAreTreatedAsLossNotAsCommands) {
  DocumentId doc = MakeDoc(alice_, "corrupt", "seed");
  Remote r = MakeRemote(alice_, "c-editor", NoFaults());
  ASSERT_TRUE(r.client->Open(doc).ok());
  r.transport->Force(2, NetFault::kCorruptRequest);
  r.transport->Force(3, NetFault::kCorruptResponse);
  // Round trip 2: damaged request -> server checksum rejects -> timeout ->
  // retry (3) succeeds but its response is damaged -> client checksum
  // rejects -> retry (4) succeeds cleanly.
  ASSERT_TRUE(r.client->Type(doc, 0, "!").ok());
  auto text = r.client->GetText(doc);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "!seed") << r.transport->Describe();
  EXPECT_EQ(r.transport->stats().corrupted, 2u);
  EXPECT_GE(r.client->stats().timeouts + r.client->stats().wire_errors, 2u);
}

TEST_F(ResilienceTest, ExhaustedRetriesSurfaceTheLastTransportError) {
  DocumentId doc = MakeDoc(alice_, "dead", "");
  NetFaultOptions faults;
  faults.drop_request = 1.0;  // the network is a black hole
  RetryOptions retry;
  retry.max_attempts = 3;
  Remote r = MakeRemote(alice_, "dead-editor", faults, retry);
  Status s = r.client->Open(doc);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(r.client->stats().attempts, 3u);
  EXPECT_EQ(r.client->stats().exhausted, 1u);
}

TEST_F(ResilienceTest, CleanServerErrorsAreNotRetried) {
  DocumentId doc = MakeDoc(alice_, "app-error", "ab");
  Remote r = MakeRemote(alice_, "ae-editor", NoFaults());
  ASSERT_TRUE(r.client->Open(doc).ok());
  const uint64_t before = r.client->stats().attempts;
  // An erase far past the end is an application-level error, not a
  // transport fault: it must come back on the first attempt, unretried.
  Status s = r.client->Erase(doc, 1000, 5);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(r.client->stats().attempts, before + 1);
  EXPECT_EQ(r.client->stats().exhausted, 0u);
}

// --- resumable change streams ---

TEST_F(ResilienceTest, ChangeStreamResumesAcrossLostResponses) {
  DocumentId doc = MakeDoc(alice_, "stream", "");
  Remote watcher = MakeRemote(bob_, "watcher", NoFaults());
  ASSERT_TRUE(watcher.client->Open(doc).ok());

  auto typist = server_->AttachEditor(alice_, "typist");
  ASSERT_TRUE(typist.ok());
  ASSERT_TRUE((*typist)->Open(doc).ok());
  ASSERT_TRUE((*typist)->Type(doc, 0, "h").ok());
  ASSERT_TRUE((*typist)->Type(doc, 1, "i").ok());

  // First resume delivers the inserts (plus awareness noise) in order.
  auto first = watcher.client->PollChanges();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->resync_required);
  size_t inserts = 0;
  for (const auto& ev : first->events) {
    if (ev.kind == ChangeKind::kTextInserted) ++inserts;
  }
  EXPECT_EQ(inserts, 2u);
  const uint64_t cursor = watcher.client->last_seq();
  EXPECT_GT(cursor, 0u);

  // A poll whose response frame is lost costs nothing: the events stay
  // buffered server-side until a later resume acknowledges them.
  ASSERT_TRUE((*typist)->Type(doc, 2, "!").ok());
  watcher.transport->Force(watcher.transport->stats().round_trips + 1,
                           NetFault::kDropResponse);
  auto second = watcher.client->PollChanges();
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->resync_required);
  inserts = 0;
  for (const auto& ev : second->events) {
    if (ev.kind == ChangeKind::kTextInserted) ++inserts;
  }
  EXPECT_EQ(inserts, 1u) << "lost response must not lose or repeat events";
  EXPECT_GT(watcher.client->last_seq(), cursor);
}

TEST_F(ResilienceTest, ReconnectResumesFromCarriedCursor) {
  DocumentId doc = MakeDoc(alice_, "reconnect", "");
  Remote watcher = MakeRemote(bob_, "watcher", NoFaults());
  ASSERT_TRUE(watcher.client->Open(doc).ok());

  auto typist = server_->AttachEditor(alice_, "typist");
  ASSERT_TRUE(typist.ok());
  ASSERT_TRUE((*typist)->Open(doc).ok());
  ASSERT_TRUE((*typist)->Type(doc, 0, "a").ok());
  auto drained = watcher.client->PollChanges();
  ASSERT_TRUE(drained.ok());
  const uint64_t cursor = watcher.client->last_seq();

  // The connection dies; the session survives. Events keep accumulating.
  ASSERT_TRUE((*typist)->Type(doc, 1, "b").ok());
  ASSERT_TRUE((*typist)->Type(doc, 2, "c").ok());

  // Fresh endpoint + transport + client over the same session; the only
  // state carried across is the change-stream cursor.
  auto endpoint2 =
      std::make_unique<RemoteEditorEndpoint>(watcher.editor.get());
  DirectTransport transport2(endpoint2.get());
  RetryOptions retry2;
  retry2.seed = 77;
  RetryingClient client2(&transport2, retry2);
  client2.set_last_seq(cursor);
  auto resumed = client2.PollChanges();
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_FALSE(resumed->resync_required);
  size_t inserts = 0;
  for (const auto& ev : resumed->events) {
    if (ev.kind == ChangeKind::kTextInserted) ++inserts;
  }
  EXPECT_EQ(inserts, 2u) << "exactly the missed suffix, no repeats";
}

TEST_F(ResilienceTest, SlowConsumerGetsOneResyncMarkerNotUnboundedBacklog) {
  // A dedicated server with a tiny per-session inbox.
  TendaxOptions options;
  options.db.clock = std::make_shared<ManualClock>(1'000'000'000, 1000);
  options.session.max_inbox_events = 4;
  auto server = TendaxServer::Open(std::move(options));
  ASSERT_TRUE(server.ok());
  auto user = (*server)->accounts()->CreateUser("slow");
  ASSERT_TRUE(user.ok());
  auto doc = (*server)->text()->CreateDocument(*user, "firehose");
  ASSERT_TRUE(doc.ok());

  auto watcher = (*server)->AttachEditor(*user, "sleepy-watcher");
  ASSERT_TRUE(watcher.ok());
  RemoteEditorEndpoint endpoint(watcher->get());
  DirectTransport transport(&endpoint);
  RetryingClient client(&transport);
  ASSERT_TRUE(client.Open(*doc).ok());

  auto typist = (*server)->AttachEditor(*user, "typist");
  ASSERT_TRUE(typist.ok());
  ASSERT_TRUE((*typist)->Open(*doc).ok());
  std::string expected;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE((*typist)->Type(*doc, expected.size(), "x").ok());
    expected += "x";
  }

  SessionManager* sm = (*server)->sessions();
  auto pending = sm->PendingCount((*watcher)->session());
  ASSERT_TRUE(pending.ok());
  EXPECT_LE(*pending, (*server)->sessions()->options().max_inbox_events)
      << "outbox must stay bounded for a consumer that never polls";
  EXPECT_GE(sm->resyncs_emitted(), 1u);

  // The client learns its replica is stale and re-reads a snapshot.
  auto changes = client.PollChanges();
  ASSERT_TRUE(changes.ok());
  EXPECT_TRUE(changes->resync_required);
  // A second poll acknowledges the delivered marker/tail, draining the
  // retained outbox (events are only dropped once a later resume acks
  // them — that is what makes a lost response free).
  ASSERT_TRUE(client.PollChanges().ok());
  auto snapshot = client.GetText(*doc);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(*snapshot, expected);

  // Once caught up, the stream is clean again.
  ASSERT_TRUE((*typist)->Type(*doc, 0, "y").ok());
  auto after = client.PollChanges();
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->resync_required);
}

TEST_F(ResilienceTest, StaleResumeCursorForcesResync) {
  DocumentId doc = MakeDoc(alice_, "rewind", "");
  auto watcher = server_->AttachEditor(bob_, "watcher");
  ASSERT_TRUE(watcher.ok());
  ASSERT_TRUE((*watcher)->Open(doc).ok());
  ASSERT_TRUE(server_->text()->InsertText(alice_, doc, 0, "abc").ok());

  SessionManager* sm = server_->sessions();
  auto first = sm->Resume((*watcher)->session(), 0);
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first->empty());
  const uint64_t high = first->back().seq;
  // Acknowledge everything...
  ASSERT_TRUE(sm->Resume((*watcher)->session(), high).ok());
  // ...then come back with a cursor from before the ack horizon. Those
  // events are gone; the only honest answer is a resync marker.
  auto stale = sm->Resume((*watcher)->session(), 0);
  ASSERT_TRUE(stale.ok());
  ASSERT_EQ(stale->size(), 1u);
  EXPECT_EQ(stale->front().event.kind, ChangeKind::kResync);
  // And the marker itself survives a retried (identical) resume.
  auto retried = sm->Resume((*watcher)->session(), 0);
  ASSERT_TRUE(retried.ok());
  ASSERT_EQ(retried->size(), 1u);
  EXPECT_EQ(retried->front().event.kind, ChangeKind::kResync);

  // A resume from the future is a protocol violation, not a resync.
  auto future = sm->Resume((*watcher)->session(), 1'000'000);
  EXPECT_TRUE(future.status().IsInvalidArgument());
}

// --- leases over the wire ---

TEST_F(ResilienceTest, HeartbeatsKeepALeasedSessionAliveOverTheWire) {
  TendaxOptions options;
  auto clock = std::make_shared<ManualClock>(1'000'000'000, 1000);
  options.db.clock = clock;
  options.session.lease_ttl_micros = 2'000'000;
  auto server = TendaxServer::Open(std::move(options));
  ASSERT_TRUE(server.ok());
  auto user = (*server)->accounts()->CreateUser("beat");
  ASSERT_TRUE(user.ok());
  auto doc = (*server)->text()->CreateDocument(*user, "doc");
  ASSERT_TRUE(doc.ok());

  auto editor = (*server)->AttachEditor(*user, "remote");
  ASSERT_TRUE(editor.ok());
  RemoteEditorEndpoint endpoint(editor->get());
  DirectTransport transport(&endpoint);
  RetryingClient client(&transport);
  ASSERT_TRUE(client.Open(*doc).ok());

  for (int i = 0; i < 5; ++i) {
    clock->Advance(1'500'000);  // would expire without the heartbeat
    ASSERT_TRUE(client.Heartbeat().ok()) << "iteration " << i;
  }
  EXPECT_EQ((*server)->sessions()->ReapExpired(), 0u);

  clock->Advance(3'000'000);  // now let it lapse for real
  EXPECT_EQ((*server)->sessions()->ReapExpired(), 1u);
  Status s = client.Heartbeat();
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
}

// Priority-starvation regression: with the admission gate saturated by
// normal-class edit traffic (tiny inflight/queue bounds, constant sheds), a
// leased session that lives purely on kHeartbeat frames must keep renewing —
// heartbeats ride the critical class, which is never shed before normals,
// so mid-storm ReapExpired sweeps find nothing to reap.
TEST_F(ResilienceTest, HeartbeatsSurviveNormalClassSaturation) {
  constexpr size_t kStormers = 8;

  TendaxOptions options;
  options.session.lease_ttl_micros = 5'000'000;  // SystemClock domain
  options.admission.max_inflight = 1;
  options.admission.queue_depth = 2;
  options.admission.retry_after_base_micros = 100;
  options.admission.retry_after_max_micros = 2'000;
  auto server = TendaxServer::Open(std::move(options));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto user = (*server)->accounts()->CreateUser("storm");
  ASSERT_TRUE(user.ok());
  auto doc = (*server)->text()->CreateDocument(*user, "saturated");
  ASSERT_TRUE(doc.ok());

  struct Conn {
    std::unique_ptr<Editor> editor;
    std::unique_ptr<RemoteEditorEndpoint> endpoint;
    std::unique_ptr<FlakyTransport> transport;
    std::unique_ptr<RetryingClient> client;
  };
  auto connect = [&](const std::string& name, uint64_t seed) {
    auto c = std::make_unique<Conn>();
    auto editor = (*server)->AttachEditor(*user, name);
    EXPECT_TRUE(editor.ok()) << editor.status().ToString();
    c->editor = std::move(*editor);
    c->endpoint = std::make_unique<RemoteEditorEndpoint>(c->editor.get());
    c->transport = std::make_unique<FlakyTransport>(
        c->endpoint.get(), NetFaultOptions::Uniform(seed, 0.0));
    RetryOptions retry;
    retry.seed = seed;
    retry.max_attempts = 10'000;
    retry.base_backoff_micros = 50;
    retry.max_backoff_micros = 2'000;
    retry.sleep_fn = [](uint64_t micros) {
      std::this_thread::sleep_for(std::chrono::microseconds(micros));
    };
    c->client = std::make_unique<RetryingClient>(c->transport.get(), retry);
    return c;
  };

  std::vector<std::unique_ptr<Conn>> stormers;
  for (size_t i = 0; i < kStormers; ++i) {
    stormers.push_back(connect("stormer-" + std::to_string(i), 100 + i));
  }
  auto keeper = connect("lease-keeper", 7);

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kStormers; ++i) {
    threads.emplace_back([&, i] {
      while (!stop.load()) {
        Status st = stormers[i]->client->Type(*doc, 0, "x");
        EXPECT_TRUE(st.ok() || st.IsRetryable()) << st.ToString();
      }
    });
  }

  uint64_t heartbeats_ok = 0;
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  while (std::chrono::steady_clock::now() < until) {
    ASSERT_TRUE(keeper->client->Heartbeat().ok());
    ++heartbeats_ok;
    // Mid-storm reap sweeps must find every lease current.
    EXPECT_EQ((*server)->sessions()->ReapExpired(), 0u);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true);
  for (auto& t : threads) t.join();

  EXPECT_GT(heartbeats_ok, 0u);
  EXPECT_EQ((*server)->sessions()->sessions_reaped(), 0u);
  const auto admission = (*server)->admission()->Stats();
  EXPECT_GT(admission.shed[static_cast<size_t>(PriorityClass::kNormal)], 0u);
  EXPECT_EQ(admission.shed[static_cast<size_t>(PriorityClass::kCritical)],
            0u);
}

// --- the acceptance sweep ---

// >=100 seeded fault schedules; 4 concurrent clients, each typing its own
// letter through its own FlakyTransport; client 0 churns its connection.
// Every schedule must end with byte-identical text on all clients and
// exactly `ops` occurrences of each letter (at-most-once execution).
TEST_F(ResilienceTest, SeededScheduleSweepConverges) {
  const uint64_t kSchedules = EnvU64("TENDAX_RESILIENCE_SCHEDULES", 100);
  const uint64_t kOps = EnvU64("TENDAX_RESILIENCE_OPS", 6);
  constexpr size_t kClients = 4;
  const char kLetters[kClients] = {'a', 'b', 'c', 'd'};

  for (uint64_t schedule = 0; schedule < kSchedules; ++schedule) {
    const uint64_t base_seed = 0xC0FFEE + schedule * 7919;
    DocumentId doc =
        MakeDoc(alice_, "sweep-" + std::to_string(schedule), "");

    // Declared before the per-client connection state so sessions outlive
    // endpoints/transports and delayed frames can flush on Disarm.
    std::vector<std::unique_ptr<Editor>> editors;
    std::vector<std::unique_ptr<RemoteEditorEndpoint>> endpoints;
    std::vector<std::unique_ptr<FlakyTransport>> transports;
    std::vector<std::unique_ptr<RetryingClient>> clients;
    // Index of each client's *current* connection in the vectors above
    // (client 0 churns, so its slot moves).
    size_t current[kClients];

    auto connect = [&](size_t c, uint64_t incarnation) {
      auto faults = NetFaultOptions::Uniform(
          base_seed + c * 131 + incarnation * 17, 0.04);
      endpoints.push_back(std::make_unique<RemoteEditorEndpoint>(
          editors[c].get()));
      transports.push_back(std::make_unique<FlakyTransport>(
          endpoints.back().get(), faults));
      RetryOptions retry;
      retry.max_attempts = 16;
      retry.seed = base_seed ^ (c * 997 + incarnation);
      clients.push_back(std::make_unique<RetryingClient>(
          transports.back().get(), retry));
      current[c] = clients.size() - 1;
    };

    for (size_t c = 0; c < kClients; ++c) {
      auto editor =
          server_->AttachEditor(c % 2 == 0 ? alice_ : bob_,
                                "sweep-client-" + std::to_string(c));
      ASSERT_TRUE(editor.ok());
      editors.push_back(std::move(*editor));
      connect(c, 0);
      ASSERT_TRUE(clients[current[c]]->Open(doc).ok())
          << "schedule " << schedule << " client " << c << ": "
          << transports[current[c]]->Describe();
    }

    uint64_t churn = 0;
    for (uint64_t op = 0; op < kOps; ++op) {
      for (size_t c = 0; c < kClients; ++c) {
        RetryingClient* client = clients[current[c]].get();
        Status s = client->Type(doc, 0, std::string(1, kLetters[c]));
        ASSERT_TRUE(s.ok())
            << "schedule " << schedule << " client " << c << " op " << op
            << ": " << s.ToString() << " via "
            << transports[current[c]]->Describe();
      }
      // Client 0's connection dies every other round; the session and the
      // change-stream cursor survive into the new connection.
      if (op % 2 == 1) {
        const uint64_t cursor = clients[current[0]]->last_seq();
        connect(0, ++churn);
        clients[current[0]]->set_last_seq(cursor);
        auto changes = clients[current[0]]->PollChanges();
        ASSERT_TRUE(changes.ok()) << changes.status().ToString();
        EXPECT_FALSE(changes->resync_required)
            << "schedule " << schedule
            << ": default inbox must not overflow at this event volume";
      }
    }

    // Quiesce: faithful delivery from here on, stale frames flushed.
    for (auto& transport : transports) transport->Disarm();

    std::string reference;
    for (size_t c = 0; c < kClients; ++c) {
      auto text = clients[current[c]]->GetText(doc);
      ASSERT_TRUE(text.ok())
          << "schedule " << schedule << " client " << c << ": "
          << text.status().ToString();
      if (c == 0) {
        reference = *text;
      } else {
        EXPECT_EQ(*text, reference)
            << "schedule " << schedule << ": divergent replicas";
      }
    }
    ASSERT_EQ(reference.size(), kClients * kOps)
        << "schedule " << schedule << ": " << reference;
    std::map<char, uint64_t> counts;
    for (char ch : reference) ++counts[ch];
    for (size_t c = 0; c < kClients; ++c) {
      EXPECT_EQ(counts[kLetters[c]], kOps)
          << "schedule " << schedule << " client " << c
          << ": duplicated or lost edits in " << reference << " via "
          << transports[current[c]]->Describe();
    }

    if (schedule % 20 == 19) {
      ASSERT_TRUE(server_->CheckIntegrity().ok());
    }
  }
  ASSERT_TRUE(server_->CheckIntegrity().ok());
}

}  // namespace
}  // namespace tendax
