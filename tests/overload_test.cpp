// Overload-protection coverage: priority classification, the bounded
// admission queue (block / displace / shed, retry-after hints), degradation
// under dirty-page pressure, deadline propagation (dispatch rejection, lock
// waits, long scans), the client-side circuit breaker, and the seeded
// 64-client overload storm from the acceptance criteria.
//
// Scale knobs (env):
//   TENDAX_OVERLOAD_EDITORS  storm editor threads (default 60; +4 keepers)
//   TENDAX_OVERLOAD_OPS      inserts per editor in the storm (default 6)
//   TENDAX_OVERLOAD_SEED     storm seed (default 1)

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "collab/admission.h"
#include "collab/retrying_client.h"
#include "collab/wire.h"
#include "server_fixture.h"
#include "testing/flaky_transport.h"
#include "testing/schedule_controller.h"
#include "txn/lock_manager.h"
#include "util/deadline.h"

namespace tendax {
namespace {

uint64_t EnvU64(const char* name, uint64_t def) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return def;
  return std::strtoull(value, nullptr, 10);
}

void SpinFor(std::chrono::microseconds d) {
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

// --- priority classification ---

TEST(PriorityClassTest, ClassifyCommandMapsEveryKind) {
  for (uint8_t k = 1; k <= kCommandKindMax; ++k) {
    const auto kind = static_cast<CommandKind>(k);
    const PriorityClass cls = ClassifyCommand(kind);
    if (kind == CommandKind::kHeartbeat || kind == CommandKind::kResume) {
      EXPECT_EQ(cls, PriorityClass::kCritical) << CommandKindName(kind);
    } else if (kind == CommandKind::kStats) {
      EXPECT_EQ(cls, PriorityClass::kBackground) << CommandKindName(kind);
    } else {
      EXPECT_EQ(cls, PriorityClass::kNormal) << CommandKindName(kind);
    }
  }
  EXPECT_STREQ(PriorityClassName(PriorityClass::kCritical), "critical");
  EXPECT_STREQ(PriorityClassName(PriorityClass::kNormal), "normal");
  EXPECT_STREQ(PriorityClassName(PriorityClass::kBackground), "background");
}

// --- backoff overflow satellite ---

TEST(BackoffWindowTest, SaturatesInsteadOfWrapping) {
  EXPECT_EQ(BackoffWindowMicros(200, 0, UINT64_MAX), 200u);
  EXPECT_EQ(BackoffWindowMicros(200, 1, UINT64_MAX), 400u);
  EXPECT_EQ(BackoffWindowMicros(200, 4, UINT64_MAX), 3200u);
  EXPECT_EQ(BackoffWindowMicros(200, 3, 1000), 1000u);  // capped
  // The overflow regression: base * 2^attempt for attempt >= 64 used to
  // wrap to 0 (or worse, a tiny value). It must clamp to the cap.
  EXPECT_EQ(BackoffWindowMicros(200, 64, 50'000), 50'000u);
  EXPECT_EQ(BackoffWindowMicros(200, 100, 50'000), 50'000u);
  EXPECT_EQ(BackoffWindowMicros(1, 1000, 50'000), 50'000u);
  EXPECT_EQ(BackoffWindowMicros(1ULL << 62, 5, UINT64_MAX), UINT64_MAX);
  EXPECT_EQ(BackoffWindowMicros(0, 64, 50'000), 0u);
  EXPECT_EQ(BackoffWindowMicros(200, -3, 50'000), 200u);
}

// --- ambient deadline plumbing ---

TEST(RequestDeadlineTest, ScopedArmAndRestore) {
  EXPECT_FALSE(RequestDeadline::Armed());
  EXPECT_FALSE(RequestDeadline::Expired());
  {
    ScopedRequestDeadline outer(100'000);
    EXPECT_TRUE(RequestDeadline::Armed());
    EXPECT_FALSE(RequestDeadline::Expired());
    EXPECT_GT(RequestDeadline::RemainingMicros(), 0u);
    const auto outer_deadline = RequestDeadline::Deadline();
    {
      // An inner guard can only tighten: a looser inner budget keeps the
      // outer (earlier) deadline.
      ScopedRequestDeadline inner(10'000'000);
      EXPECT_EQ(RequestDeadline::Deadline(), outer_deadline);
      ScopedRequestDeadline tighter(1'000);
      EXPECT_LT(RequestDeadline::Deadline(), outer_deadline);
    }
    EXPECT_EQ(RequestDeadline::Deadline(), outer_deadline);
  }
  EXPECT_FALSE(RequestDeadline::Armed());
  {
    ScopedRequestDeadline noop(0);  // zero budget = no deadline
    EXPECT_FALSE(RequestDeadline::Armed());
  }
  {
    ScopedRequestDeadline tiny(1);
    SpinFor(std::chrono::microseconds(100));
    EXPECT_TRUE(RequestDeadline::Expired());
    EXPECT_EQ(RequestDeadline::RemainingMicros(), 0u);
  }
}

// --- admission controller unit coverage ---

TEST(AdmissionControllerTest, DisabledByDefaultAdmitsEverything) {
  AdmissionController gate(AdmissionOptions{}, nullptr);
  EXPECT_FALSE(gate.enabled());
  for (int i = 0; i < 100; ++i) {
    auto t = gate.Admit(PriorityClass::kBackground);
    EXPECT_TRUE(t.status.ok());
    gate.Release();
  }
  EXPECT_TRUE(gate.AdmitNewSession().ok());
}

TEST(AdmissionControllerTest, BoundedInflightBlocksUntilRelease) {
  AdmissionOptions options;
  options.max_inflight = 1;
  options.queue_depth = 4;
  AdmissionController gate(options, nullptr);

  auto first = gate.Admit(PriorityClass::kNormal);
  ASSERT_TRUE(first.status.ok());

  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    auto t = gate.Admit(PriorityClass::kNormal);
    EXPECT_TRUE(t.status.ok());
    granted.store(true);
    gate.Release();
  });
  while (gate.Stats().queued == 0) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(granted.load());
  gate.Release();
  waiter.join();
  EXPECT_TRUE(granted.load());

  const auto stats = gate.Stats();
  EXPECT_EQ(stats.admitted[static_cast<size_t>(PriorityClass::kNormal)], 2u);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.queued, 0u);
}

TEST(AdmissionControllerTest, FullQueueShedsArrivalOfLowestClass) {
  AdmissionOptions options;
  options.max_inflight = 1;
  options.queue_depth = 1;
  options.retry_after_base_micros = 500;
  AdmissionController gate(options, nullptr);

  auto slot = gate.Admit(PriorityClass::kNormal);
  ASSERT_TRUE(slot.status.ok());

  std::thread queued([&] {
    auto t = gate.Admit(PriorityClass::kNormal);
    EXPECT_TRUE(t.status.ok());
    gate.Release();
  });
  while (gate.Stats().queued == 0) {
    std::this_thread::yield();
  }

  // Queue full of normals: an equal-class arrival is shed, typed, with a
  // nonzero retry-after hint...
  auto same = gate.Admit(PriorityClass::kNormal);
  EXPECT_TRUE(same.status.IsUnavailable()) << same.status.ToString();
  EXPECT_GT(same.retry_after_micros, 0u);
  // ...and a lower-class arrival likewise.
  auto lower = gate.Admit(PriorityClass::kBackground);
  EXPECT_TRUE(lower.status.IsUnavailable());
  EXPECT_GT(lower.retry_after_micros, 0u);

  gate.Release();
  queued.join();

  const auto stats = gate.Stats();
  EXPECT_EQ(stats.shed[static_cast<size_t>(PriorityClass::kNormal)], 1u);
  EXPECT_EQ(stats.shed[static_cast<size_t>(PriorityClass::kBackground)], 1u);
  EXPECT_EQ(stats.shed[static_cast<size_t>(PriorityClass::kCritical)], 0u);
}

TEST(AdmissionControllerTest, HigherClassArrivalDisplacesLowestWaiter) {
  AdmissionOptions options;
  options.max_inflight = 1;
  options.queue_depth = 1;
  AdmissionController gate(options, nullptr);

  auto slot = gate.Admit(PriorityClass::kNormal);
  ASSERT_TRUE(slot.status.ok());

  AdmissionController::Ticket background_ticket;
  std::thread background([&] {
    background_ticket = gate.Admit(PriorityClass::kBackground);
    if (background_ticket.status.ok()) gate.Release();
  });
  while (gate.Stats().queued == 0) {
    std::this_thread::yield();
  }

  AdmissionController::Ticket critical_ticket;
  std::thread critical([&] {
    critical_ticket = gate.Admit(PriorityClass::kCritical);
    if (critical_ticket.status.ok()) gate.Release();
  });
  // The critical arrival displaces the queued background waiter, which
  // comes back typed kUnavailable with a hint.
  background.join();
  EXPECT_TRUE(background_ticket.status.IsUnavailable())
      << background_ticket.status.ToString();
  EXPECT_GT(background_ticket.retry_after_micros, 0u);

  gate.Release();
  critical.join();
  EXPECT_TRUE(critical_ticket.status.ok())
      << critical_ticket.status.ToString();

  const auto stats = gate.Stats();
  EXPECT_EQ(stats.shed[static_cast<size_t>(PriorityClass::kBackground)], 1u);
  EXPECT_EQ(stats.shed[static_cast<size_t>(PriorityClass::kCritical)], 0u);
  EXPECT_EQ(stats.admitted[static_cast<size_t>(PriorityClass::kCritical)],
            1u);
}

TEST(AdmissionControllerTest, ReleaseGrantsHighestPriorityWaiterFirst) {
  AdmissionOptions options;
  options.max_inflight = 1;
  options.queue_depth = 4;
  AdmissionController gate(options, nullptr);

  auto slot = gate.Admit(PriorityClass::kNormal);
  ASSERT_TRUE(slot.status.ok());

  std::atomic<int> grant_counter{0};
  int normal_rank = 0, critical_rank = 0;
  std::thread normal([&] {
    auto t = gate.Admit(PriorityClass::kNormal);
    EXPECT_TRUE(t.status.ok());
    normal_rank = ++grant_counter;
    gate.Release();
  });
  while (gate.Stats().queued < 1) {
    std::this_thread::yield();
  }
  std::thread critical([&] {
    auto t = gate.Admit(PriorityClass::kCritical);
    EXPECT_TRUE(t.status.ok());
    critical_rank = ++grant_counter;
    gate.Release();
  });
  while (gate.Stats().queued < 2) {
    std::this_thread::yield();
  }

  gate.Release();
  normal.join();
  critical.join();
  // The critical waiter arrived second but is granted first.
  EXPECT_EQ(critical_rank, 1);
  EXPECT_EQ(normal_rank, 2);
}

TEST(AdmissionControllerTest, QueueWaitCapSheds) {
  AdmissionOptions options;
  options.max_inflight = 1;
  options.queue_depth = 2;
  options.max_queue_wait_micros = 20'000;
  AdmissionController gate(options, nullptr);

  auto slot = gate.Admit(PriorityClass::kNormal);
  ASSERT_TRUE(slot.status.ok());

  const auto t0 = std::chrono::steady_clock::now();
  auto waited = gate.Admit(PriorityClass::kNormal);  // queues, then times out
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_TRUE(waited.status.IsUnavailable()) << waited.status.ToString();
  EXPECT_GT(waited.retry_after_micros, 0u);
  EXPECT_GE(elapsed.count(), 20'000);
  gate.Release();

  const auto stats = gate.Stats();
  EXPECT_EQ(stats.shed[static_cast<size_t>(PriorityClass::kNormal)], 1u);
  EXPECT_EQ(stats.queued, 0u);
}

TEST(AdmissionControllerTest, RequestDeadlineBoundsQueueWait) {
  AdmissionOptions options;
  options.max_inflight = 1;
  options.queue_depth = 2;
  options.max_queue_wait_micros = 10'000'000;  // the deadline must win
  AdmissionController gate(options, nullptr);

  auto slot = gate.Admit(PriorityClass::kNormal);
  ASSERT_TRUE(slot.status.ok());

  ScopedRequestDeadline deadline(20'000);
  const auto t0 = std::chrono::steady_clock::now();
  auto waited = gate.Admit(PriorityClass::kNormal);
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_TRUE(waited.status.IsDeadlineExceeded())
      << waited.status.ToString();
  EXPECT_LT(elapsed.count(), 5'000'000);
  gate.Release();

  const auto stats = gate.Stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.shed[static_cast<size_t>(PriorityClass::kNormal)], 0u);
}

TEST(AdmissionControllerTest, RetryAfterScalesWithBacklogAndClamps) {
  AdmissionOptions options;
  options.max_inflight = 1;
  options.queue_depth = 0;  // every overflow sheds immediately
  options.retry_after_base_micros = 1'000;
  options.retry_after_max_micros = 2'500;
  AdmissionController gate(options, nullptr);

  auto slot = gate.Admit(PriorityClass::kNormal);
  ASSERT_TRUE(slot.status.ok());
  auto shed = gate.Admit(PriorityClass::kNormal);
  EXPECT_TRUE(shed.status.IsUnavailable());
  // Empty queue: hint = base * (1 + 0), below the clamp.
  EXPECT_EQ(shed.retry_after_micros, 1'000u);
  gate.Release();

  // With a deeper backlog the hint grows but stays clamped.
  options.queue_depth = 3;
  AdmissionController gate2(options, nullptr);
  ASSERT_TRUE(gate2.Admit(PriorityClass::kNormal).status.ok());
  std::vector<std::thread> waiters;
  for (int i = 0; i < 3; ++i) {
    waiters.emplace_back([&] {
      auto t = gate2.Admit(PriorityClass::kNormal);
      if (t.status.ok()) gate2.Release();
    });
  }
  while (gate2.Stats().queued < 3) {
    std::this_thread::yield();
  }
  auto shed2 = gate2.Admit(PriorityClass::kNormal);
  EXPECT_TRUE(shed2.status.IsUnavailable());
  EXPECT_EQ(shed2.retry_after_micros, 2'500u);  // 1000*(1+3) clamped
  gate2.Release();
  for (auto& t : waiters) t.join();
}

TEST(AdmissionControllerTest, DegradedModeShedsBackgroundAndNewSessions) {
  AdmissionOptions options;
  options.max_inflight = 4;
  AdmissionController gate(options, nullptr);
  std::atomic<bool> pressure{false};
  gate.SetPressureProbe([&] { return pressure.load(); });

  auto bg = gate.Admit(PriorityClass::kBackground);
  EXPECT_TRUE(bg.status.ok());
  gate.Release();
  EXPECT_TRUE(gate.AdmitNewSession().ok());

  pressure.store(true);
  auto shed = gate.Admit(PriorityClass::kBackground);
  EXPECT_TRUE(shed.status.IsUnavailable()) << shed.status.ToString();
  EXPECT_GT(shed.retry_after_micros, 0u);
  // Normal and critical traffic still flows while degraded.
  auto normal = gate.Admit(PriorityClass::kNormal);
  EXPECT_TRUE(normal.status.ok());
  gate.Release();
  auto critical = gate.Admit(PriorityClass::kCritical);
  EXPECT_TRUE(critical.status.ok());
  gate.Release();
  // New sessions are refused before existing ones are harmed.
  auto refused = gate.AdmitNewSession();
  EXPECT_TRUE(refused.IsUnavailable());

  pressure.store(false);
  EXPECT_TRUE(gate.Admit(PriorityClass::kBackground).status.ok());
  gate.Release();
  EXPECT_TRUE(gate.AdmitNewSession().ok());

  const auto stats = gate.Stats();
  EXPECT_EQ(stats.shed[static_cast<size_t>(PriorityClass::kBackground)], 1u);
  EXPECT_EQ(stats.sessions_refused, 1u);
}

// --- deadline propagation into the engine ---

TEST(LockManagerDeadlineTest, RequestDeadlineCapsLockWait) {
  LockManager lm(std::chrono::milliseconds(2000));
  const uint64_t resource = MakeResource(ResourceKind::kDocument, 7);

  std::atomic<bool> locked{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    ASSERT_TRUE(lm.Acquire(TxnId(1), resource, LockMode::kX).ok());
    locked.store(true);
    while (!release.load()) {
      std::this_thread::yield();
    }
    lm.ReleaseAll(TxnId(1));
  });
  while (!locked.load()) {
    std::this_thread::yield();
  }

  // Without a deadline this wait would block the full 2s lock_timeout and
  // return Conflict. With a 30ms request budget it must come back early
  // and typed.
  const auto t0 = std::chrono::steady_clock::now();
  Status st;
  {
    ScopedRequestDeadline deadline(30'000);
    st = lm.Acquire(TxnId(2), resource, LockMode::kX);
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
  EXPECT_GE(elapsed.count(), 25);
  EXPECT_LT(elapsed.count(), 1500);  // far below lock_timeout
  EXPECT_EQ(lm.stats().deadline_exceeded, 1u);
  EXPECT_EQ(lm.stats().timeouts, 0u);

  // Without an ambient deadline the classic timeout path is untouched.
  LockManager fast(std::chrono::milliseconds(20));
  ASSERT_TRUE(fast.Acquire(TxnId(1), resource, LockMode::kX).ok());
  std::thread blocked([&] {
    Status conflict = fast.Acquire(TxnId(2), resource, LockMode::kX);
    EXPECT_TRUE(conflict.IsConflict()) << conflict.ToString();
  });
  blocked.join();
  EXPECT_EQ(fast.stats().timeouts, 1u);
  EXPECT_EQ(fast.stats().deadline_exceeded, 0u);
  fast.ReleaseAll(TxnId(1));

  release.store(true);
  holder.join();
}

class OverloadServerTest : public ServerTest {};

TEST_F(OverloadServerTest, ExpiredDeadlineRejectedAtDispatchWithoutWork) {
  DocumentId doc = MakeDoc(alice_, "deadline", "seed");
  auto editor = server_->AttachEditor(alice_, "deadline-editor");
  ASSERT_TRUE(editor.ok());
  RemoteEditorEndpoint endpoint(editor->get());

  EditCommand cmd;
  cmd.kind = CommandKind::kType;
  cmd.doc = doc;
  cmd.pos = 0;
  cmd.text = "X";
  cmd.request_id = 1234;
  cmd.deadline_micros = 1;  // hopelessly in the past of the manual clock
  auto response = DecodeResponse(endpoint.Handle(EncodeCommand(cmd)));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(endpoint.deadline_rejected(), 1u);

  // The command did not execute and was not cached: the document is
  // untouched and a re-send with a future deadline executes normally.
  auto text = server_->text()->Text(doc);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "seed");

  cmd.deadline_micros = clock_->NowMicros() + 60'000'000;
  auto retry = DecodeResponse(endpoint.Handle(EncodeCommand(cmd)));
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->code, StatusCode::kOk);
  text = server_->text()->Text(doc);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "Xseed");
  EXPECT_EQ(endpoint.deadline_rejected(), 1u);
}

TEST_F(OverloadServerTest, SearchScanHonorsRequestDeadline) {
  MakeDoc(alice_, "scan-a", "alpha beta gamma");
  MakeDoc(alice_, "scan-b", "alpha delta");
  auto fresh = server_->search()->Search("alpha");
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh->size(), 2u);

  ScopedRequestDeadline deadline(1);
  SpinFor(std::chrono::microseconds(200));
  auto expired = server_->search()->Search("alpha");
  EXPECT_TRUE(expired.status().IsDeadlineExceeded())
      << expired.status().ToString();
}

TEST(DegradedServerTest, RefusesNewSessionsOnly) {
  TendaxOptions options;
  options.admission.max_inflight = 16;  // gate enabled, far from saturation
  auto server = TendaxServer::Open(std::move(options));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto user = (*server)->accounts()->CreateUser("pressured");
  ASSERT_TRUE(user.ok());

  std::atomic<bool> pressure{false};
  // Stand-in for the dirty-page probe wired by TendaxServer::Open; the
  // buffer-pool-backed probe itself uses the same SetPressureProbe path.
  (*server)->admission()->SetPressureProbe([&] { return pressure.load(); });

  auto before = (*server)->AttachEditor(*user, "before-pressure");
  ASSERT_TRUE(before.ok());

  pressure.store(true);
  auto refused = (*server)->AttachEditor(*user, "during-pressure");
  EXPECT_TRUE(refused.status().IsUnavailable())
      << refused.status().ToString();
  EXPECT_EQ((*server)->admission()->Stats().sessions_refused, 1u);

  // The existing session keeps working at full rights while degraded.
  auto doc = (*before)->CreateDocument("degraded-doc");
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE((*before)->Open(*doc).ok());
  EXPECT_TRUE((*before)->Type(*doc, 0, "still-works").ok());
  EXPECT_TRUE((*before)->Heartbeat().ok());

  pressure.store(false);
  auto after = (*server)->AttachEditor(*user, "after-pressure");
  EXPECT_TRUE(after.ok()) << after.status().ToString();
}

// --- client side: retry-after honoring and the circuit breaker ---

/// A transport whose server sheds the first `shed_remaining` requests with
/// kUnavailable (+ optional hint), then answers OK.
class CannedShedTransport : public WireTransport {
 public:
  Result<std::string> RoundTrip(const std::string& request) override {
    auto body = OpenFrame(request);
    if (!body.ok()) return body.status();
    ++calls;
    WireResponse response;
    if (shed_remaining > 0) {
      --shed_remaining;
      response.code = StatusCode::kUnavailable;
      response.message = "canned shed";
      response.retry_after_micros = hint_micros;
    }
    return SealFrame(EncodeResponse(response));
  }

  int shed_remaining = 0;
  uint64_t hint_micros = 0;
  int calls = 0;
};

EditCommand Gesture(CommandKind kind = CommandKind::kGetText) {
  EditCommand cmd;
  cmd.kind = kind;
  cmd.doc = DocumentId(1);
  return cmd;
}

TEST(RetryingClientOverloadTest, RetryAfterHintOverridesBackoff) {
  CannedShedTransport transport;
  transport.shed_remaining = 3;
  transport.hint_micros = 7'777;

  std::vector<uint64_t> waits;
  RetryOptions options;
  options.seed = 5;
  options.sleep_fn = [&](uint64_t micros) { waits.push_back(micros); };
  RetryingClient client(&transport, options);

  auto response = client.Call(Gesture());
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, StatusCode::kOk);
  EXPECT_EQ(transport.calls, 4);
  ASSERT_EQ(waits.size(), 3u);
  for (uint64_t w : waits) EXPECT_EQ(w, 7'777u);  // hint, not jitter
  EXPECT_EQ(client.stats().unavailable, 3u);
  EXPECT_EQ(client.stats().retry_after_honored, 3u);
  EXPECT_EQ(client.stats().unavailable_without_hint, 0u);
}

TEST(RetryingClientOverloadTest, HintlessShedFallsBackToJitteredBackoff) {
  CannedShedTransport transport;
  transport.shed_remaining = 2;
  transport.hint_micros = 0;

  std::vector<uint64_t> waits;
  RetryOptions options;
  options.seed = 5;
  options.base_backoff_micros = 200;
  options.max_backoff_micros = 50'000;
  options.sleep_fn = [&](uint64_t micros) { waits.push_back(micros); };
  RetryingClient client(&transport, options);

  auto response = client.Call(Gesture());
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(waits.size(), 2u);
  EXPECT_GE(waits[0], 1u);
  EXPECT_LE(waits[0], 200u);  // jittered slice of the base window
  EXPECT_LE(waits[1], 400u);
  EXPECT_EQ(client.stats().unavailable_without_hint, 2u);
  EXPECT_EQ(client.stats().retry_after_honored, 0u);
}

TEST(RetryingClientOverloadTest, ShedResponsesStopAfterMaxAttempts) {
  CannedShedTransport transport;
  transport.shed_remaining = 1'000'000;
  transport.hint_micros = 5;
  RetryOptions options;
  options.max_attempts = 4;
  RetryingClient client(&transport, options);

  auto response = client.Call(Gesture());
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, StatusCode::kUnavailable);
  EXPECT_EQ(transport.calls, 4);  // bounded, no infinite shed loop
}

TEST(RetryingClientOverloadTest, CircuitBreakerOpensHalfOpensAndCloses) {
  auto clock = std::make_shared<ManualClock>(/*start=*/1'000'000,
                                             /*tick=*/0);
  CannedShedTransport transport;
  transport.shed_remaining = 1'000'000;
  transport.hint_micros = 50;

  RetryOptions options;
  options.max_attempts = 10;
  options.breaker_threshold = 3;
  options.breaker_cooldown_micros = 40'000;
  options.clock = clock.get();
  RetryingClient client(&transport, options);

  // Three consecutive sheds open the breaker mid-call.
  auto first = client.Call(Gesture());
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->code, StatusCode::kUnavailable);
  EXPECT_EQ(transport.calls, 3);
  EXPECT_TRUE(client.breaker_open());
  EXPECT_EQ(client.stats().breaker_opens, 1u);

  // While open, calls fail fast without touching the wire, and the local
  // retry-after mirrors the remaining cooldown.
  auto blocked = client.Call(Gesture());
  ASSERT_TRUE(blocked.ok());
  EXPECT_EQ(blocked->code, StatusCode::kUnavailable);
  EXPECT_GT(blocked->retry_after_micros, 0u);
  EXPECT_EQ(transport.calls, 3);
  EXPECT_EQ(client.stats().breaker_short_circuits, 1u);

  // After the cooldown the next call is a half-open probe; the server is
  // still shedding, so the breaker re-opens after one attempt.
  clock->Advance(50'000);
  auto probe = client.Call(Gesture());
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe->code, StatusCode::kUnavailable);
  EXPECT_EQ(transport.calls, 4);
  EXPECT_TRUE(client.breaker_open());
  EXPECT_EQ(client.stats().breaker_opens, 2u);

  // Once the server recovers, the probe succeeds and the breaker closes.
  transport.shed_remaining = 0;
  clock->Advance(50'000);
  auto recovered = client.Call(Gesture());
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->code, StatusCode::kOk);
  EXPECT_FALSE(client.breaker_open());
  auto steady = client.Call(Gesture());
  ASSERT_TRUE(steady.ok());
  EXPECT_EQ(steady->code, StatusCode::kOk);
  EXPECT_EQ(transport.calls, 6);
}

// --- the overload storm (acceptance) ---
//
// 64 clients against a server whose admission gate is tiny: 60 editor
// threads hammer one shared document while 4 keeper sessions depend purely
// on heartbeats to stay alive, and a WAL flush is frozen mid-storm
// (ScheduleController) to spike the backlog. The storm must end
// with every editor's writes applied, all replicas identical, zero reaped
// sessions, normal-class sheds observed as typed kUnavailable with nonzero
// retry-after hints, and zero critical-class sheds.
TEST(OverloadStormTest, SeededStormConvergesWhileShedding) {
  const size_t kEditors = EnvU64("TENDAX_OVERLOAD_EDITORS", 60);
  const size_t kKeepers = 4;
  const size_t kOps = EnvU64("TENDAX_OVERLOAD_OPS", 6);
  const uint64_t kSeed = EnvU64("TENDAX_OVERLOAD_SEED", 1);

  auto sched = std::make_shared<ScheduleController>(kSeed);
  TendaxOptions options;
  options.db.metrics = std::make_shared<MetricsRegistry>();
  options.db.log_storage = sched->GateLog(
      std::make_shared<InMemoryLogStorage>(), options.db.metrics);
  options.session.lease_ttl_micros = 10'000'000;  // 10s, SystemClock domain
  options.admission.max_inflight = 2;
  options.admission.queue_depth = 8;
  options.admission.retry_after_base_micros = 200;
  options.admission.retry_after_max_micros = 5'000;
  // Sheds must come from displacement/arrival overflow (class-ordered),
  // not from wait timeouts that could hit a critical during the flusher
  // freeze.
  options.admission.max_queue_wait_micros = 60'000'000;
  auto server = TendaxServer::Open(std::move(options));
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto user = (*server)->accounts()->CreateUser("storm");
  ASSERT_TRUE(user.ok());
  auto owner = (*server)->AttachEditor(*user, "owner");
  ASSERT_TRUE(owner.ok());
  auto doc = (*owner)->CreateDocument("storm.txt");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();

  struct Client {
    std::unique_ptr<Editor> editor;
    std::unique_ptr<RemoteEditorEndpoint> endpoint;
    std::unique_ptr<FlakyTransport> transport;
    std::unique_ptr<RetryingClient> client;
  };
  auto make_client = [&](const std::string& name, uint64_t seed) {
    auto c = std::make_unique<Client>();
    auto editor = (*server)->AttachEditor(*user, name);
    EXPECT_TRUE(editor.ok()) << editor.status().ToString();
    c->editor = std::move(*editor);
    c->endpoint = std::make_unique<RemoteEditorEndpoint>(c->editor.get());
    c->transport = std::make_unique<FlakyTransport>(
        c->endpoint.get(), NetFaultOptions::Uniform(seed, 0.0));
    RetryOptions retry;
    retry.seed = seed;
    retry.max_attempts = 10'000;  // rely on retry-after, not give-up
    retry.base_backoff_micros = 100;
    retry.max_backoff_micros = 5'000;
    retry.sleep_fn = [](uint64_t micros) {
      std::this_thread::sleep_for(std::chrono::microseconds(micros));
    };
    c->client = std::make_unique<RetryingClient>(c->transport.get(), retry);
    return c;
  };

  std::vector<std::unique_ptr<Client>> editors;
  for (size_t i = 0; i < kEditors; ++i) {
    editors.push_back(make_client("editor-" + std::to_string(i),
                                  kSeed * 1000 + i));
  }
  std::vector<std::unique_ptr<Client>> keepers;
  for (size_t i = 0; i < kKeepers; ++i) {
    keepers.push_back(make_client("keeper-" + std::to_string(i),
                                  kSeed * 5000 + i));
  }

  std::atomic<bool> stop_keepers{false};
  std::atomic<uint64_t> heartbeats_ok{0};
  std::vector<std::thread> keeper_threads;
  for (size_t i = 0; i < kKeepers; ++i) {
    keeper_threads.emplace_back([&, i] {
      while (!stop_keepers.load()) {
        // Keeper sessions live or die by their heartbeats: a single shed
        // streak outlasting the lease would reap them.
        if (keepers[i]->client->Heartbeat().ok()) {
          heartbeats_ok.fetch_add(1);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
  }

  std::atomic<uint64_t> ops_applied{0};
  std::vector<std::thread> editor_threads;
  for (size_t i = 0; i < kEditors; ++i) {
    editor_threads.emplace_back([&, i] {
      Client& me = *editors[i];
      while (!me.client->Open(*doc).ok()) {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
      for (size_t op = 0; op < kOps; ++op) {
        // The client retries sheds internally (honoring retry-after); a
        // lock conflict aborts the transaction server-side, so re-running
        // the edit under a fresh request id is safe and applies once.
        Status st = me.client->Type(*doc, 0, "x");
        while (st.IsRetryable()) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          st = me.client->Type(*doc, 0, "x");
        }
        EXPECT_TRUE(st.ok()) << "editor " << i << ": " << st.ToString();
        if (st.ok()) ops_applied.fetch_add(1);
      }
    });
  }

  // Mid-storm: freeze the next WAL flush so every editing request stalls
  // in commit while heartbeats (no commit) keep flowing, then release.
  // This spikes the admission backlog deterministically.
  sched->PauseAtFlush(sched->flushes_seen() + 1);
  if (sched->WaitUntilPaused(std::chrono::milliseconds(5000))) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  sched->ReleaseFlush();

  for (auto& t : editor_threads) t.join();
  stop_keepers.store(true);
  for (auto& t : keeper_threads) t.join();

  EXPECT_EQ(ops_applied.load(), kEditors * kOps);
  EXPECT_GT(heartbeats_ok.load(), 0u);

  // Zero ghost sessions: nothing was reaped during the storm, and an
  // explicit sweep right after it finds every lease renewed.
  EXPECT_EQ((*server)->sessions()->ReapExpired(), 0u);
  EXPECT_EQ((*server)->sessions()->sessions_reaped(), 0u);

  // All surviving clients converge to the identical document.
  auto reference = (*owner)->Text(*doc);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(reference->size(), kEditors * kOps);
  for (auto& c : editors) {
    auto text = c->client->GetText(*doc);
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    EXPECT_EQ(*text, *reference);
  }

  // Shedding happened, was class-ordered, and every shed carried a hint.
  const auto admission = (*server)->admission()->Stats();
  EXPECT_GT(admission.shed[static_cast<size_t>(PriorityClass::kNormal)], 0u)
      << sched->Describe();
  EXPECT_EQ(admission.shed[static_cast<size_t>(PriorityClass::kCritical)],
            0u);
  uint64_t client_unavailable = 0, hintless = 0;
  for (auto& c : editors) {
    client_unavailable += c->client->stats().unavailable;
    hintless += c->client->stats().unavailable_without_hint;
  }
  for (auto& c : keepers) {
    client_unavailable += c->client->stats().unavailable;
    hintless += c->client->stats().unavailable_without_hint;
  }
  EXPECT_GT(client_unavailable, 0u);
  EXPECT_EQ(hintless, 0u);

  // The admission family is part of every kStats snapshot.
  auto snapshot = (*owner)->ServerStats();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->CounterValue("admission.shed.normal"),
            admission.shed[static_cast<size_t>(PriorityClass::kNormal)]);
  EXPECT_EQ(snapshot->CounterValue("admission.shed.critical"), 0u);
  EXPECT_GT(snapshot->CounterValue("admission.admitted.critical"), 0u);
  EXPECT_GE(snapshot->GaugeValue("admission.inflight"), 0);
}

}  // namespace
}  // namespace tendax
