#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "collab/retrying_client.h"
#include "core/tendax.h"
#include "obs/metrics.h"
#include "storage/segmented_log.h"
#include "storage/wal.h"
#include "testing/flaky_transport.h"
#include "util/random.h"
#include "workload/generators.h"

namespace tendax {
namespace {

// Multi-threaded collaboration stress: N editor clients hammer one shared
// document through the full stack (access control, transactions, locking,
// session fan-out). Designed to run under TSAN (-DTENDAX_SANITIZE=thread):
// the assertions cover convergence, the sanitizer covers data races.
//
// Scale knobs (bounded defaults for tier-1):
//   TENDAX_STRESS_THREADS       concurrent editors  (default 4)
//   TENDAX_STRESS_OPS           edits per editor    (default 60)
//   TENDAX_STRESS_OVERLOAD      overload-storm case: 0 skip, 1 run (default)
//   TENDAX_STRESS_MVCC          snapshot-reader storm: 0 skip, 1 run (default)
//   TENDAX_STRESS_MVCC_READERS  snapshot readers in that storm (default 16)

uint64_t EnvU64(const char* name, uint64_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  return std::strtoull(v, nullptr, 10);
}

TEST(CollabStressTest, ConcurrentEditorsConvergeOnSharedDocument) {
  const size_t kThreads = static_cast<size_t>(EnvU64("TENDAX_STRESS_THREADS", 4));
  const size_t kOpsPerThread = static_cast<size_t>(EnvU64("TENDAX_STRESS_OPS", 60));

  TendaxOptions options;
  options.db.buffer_pool_pages = 1024;
  auto server_res = TendaxServer::Open(std::move(options));
  ASSERT_TRUE(server_res.ok()) << server_res.status().ToString();
  TendaxServer* server = server_res->get();

  auto owner = server->accounts()->CreateUser("owner");
  ASSERT_TRUE(owner.ok());
  auto doc = server->text()->CreateDocument(*owner, "shared.txt");
  ASSERT_TRUE(doc.ok());

  // One user + attached editor per thread; all open the same document so
  // every committed edit fans out to every session.
  std::vector<std::unique_ptr<Editor>> editors;
  for (size_t t = 0; t < kThreads; ++t) {
    auto user = server->accounts()->CreateUser("editor" + std::to_string(t));
    ASSERT_TRUE(user.ok());
    auto editor = server->AttachEditor(*user, "stress-client");
    ASSERT_TRUE(editor.ok()) << editor.status().ToString();
    ASSERT_TRUE((*editor)->Open(*doc).ok());
    editors.push_back(std::move(*editor));
  }

  std::atomic<size_t> applied{0};
  std::atomic<size_t> gave_up{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Editor* editor = editors[t].get();
      TypingTraceGenerator gen(/*seed=*/1000 + t);
      for (size_t i = 0; i < kOpsPerThread; ++i) {
        // The document length moves under us; poll it fresh and clamp. A
        // concurrent edit can still race the position past the end, which
        // the engine must reject cleanly (kOutOfRange), not corrupt.
        auto len = server->text()->Length(*doc);
        if (!len.ok()) {
          ++gave_up;
          continue;
        }
        TypingAction a = gen.Next(static_cast<size_t>(*len));
        bool done = false;
        for (int attempt = 0; attempt < 8 && !done; ++attempt) {
          Status st = a.kind == TypingAction::Kind::kInsert
                          ? editor->Type(*doc, a.pos, a.text)
                          : editor->Erase(*doc, a.pos, a.len);
          if (st.ok()) {
            ++applied;
            done = true;
          } else if (st.IsOutOfRange()) {
            // Lost the race on the document length; skip this gesture.
            done = true;
          } else {
            ASSERT_TRUE(st.IsRetryable() || st.IsConflict())
                << "thread " << t << " op " << i << ": " << st.ToString();
            std::this_thread::yield();
          }
        }
        if (!done) ++gave_up;
        (void)editor->PollEvents();  // drain so inboxes never overflow
      }
    });
  }
  for (auto& th : threads) th.join();

  // Convergence: every editor reads the same final text, which matches the
  // server-side read, and at least some edits landed.
  EXPECT_GT(applied.load(), 0u);
  auto server_text = server->text()->Text(*doc);
  ASSERT_TRUE(server_text.ok()) << server_text.status().ToString();
  for (size_t t = 0; t < kThreads; ++t) {
    auto view = editors[t]->Text(*doc);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_EQ(*view, *server_text) << "editor " << t << " diverged";
  }

  // Nothing leaked: no active transactions, and the document still passes
  // the structural integrity sweep.
  EXPECT_EQ(server->db()->txns()->ActiveCount(), 0u);
  Status integrity = server->CheckIntegrity();
  EXPECT_TRUE(integrity.ok()) << integrity.ToString();

  // Every applied edit's commit went through the one commit path, and no
  // flush failed. Run under TENDAX_SANITIZE=thread this is the race check
  // for committers sharing the WAL's flush slot.
  MetricsSnapshot snap = server->metrics()->Snapshot();
  EXPECT_GE(snap.CounterValue("wal.commits"), applied.load());
  EXPECT_EQ(snap.CounterValue("wal.failed_flushes"), 0u);
}

// Satellite: reconnect churn over a flaky transport with leases enabled.
// Every editor drives the server through the wire protocol (idempotency
// keys, retries, resumable polls) while its connection objects are torn
// down and rebuilt mid-run, and a reaper thread sweeps leases concurrently
// with dispatch and heartbeats. Under TENDAX_SANITIZE=thread this is the
// race check for the session-resilience layer.
TEST(CollabStressTest, ReconnectChurnOverFlakyTransportConverges) {
  const size_t kThreads =
      static_cast<size_t>(EnvU64("TENDAX_STRESS_THREADS", 4));
  const size_t kOpsPerThread =
      static_cast<size_t>(EnvU64("TENDAX_STRESS_OPS", 60));

  TendaxOptions options;
  options.db.buffer_pool_pages = 1024;
  // Leases on, with a TTL far beyond the run so only the lease *machinery*
  // (touch-on-command, heartbeats, the reaper) is exercised — expiry
  // itself is covered deterministically in resilience_test.
  options.session.lease_ttl_micros = 60'000'000;
  auto server_res = TendaxServer::Open(std::move(options));
  ASSERT_TRUE(server_res.ok()) << server_res.status().ToString();
  TendaxServer* server = server_res->get();

  auto owner = server->accounts()->CreateUser("owner");
  ASSERT_TRUE(owner.ok());
  auto doc = server->text()->CreateDocument(*owner, "churned.txt");
  ASSERT_TRUE(doc.ok());

  // Per-thread connection state, owned by the main thread so the final
  // convergence read can happen after the workers join. Each worker only
  // touches its own rig; old connections are kept alive (their delayed
  // frames are still "in the network" until Disarm).
  struct Rig {
    std::unique_ptr<Editor> editor;
    std::vector<std::unique_ptr<RemoteEditorEndpoint>> endpoints;
    std::vector<std::unique_ptr<FlakyTransport>> transports;
    std::vector<std::unique_ptr<RetryingClient>> clients;
    uint64_t incarnations = 0;

    void Connect(uint64_t seed) {
      endpoints.push_back(
          std::make_unique<RemoteEditorEndpoint>(editor.get()));
      transports.push_back(std::make_unique<FlakyTransport>(
          endpoints.back().get(),
          NetFaultOptions::Uniform(seed + incarnations, 0.03)));
      RetryOptions retry;
      retry.max_attempts = 16;
      retry.seed = seed * 31 + incarnations;
      const uint64_t cursor =
          clients.empty() ? 0 : clients.back()->last_seq();
      clients.push_back(std::make_unique<RetryingClient>(
          transports.back().get(), retry));
      clients.back()->set_last_seq(cursor);
      ++incarnations;
    }
    RetryingClient* client() { return clients.back().get(); }
  };

  std::vector<Rig> rigs(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    auto user = server->accounts()->CreateUser("churn" + std::to_string(t));
    ASSERT_TRUE(user.ok());
    auto editor = server->AttachEditor(*user, "churn-client");
    ASSERT_TRUE(editor.ok()) << editor.status().ToString();
    rigs[t].editor = std::move(*editor);
    rigs[t].Connect(/*seed=*/5000 + t * 101);
    ASSERT_TRUE(rigs[t].client()->Open(*doc).ok());
  }

  std::atomic<size_t> applied{0};
  std::atomic<bool> stop_reaper{false};
  std::thread reaper([&] {
    while (!stop_reaper.load(std::memory_order_relaxed)) {
      (void)server->sessions()->ReapExpired();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rig& rig = rigs[t];
      TypingTraceGenerator gen(/*seed=*/7000 + t);
      for (size_t i = 0; i < kOpsPerThread; ++i) {
        auto len = server->text()->Length(*doc);
        if (!len.ok()) continue;
        TypingAction a = gen.Next(static_cast<size_t>(*len));
        for (int attempt = 0; attempt < 8; ++attempt) {
          Status st = a.kind == TypingAction::Kind::kInsert
                          ? rig.client()->Type(*doc, a.pos, a.text)
                          : rig.client()->Erase(*doc, a.pos, a.len);
          if (st.ok()) {
            ++applied;
            break;
          }
          if (st.IsOutOfRange()) break;  // lost the length race; skip
          ASSERT_TRUE(st.IsRetryable() || st.IsConflict() || st.IsIOError())
              << "thread " << t << " op " << i << ": " << st.ToString();
          std::this_thread::yield();
        }
        if (i % 5 == 4) {
          ASSERT_TRUE(rig.client()->Heartbeat().ok());
        }
        if (i % 10 == 9) {
          // The connection dies mid-run; the session and cursor survive.
          rig.Connect(/*seed=*/5000 + t * 101);
          auto changes = rig.client()->PollChanges();
          ASSERT_TRUE(changes.ok()) << changes.status().ToString();
          if (changes->resync_required) {
            ASSERT_TRUE(rig.client()->GetText(*doc).ok());
          }
        } else {
          (void)rig.client()->PollChanges();  // keep the outbox draining
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  stop_reaper.store(true);
  reaper.join();

  // Quiesce the network, then check convergence through the wire.
  for (auto& rig : rigs) {
    for (auto& transport : rig.transports) transport->Disarm();
  }

  EXPECT_GT(applied.load(), 0u);
  auto server_text = server->text()->Text(*doc);
  ASSERT_TRUE(server_text.ok()) << server_text.status().ToString();
  for (size_t t = 0; t < kThreads; ++t) {
    auto view = rigs[t].client()->GetText(*doc);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_EQ(*view, *server_text) << "client " << t << " diverged";
  }

  EXPECT_EQ(server->db()->txns()->ActiveCount(), 0u);
  EXPECT_EQ(server->sessions()->sessions_reaped(), 0u)
      << "no lease should lapse under active traffic";
  Status integrity = server->CheckIntegrity();
  EXPECT_TRUE(integrity.ok()) << integrity.ToString();
}

// Satellite: the overload storm under TSAN. Editors hammer a shared
// document through a deliberately tiny admission gate (constant queueing,
// displacement, and shedding) while a heartbeat thread rides the critical
// class and a reaper sweeps leases — racing the admission queue's
// grant/displace/timeout paths against dispatch. Assertions cover
// convergence and integrity; the sanitizer covers the controller's locking.
// Disable via TENDAX_STRESS_OVERLOAD=0.
TEST(CollabStressTest, OverloadStormUnderTinyAdmissionGate) {
  if (EnvU64("TENDAX_STRESS_OVERLOAD", 1) == 0) {
    GTEST_SKIP() << "disabled via TENDAX_STRESS_OVERLOAD=0";
  }
  const size_t kThreads =
      static_cast<size_t>(EnvU64("TENDAX_STRESS_THREADS", 4));
  const size_t kOpsPerThread =
      static_cast<size_t>(EnvU64("TENDAX_STRESS_OPS", 60));

  TendaxOptions options;
  options.db.buffer_pool_pages = 1024;
  options.session.lease_ttl_micros = 60'000'000;
  options.admission.max_inflight = 1;
  options.admission.queue_depth = 1;
  options.admission.retry_after_base_micros = 100;
  options.admission.retry_after_max_micros = 2'000;
  auto server_res = TendaxServer::Open(std::move(options));
  ASSERT_TRUE(server_res.ok()) << server_res.status().ToString();
  TendaxServer* server = server_res->get();

  auto owner = server->accounts()->CreateUser("owner");
  ASSERT_TRUE(owner.ok());
  auto doc = server->text()->CreateDocument(*owner, "stormed.txt");
  ASSERT_TRUE(doc.ok());

  struct Rig {
    std::unique_ptr<Editor> editor;
    std::unique_ptr<RemoteEditorEndpoint> endpoint;
    std::unique_ptr<FlakyTransport> transport;
    std::unique_ptr<RetryingClient> client;
  };
  auto connect = [&](const std::string& name, uint64_t seed) {
    Rig rig;
    auto user = server->accounts()->CreateUser(name);
    EXPECT_TRUE(user.ok());
    auto editor = server->AttachEditor(*user, name);
    EXPECT_TRUE(editor.ok()) << editor.status().ToString();
    rig.editor = std::move(*editor);
    rig.endpoint = std::make_unique<RemoteEditorEndpoint>(rig.editor.get());
    rig.transport = std::make_unique<FlakyTransport>(
        rig.endpoint.get(), NetFaultOptions::Uniform(seed, 0.0));
    RetryOptions retry;
    retry.seed = seed;
    retry.max_attempts = 10'000;
    retry.base_backoff_micros = 50;
    retry.max_backoff_micros = 2'000;
    retry.sleep_fn = [](uint64_t micros) {
      std::this_thread::sleep_for(std::chrono::microseconds(micros));
    };
    rig.client = std::make_unique<RetryingClient>(rig.transport.get(), retry);
    return rig;
  };

  std::vector<Rig> rigs;
  for (size_t t = 0; t < kThreads; ++t) {
    rigs.push_back(connect("storm" + std::to_string(t), 9000 + t * 17));
    ASSERT_TRUE(rigs[t].client->Open(*doc).ok());
  }
  Rig keeper = connect("storm-keeper", 777);

  std::atomic<bool> stop{false};
  std::thread reaper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)server->sessions()->ReapExpired();
      std::this_thread::yield();
    }
  });
  std::thread heartbeats([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(keeper.client->Heartbeat().ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  std::atomic<size_t> applied{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // A fat payload keeps each admitted request inside the gate long
      // enough for the other editors to pile up behind it.
      const std::string payload(32, 'a' + static_cast<char>(t % 26));
      for (size_t i = 0; i < kOpsPerThread; ++i) {
        Status st = rigs[t].client->Type(*doc, 0, payload);
        while (st.IsRetryable()) {
          std::this_thread::yield();
          st = rigs[t].client->Type(*doc, 0, payload);
        }
        ASSERT_TRUE(st.ok()) << "thread " << t << ": " << st.ToString();
        ++applied;
      }
    });
  }
  for (auto& th : threads) th.join();
  stop.store(true);
  heartbeats.join();
  reaper.join();

  EXPECT_EQ(applied.load(), kThreads * kOpsPerThread);
  auto server_text = server->text()->Text(*doc);
  ASSERT_TRUE(server_text.ok()) << server_text.status().ToString();
  EXPECT_EQ(server_text->size(), kThreads * kOpsPerThread * 32);
  for (size_t t = 0; t < kThreads; ++t) {
    auto view = rigs[t].client->GetText(*doc);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_EQ(*view, *server_text) << "client " << t << " diverged";
  }

  const auto admission = server->admission()->Stats();
  EXPECT_EQ(admission.shed[static_cast<size_t>(PriorityClass::kCritical)],
            0u);
  if (kThreads > 2) {
    EXPECT_GT(admission.shed[static_cast<size_t>(PriorityClass::kNormal)],
              0u);
  }
  EXPECT_EQ(server->sessions()->sessions_reaped(), 0u);
  EXPECT_EQ(server->db()->txns()->ActiveCount(), 0u);
  Status integrity = server->CheckIntegrity();
  EXPECT_TRUE(integrity.ok()) << integrity.ToString();
}

// Satellite: metrics scrapes race the full editing stack. N editor threads
// mutate a shared document while M scraper threads snapshot the registry
// through Editor::ServerStats and push every snapshot through the wire
// codec. Assertions: snapshots always decode (never torn) and every
// counter / histogram count is monotone non-decreasing across successive
// scrapes; under TENDAX_SANITIZE=thread this is the race check for the
// striped metric primitives.
TEST(CollabStressTest, MetricsScrapesAreTornFreeAndMonotoneUnderLoad) {
  const size_t kThreads =
      static_cast<size_t>(EnvU64("TENDAX_STRESS_THREADS", 4));
  const size_t kOpsPerThread =
      static_cast<size_t>(EnvU64("TENDAX_STRESS_OPS", 60));
  constexpr size_t kScrapers = 2;

  TendaxOptions options;
  options.db.buffer_pool_pages = 1024;
  auto server_res = TendaxServer::Open(std::move(options));
  ASSERT_TRUE(server_res.ok()) << server_res.status().ToString();
  TendaxServer* server = server_res->get();

  auto owner = server->accounts()->CreateUser("owner");
  ASSERT_TRUE(owner.ok());
  auto doc = server->text()->CreateDocument(*owner, "scraped.txt");
  ASSERT_TRUE(doc.ok());

  std::vector<std::unique_ptr<Editor>> editors;
  for (size_t t = 0; t < kThreads + kScrapers; ++t) {
    auto user = server->accounts()->CreateUser("m" + std::to_string(t));
    ASSERT_TRUE(user.ok());
    auto editor = server->AttachEditor(*user, "metrics-client");
    ASSERT_TRUE(editor.ok()) << editor.status().ToString();
    if (t < kThreads) {
      ASSERT_TRUE((*editor)->Open(*doc).ok());
    }
    editors.push_back(std::move(*editor));
  }

  std::atomic<size_t> applied{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> scrapers;
  for (size_t s = 0; s < kScrapers; ++s) {
    scrapers.emplace_back([&, s] {
      Editor* probe = editors[kThreads + s].get();
      std::map<std::string, uint64_t> last_counters;
      std::map<std::string, uint64_t> last_hist_counts;
      size_t scrapes = 0;
      while (!stop.load(std::memory_order_relaxed) || scrapes == 0) {
        auto snap = probe->ServerStats();
        ASSERT_TRUE(snap.ok()) << snap.status().ToString();
        auto decoded = DecodeMetricsSnapshot(EncodeMetricsSnapshot(*snap));
        ASSERT_TRUE(decoded.ok())
            << "scrape " << scrapes << " torn: "
            << decoded.status().ToString();
        for (const auto& [name, value] : decoded->counters) {
          EXPECT_GE(value, last_counters[name])
              << "counter " << name << " went backwards at scrape "
              << scrapes;
          last_counters[name] = value;
        }
        for (const auto& [name, h] : decoded->histograms) {
          EXPECT_GE(h.count, last_hist_counts[name])
              << "histogram " << name << " count went backwards at scrape "
              << scrapes;
          last_hist_counts[name] = h.count;
        }
        ++scrapes;
        std::this_thread::yield();
      }
    });
  }

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      Editor* editor = editors[t].get();
      for (size_t i = 0; i < kOpsPerThread; ++i) {
        for (int attempt = 0; attempt < 8; ++attempt) {
          Status st = editor->Type(*doc, 0, "x");
          if (st.ok()) {
            ++applied;
            break;
          }
          ASSERT_TRUE(st.IsRetryable() || st.IsConflict())
              << "thread " << t << " op " << i << ": " << st.ToString();
          std::this_thread::yield();
        }
        (void)editor->PollEvents();  // drain so inboxes never overflow
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true);
  for (auto& th : scrapers) th.join();

  EXPECT_GT(applied.load(), 0u);
  // After quiescing, the registry agrees with the legacy accessors.
  MetricsSnapshot snap = server->metrics()->Snapshot();
  EXPECT_EQ(snap.CounterValue("txn.committed"),
            server->db()->txns()->stats().committed);
  EXPECT_GE(snap.CounterValue("txn.committed"), applied.load());
  EXPECT_EQ(snap.CounterValue("session.events_delivered"),
            server->sessions()->events_delivered());
}

// Satellite: the background fuzzy checkpointer races the full editing stack
// while scraper threads snapshot the metrics registry. The checkpointer
// snapshots the active-transaction table and dirty-page table, writes pages
// back, and truncates WAL segments — all mid-edit. Run under
// TENDAX_SANITIZE=thread this is the race check for the checkpoint
// pipeline's cross-thread reads (Transaction::prev_lsn, Page::rec_lsn, the
// segment span map). Disable via TENDAX_STRESS_CHECKPOINT=0.
TEST(CollabStressTest, BackgroundCheckpointerUnderConcurrentEditors) {
  if (EnvU64("TENDAX_STRESS_CHECKPOINT", 1) == 0) {
    GTEST_SKIP() << "disabled via TENDAX_STRESS_CHECKPOINT=0";
  }
  const size_t kThreads =
      static_cast<size_t>(EnvU64("TENDAX_STRESS_THREADS", 4));
  const size_t kOpsPerThread =
      static_cast<size_t>(EnvU64("TENDAX_STRESS_OPS", 60));

  TendaxOptions options;
  options.db.buffer_pool_pages = 256;  // small pool: checkpoints matter
  options.db.log_storage = std::make_shared<InMemoryLogStorage>();
  options.db.wal_segment_bytes = 4096;
  options.db.checkpoint_interval_micros = 300;  // hammer the pipeline
  auto server_res = TendaxServer::Open(std::move(options));
  ASSERT_TRUE(server_res.ok()) << server_res.status().ToString();
  TendaxServer* server = server_res->get();

  auto owner = server->accounts()->CreateUser("owner");
  ASSERT_TRUE(owner.ok());
  auto doc = server->text()->CreateDocument(*owner, "checkpointed.txt");
  ASSERT_TRUE(doc.ok());

  std::vector<std::unique_ptr<Editor>> editors;
  for (size_t t = 0; t < kThreads + 1; ++t) {
    auto user = server->accounts()->CreateUser("c" + std::to_string(t));
    ASSERT_TRUE(user.ok());
    auto editor = server->AttachEditor(*user, "checkpoint-client");
    ASSERT_TRUE(editor.ok()) << editor.status().ToString();
    if (t < kThreads) {
      ASSERT_TRUE((*editor)->Open(*doc).ok());
    }
    editors.push_back(std::move(*editor));
  }

  std::atomic<size_t> applied{0};
  std::atomic<bool> stop{false};
  // One scraper thread pulls kStats snapshots (including the checkpoint.*
  // and wal.segments/wal.truncated_bytes families) while everything runs.
  std::thread scraper([&] {
    Editor* probe = editors[kThreads].get();
    size_t scrapes = 0;
    while (!stop.load(std::memory_order_relaxed) || scrapes == 0) {
      auto snap = probe->ServerStats();
      ASSERT_TRUE(snap.ok()) << snap.status().ToString();
      EXPECT_GE(snap->GaugeValue("wal.segments"), 1);
      ++scrapes;
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      Editor* editor = editors[t].get();
      TypingTraceGenerator gen(/*seed=*/3000 + t);
      for (size_t i = 0; i < kOpsPerThread; ++i) {
        auto len = server->text()->Length(*doc);
        if (!len.ok()) continue;
        TypingAction a = gen.Next(static_cast<size_t>(*len));
        for (int attempt = 0; attempt < 8; ++attempt) {
          Status st = a.kind == TypingAction::Kind::kInsert
                          ? editor->Type(*doc, a.pos, a.text)
                          : editor->Erase(*doc, a.pos, a.len);
          if (st.ok()) {
            ++applied;
            break;
          }
          if (st.IsOutOfRange()) break;  // lost the length race
          ASSERT_TRUE(st.IsRetryable() || st.IsConflict())
              << "thread " << t << " op " << i << ": " << st.ToString();
          std::this_thread::yield();
        }
        (void)editor->PollEvents();
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true);
  scraper.join();

  EXPECT_GT(applied.load(), 0u);
  // The background thread actually checkpointed while edits ran, and the
  // surviving state is sound.
  EXPECT_GE(server->db()->checkpointer()->stats().completed, 1u);
  EXPECT_EQ(server->db()->txns()->ActiveCount(), 0u);
  Status integrity = server->CheckIntegrity();
  EXPECT_TRUE(integrity.ok()) << integrity.ToString();
  auto text = server->text()->Text(*doc);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  for (size_t t = 0; t < kThreads; ++t) {
    auto view = editors[t]->Text(*doc);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_EQ(*view, *text) << "editor " << t << " diverged";
  }
}

// Satellite: the MVCC snapshot read path under maximum interleaving — 16
// snapshot readers hammer AcquireSnapshot / GetText / time travel while a
// writer storm mutates the shared document, the background checkpointer
// truncates WAL segments, and a maintenance thread periodically purges
// history and evicts the document's cache (dropping the published
// snapshot). Run under TENDAX_SANITIZE=thread this is the race check for
// snapshot publication (atomic slot store vs lock-free load), copy-on-write
// segment sharing, and refcount reclamation racing eviction. Disable via
// TENDAX_STRESS_MVCC=0; scale readers via TENDAX_STRESS_MVCC_READERS.
TEST(CollabStressTest, SnapshotReadersUnderWriterStormPurgeAndEviction) {
  if (EnvU64("TENDAX_STRESS_MVCC", 1) == 0) {
    GTEST_SKIP() << "disabled via TENDAX_STRESS_MVCC=0";
  }
  const size_t kWriters =
      static_cast<size_t>(EnvU64("TENDAX_STRESS_THREADS", 4));
  const size_t kOpsPerWriter =
      static_cast<size_t>(EnvU64("TENDAX_STRESS_OPS", 60));
  const size_t kReaders =
      static_cast<size_t>(EnvU64("TENDAX_STRESS_MVCC_READERS", 16));

  TendaxOptions options;
  options.db.buffer_pool_pages = 256;
  options.db.log_storage = std::make_shared<InMemoryLogStorage>();
  options.db.wal_segment_bytes = 4096;
  options.db.checkpoint_interval_micros = 300;  // checkpoints mid-storm
  auto server_res = TendaxServer::Open(std::move(options));
  ASSERT_TRUE(server_res.ok()) << server_res.status().ToString();
  TendaxServer* server = server_res->get();

  auto owner = server->accounts()->CreateUser("owner");
  ASSERT_TRUE(owner.ok());
  auto doc = server->text()->CreateDocument(*owner, "mvcc-storm.txt");
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(server->text()->InsertText(*owner, *doc, 0, "seed text").ok());

  std::vector<std::unique_ptr<Editor>> editors;
  for (size_t t = 0; t < kWriters; ++t) {
    auto user = server->accounts()->CreateUser("m" + std::to_string(t));
    ASSERT_TRUE(user.ok());
    auto editor = server->AttachEditor(*user, "mvcc-client");
    ASSERT_TRUE(editor.ok()) << editor.status().ToString();
    ASSERT_TRUE((*editor)->Open(*doc).ok());
    editors.push_back(std::move(*editor));
  }

  std::atomic<size_t> applied{0};
  std::atomic<size_t> snapshot_reads{0};
  std::atomic<bool> stop{false};

  // Snapshot readers: lock-free acquires interleaved with routed reads.
  // Each asserts per-reader version monotonicity and that time travel to
  // the snapshot's own version reproduces its live text (chain scan and
  // live scan agree on the same immutable state).
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Version prev = 0;
      while (!stop.load(std::memory_order_acquire)) {
        auto snap = server->text()->AcquireSnapshot(*doc);
        ASSERT_TRUE(snap.ok()) << "reader " << r << ": "
                               << snap.status().ToString();
        const Version v = (*snap)->version();
        EXPECT_GE(v, prev) << "reader " << r << " non-monotone";
        prev = v;
        const std::string live = (*snap)->Text();
        EXPECT_EQ((*snap)->length(), live.size());
        auto travel = (*snap)->TextAtVersion(v);
        ASSERT_TRUE(travel.ok()) << travel.status().ToString();
        EXPECT_EQ(*travel, live) << "reader " << r << " at version " << v;
        // Routed reads share the same path; purged-history probes must
        // fail typed, never return garbage.
        auto old = server->text()->TextAtVersion(*doc, v > 2 ? v / 2 : v);
        EXPECT_TRUE(old.ok() || old.status().IsFailedPrecondition())
            << old.status().ToString();
        ++snapshot_reads;
      }
    });
  }

  // Maintenance: purge history below the current version and evict the
  // handle (with its published snapshot) while readers hold references.
  std::thread maintenance([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto version = server->text()->CurrentVersion(*doc);
      if (version.ok() && *version > 2) {
        (void)server->text()->PurgeHistory(*owner, *doc, *version / 2);
      }
      (void)server->text()->EvictDocument(*doc);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (size_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      Editor* editor = editors[t].get();
      TypingTraceGenerator gen(/*seed=*/5000 + t);
      for (size_t i = 0; i < kOpsPerWriter; ++i) {
        auto len = server->text()->Length(*doc);
        if (!len.ok()) continue;
        TypingAction a = gen.Next(static_cast<size_t>(*len));
        for (int attempt = 0; attempt < 8; ++attempt) {
          Status st = a.kind == TypingAction::Kind::kInsert
                          ? editor->Type(*doc, a.pos, a.text)
                          : editor->Erase(*doc, a.pos, a.len);
          if (st.ok()) {
            ++applied;
            break;
          }
          if (st.IsOutOfRange()) break;  // lost the length race
          ASSERT_TRUE(st.IsRetryable() || st.IsConflict())
              << "writer " << t << " op " << i << ": " << st.ToString();
          std::this_thread::yield();
        }
        (void)editor->PollEvents();
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  maintenance.join();

  EXPECT_GT(applied.load(), 0u);
  EXPECT_GT(snapshot_reads.load(), 0u);
  // Convergence: the final snapshot, the routed read, and every editor view
  // agree; accounting balances; structure is intact.
  auto final_snap = server->text()->AcquireSnapshot(*doc);
  ASSERT_TRUE(final_snap.ok());
  auto text = server->text()->Text(*doc);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ((*final_snap)->Text(), *text);
  for (size_t t = 0; t < kWriters; ++t) {
    auto view = editors[t]->Text(*doc);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_EQ(*view, *text) << "editor " << t << " diverged";
  }
  EXPECT_EQ(server->db()->txns()->ActiveCount(), 0u);
  Status integrity = server->CheckIntegrity();
  EXPECT_TRUE(integrity.ok()) << integrity.ToString();
}

}  // namespace
}  // namespace tendax
