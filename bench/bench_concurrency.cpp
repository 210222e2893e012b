// E2 — the word-processing LAN-party: editing throughput as the number of
// concurrent editors grows, on one shared document (edits serialize on the
// document lock) versus distinct documents (edits scale out).

#include <benchmark/benchmark.h>

#include <atomic>
#include <mutex>
#include <string>

#include "bench_files.h"
#include "collab/retrying_client.h"
#include "core/tendax.h"

namespace tendax {
namespace {

struct ConcurrencyEnv {
  std::unique_ptr<TendaxServer> server;
  std::vector<UserId> users;
  DocumentId shared_doc;
  std::vector<DocumentId> private_docs;
  std::atomic<uint64_t> conflicts{0};

  static ConcurrencyEnv* Get() {
    static ConcurrencyEnv* env = [] {
      auto* e = new ConcurrencyEnv();
      TendaxOptions options;
      options.db.buffer_pool_pages = 16384;
      e->server = *TendaxServer::Open(std::move(options));
      for (int i = 0; i < 16; ++i) {
        e->users.push_back(
            *e->server->accounts()->CreateUser("editor" + std::to_string(i)));
      }
      e->shared_doc =
          *e->server->text()->CreateDocument(e->users[0], "shared");
      (void)e->server->text()->InsertText(e->users[0], e->shared_doc, 0,
                                          "seed");
      for (int i = 0; i < 16; ++i) {
        auto doc = e->server->text()->CreateDocument(
            e->users[i], "private" + std::to_string(i));
        (void)e->server->text()->InsertText(e->users[i], *doc, 0, "seed");
        e->private_docs.push_back(*doc);
      }
      return e;
    }();
    return env;
  }
};

// All editors type into ONE document: keystroke transactions serialize on
// the document's exclusive lock (the DB-centric alternative to OT).
void BM_SharedDocTyping(benchmark::State& state) {
  ConcurrencyEnv* env = ConcurrencyEnv::Get();
  UserId user = env->users[state.thread_index() % env->users.size()];
  for (auto _ : state) {
    auto r = env->server->text()->InsertText(user, env->shared_doc, 0, "a");
    if (!r.ok()) {
      if (r.status().IsRetryable()) {
        env->conflicts.fetch_add(1);
      } else {
        state.SkipWithError(r.status().ToString().c_str());
      }
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    state.counters["retryable_conflicts"] =
        static_cast<double>(env->conflicts.exchange(0));
  }
}
BENCHMARK(BM_SharedDocTyping)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

// Each editor types into their OWN document: transactions only share the
// storage engine (pages, WAL, buffer pool) and scale out.
void BM_PrivateDocTyping(benchmark::State& state) {
  ConcurrencyEnv* env = ConcurrencyEnv::Get();
  int idx = state.thread_index() % env->private_docs.size();
  UserId user = env->users[idx];
  DocumentId doc = env->private_docs[idx];
  for (auto _ : state) {
    auto r = env->server->text()->InsertText(user, doc, 0, "b");
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrivateDocTyping)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

// Readers concurrent with one writer on the same document: reads go to the
// order cache and never block on the writer's lock.
void BM_ReadersWithWriter(benchmark::State& state) {
  ConcurrencyEnv* env = ConcurrencyEnv::Get();
  if (state.thread_index() == 0) {
    // One writer thread.
    for (auto _ : state) {
      auto r = env->server->text()->InsertText(env->users[0],
                                               env->shared_doc, 0, "w");
      if (!r.ok() && !r.status().IsRetryable()) {
        state.SkipWithError(r.status().ToString().c_str());
      }
    }
  } else {
    for (auto _ : state) {
      auto text = env->server->text()->Text(env->shared_doc);
      if (!text.ok()) state.SkipWithError(text.status().ToString().c_str());
      benchmark::DoNotOptimize(text->size());
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReadersWithWriter)->Threads(2)->Threads(4)->UseRealTime();

// Cross-document copy/paste under concurrency: pastes take locks on two
// documents and may deadlock; the victim retries (measured as conflicts).
void BM_CrossDocPaste(benchmark::State& state) {
  ConcurrencyEnv* env = ConcurrencyEnv::Get();
  int idx = state.thread_index() % env->private_docs.size();
  UserId user = env->users[idx];
  DocumentId source =
      env->private_docs[(idx + 1) % env->private_docs.size()];
  DocumentId target = env->private_docs[idx];
  for (auto _ : state) {
    auto clip = env->server->text()->Copy(user, source, 0, 4);
    if (!clip.ok()) {
      if (clip.status().IsRetryable()) continue;
      state.SkipWithError(clip.status().ToString().c_str());
      break;
    }
    auto r = env->server->text()->Paste(user, target, 0, *clip);
    if (!r.ok() && !r.status().IsRetryable()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    auto stats = env->server->db()->locks()->stats();
    state.counters["deadlocks_detected"] =
        static_cast<double>(stats.deadlocks);
    state.counters["lock_waits"] = static_cast<double>(stats.waits);
  }
}
BENCHMARK(BM_CrossDocPaste)->Threads(2)->Threads(4)->UseRealTime();

// E7 — group commit on the one commit path: keystroke commit throughput on
// one shared document over a durable file backend (real fsyncs), 1–16
// editors. The WAL flushes one batch at a time and the next flush takes
// everything buffered, so commits that arrive during an fsync share the
// next one; `commits_per_sync` shows how many. The retired per-commit /
// leader / flusher-thread ablation is recorded in BENCH_groupcommit.json.
struct GroupCommitEnv {
  std::unique_ptr<TendaxServer> server;
  std::vector<UserId> users;
  DocumentId doc;
  std::atomic<uint64_t> conflicts{0};

  // Benches run from the build directory; relative paths keep the durable
  // files out of the source tree. Stale files from a previous run are
  // removed so every process starts from an empty database.
  static GroupCommitEnv* Get() {
    static GroupCommitEnv* e = [] {
      auto* env = new GroupCommitEnv();
      const std::string path = "bench_gc.db";
      RemoveDatabaseFiles(path);
      TendaxOptions options;
      options.db.path = path;
      options.db.buffer_pool_pages = 16384;
      env->server = *TendaxServer::Open(std::move(options));
      for (int i = 0; i < 16; ++i) {
        env->users.push_back(*env->server->accounts()->CreateUser(
            "editor" + std::to_string(i)));
      }
      env->doc = *env->server->text()->CreateDocument(env->users[0], "shared");
      (void)env->server->text()->InsertText(env->users[0], env->doc, 0,
                                            "seed");
      return env;
    }();
    return e;
  }
};

void BM_GroupCommit(benchmark::State& state) {
  GroupCommitEnv* env = GroupCommitEnv::Get();
  MetricsRegistry* metrics = env->server->metrics();
  const uint64_t syncs_before = metrics->counter("wal.syncs")->Value();
  const uint64_t commits_before = metrics->counter("wal.commits")->Value();
  UserId user = env->users[state.thread_index() % env->users.size()];
  for (auto _ : state) {
    auto r = env->server->text()->InsertText(user, env->doc, 0, "a");
    if (!r.ok()) {
      if (r.status().IsRetryable()) {
        env->conflicts.fetch_add(1);
      } else {
        state.SkipWithError(r.status().ToString().c_str());
        break;
      }
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    const uint64_t syncs =
        metrics->counter("wal.syncs")->Value() - syncs_before;
    const uint64_t commits =
        metrics->counter("wal.commits")->Value() - commits_before;
    state.counters["wal_syncs"] = static_cast<double>(syncs);
    state.counters["commits_per_sync"] =
        syncs == 0 ? 0.0
                   : static_cast<double>(commits) / static_cast<double>(syncs);
    state.counters["retryable_conflicts"] =
        static_cast<double>(env->conflicts.exchange(0));
  }
}
BENCHMARK(BM_GroupCommit)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->Threads(16)
    ->UseRealTime();

// Session resilience: the cost of a reconnect that resumes a backlog
// of missed change events, and fan-out throughput when slow consumers hit
// the bounded-inbox backpressure path.

// One reconnect = fresh endpoint + transport + client over the surviving
// session, then a single resumable poll that redelivers the whole retained
// backlog (Arg = backlog size in events). The backlog is never
// acknowledged, so every iteration resumes the same suffix — exactly the
// reconnect-after-partition hot path.
void BM_ReconnectResume(benchmark::State& state) {
  const size_t backlog = static_cast<size_t>(state.range(0));
  TendaxOptions options;
  options.db.buffer_pool_pages = 16384;
  options.session.max_inbox_events = backlog + 64;
  auto server = *TendaxServer::Open(std::move(options));
  auto user = *server->accounts()->CreateUser("resumer");
  auto doc = *server->text()->CreateDocument(user, "backlog");
  auto watcher = *server->AttachEditor(user, "watcher");
  if (!watcher->Open(doc).ok()) {
    state.SkipWithError("open failed");
    return;
  }
  auto typist = *server->AttachEditor(user, "typist");
  for (size_t i = 0; i < backlog; ++i) {
    auto r = typist->Type(doc, 0, "x");
    if (!r.ok()) {
      state.SkipWithError(r.ToString().c_str());
      return;
    }
  }

  size_t resumed = 0;
  for (auto _ : state) {
    RemoteEditorEndpoint endpoint(watcher.get());
    DirectTransport transport(&endpoint);
    RetryingClient client(&transport);
    auto changes = client.PollChanges();
    if (!changes.ok()) {
      state.SkipWithError(changes.status().ToString().c_str());
      return;
    }
    resumed = changes->events.size();
    benchmark::DoNotOptimize(resumed);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(backlog));
  state.counters["events_resumed"] = static_cast<double>(resumed);
}
BENCHMARK(BM_ReconnectResume)->Arg(16)->Arg(256)->Arg(2048)->UseRealTime();

// One typist, Arg watcher sessions that never poll, tiny inboxes: every
// insert fans out to every watcher and keeps tripping the overflow ->
// coalesce-to-resync path. Measures whether backpressure bookkeeping stays
// off the writer's critical path.
void BM_FanoutBackpressure(benchmark::State& state) {
  const int watchers = static_cast<int>(state.range(0));
  TendaxOptions options;
  options.db.buffer_pool_pages = 16384;
  options.session.max_inbox_events = 32;  // overflow early and often
  auto server = *TendaxServer::Open(std::move(options));
  auto user = *server->accounts()->CreateUser("firehose");
  auto doc = *server->text()->CreateDocument(user, "fanout");
  std::vector<std::unique_ptr<Editor>> sleepers;
  for (int w = 0; w < watchers; ++w) {
    auto editor = *server->AttachEditor(user, "sleeper" + std::to_string(w));
    if (!editor->Open(doc).ok()) {
      state.SkipWithError("open failed");
      return;
    }
    sleepers.push_back(std::move(editor));
  }

  for (auto _ : state) {
    auto r = server->text()->InsertText(user, doc, 0, "a");
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["resyncs_emitted"] =
      static_cast<double>(server->sessions()->resyncs_emitted());
  state.counters["events_delivered"] =
      static_cast<double>(server->sessions()->events_delivered());
}
BENCHMARK(BM_FanoutBackpressure)->Arg(4)->Arg(16)->UseRealTime();

}  // namespace
}  // namespace tendax

BENCHMARK_MAIN();
