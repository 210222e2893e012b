#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/tendax.h"
#include "server_fixture.h"
#include "storage/wal.h"
#include "testing/schedule_controller.h"
#include "util/random.h"

namespace tendax {
namespace {

// MVCC snapshot reads: deterministic unit coverage for the lock-free read
// path (publication, immutability, purge floor, reclamation accounting)
// plus a seeded snapshot-consistency property harness.
//
// Scale knobs (bounded defaults for tier-1):
//   TENDAX_MVCC_SCHEDULES   seeded schedules in the property harness (4)
//   TENDAX_MVCC_OPS         writer operations per schedule (120)

uint64_t EnvU64(const char* name, uint64_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  return std::strtoull(v, nullptr, 10);
}

class MvccTest : public ServerTest {};

// A snapshot is a stable view of one committed version: later edits never
// leak into it, while a fresh acquire sees them.
TEST_F(MvccTest, SnapshotIsImmutableAcrossLaterEdits) {
  DocumentId doc = MakeDoc(alice_, "stable", "hello");
  auto snap = server_->text()->AcquireSnapshot(doc);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  const Version v = (*snap)->version();
  EXPECT_EQ((*snap)->Text(), "hello");
  EXPECT_EQ((*snap)->length(), 5u);

  ASSERT_TRUE(server_->text()->InsertText(alice_, doc, 5, ", world").ok());
  ASSERT_TRUE(server_->text()->DeleteRange(alice_, doc, 0, 1).ok());

  // The old snapshot is bit-stable.
  EXPECT_EQ((*snap)->Text(), "hello");
  EXPECT_EQ((*snap)->version(), v);
  EXPECT_EQ((*snap)->length(), 5u);

  // A fresh acquire serves the newest committed state.
  auto fresh = server_->text()->AcquireSnapshot(doc);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ((*fresh)->Text(), "ello, world");
  EXPECT_EQ((*fresh)->version(), v + 2);
  // And the routed read paths agree with it.
  EXPECT_EQ(*server_->text()->Text(doc), "ello, world");
  EXPECT_EQ(*server_->text()->Length(doc), 11u);
}

// Snapshot time travel matches, at every version, both a reconstruction
// from the stored character records (FullChain, tombstones included) and a
// snapshot rebuilt cold from storage after eviction.
TEST_F(MvccTest, TextAtVersionMatchesEveryCommittedVersion) {
  DocumentId doc = MakeDoc(alice_, "history", "abc");     // v1
  ASSERT_TRUE(server_->text()->InsertText(alice_, doc, 3, "def").ok());  // v2
  ASSERT_TRUE(server_->text()->DeleteRange(alice_, doc, 1, 2).ok());    // v3
  ASSERT_TRUE(server_->text()->InsertText(alice_, doc, 1, "XY").ok());  // v4

  const std::vector<std::string> expected = {"abc", "abcdef", "adef",
                                             "aXYdef"};
  auto chain = server_->text()->FullChain(doc);
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  for (Version v = 1; v <= 4; ++v) {
    auto mvcc = server_->text()->TextAtVersion(doc, v);
    ASSERT_TRUE(mvcc.ok()) << mvcc.status().ToString();
    EXPECT_EQ(*mvcc, expected[v - 1]) << "version " << v;
    std::string from_records;
    for (const CharInfo& c : *chain) {
      if (c.inserted_version <= v &&
          (c.deleted_version == 0 || c.deleted_version > v)) {
        from_records.push_back(static_cast<char>(c.cp));  // ASCII here
      }
    }
    EXPECT_EQ(from_records, expected[v - 1]) << "records at version " << v;
  }
  ASSERT_TRUE(server_->text()->EvictDocument(doc));
  for (Version v = 1; v <= 4; ++v) {
    auto cold = server_->text()->TextAtVersion(doc, v);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    EXPECT_EQ(*cold, expected[v - 1]) << "cold version " << v;
  }
}

// The headline property: while a writer's commit is parked inside its
// flush still holding its X document lock (strict 2PL), snapshot reads
// proceed immediately at the previous version with no lock acquisition —
// while a shared document lock demonstrably cannot be had.
TEST(MvccContrastTest, SnapshotReadsDoNotStallBehindPausedCommit) {
  auto sched = std::make_shared<ScheduleController>(/*seed=*/11);
  TendaxOptions options;
  options.db.buffer_pool_pages = 1024;
  options.db.metrics = std::make_shared<MetricsRegistry>();
  options.db.log_storage = sched->GateLog(
      std::make_shared<InMemoryLogStorage>(), options.db.metrics);
  // Short lock timeout so the negative (lock-based) probe fails fast.
  options.db.lock_timeout = std::chrono::milliseconds(20);
  auto server_res = TendaxServer::Open(std::move(options));
  ASSERT_TRUE(server_res.ok()) << server_res.status().ToString();
  TendaxServer* server = server_res->get();

  auto user = server->accounts()->CreateUser("writer");
  ASSERT_TRUE(user.ok());
  auto doc = server->text()->CreateDocument(*user, "contended");
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(server->text()->InsertText(*user, *doc, 0, "base").ok());
  const Version committed = *server->text()->CurrentVersion(*doc);

  // Gate the next flush, then start a writer that will block in
  // CommitFlush holding the document's X lock.
  sched->PauseAtFlush(sched->flushes_seen() + 1);
  std::thread writer([&] {
    auto r = server->text()->InsertText(*user, *doc, 4, "+more");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });
  ASSERT_TRUE(sched->WaitUntilPaused()) << sched->Describe();

  // Snapshot reads serve the previous committed version instantly.
  auto snap = server->text()->AcquireSnapshot(*doc);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ((*snap)->version(), committed);
  EXPECT_EQ((*snap)->Text(), "base");
  EXPECT_EQ(*server->text()->Text(*doc), "base");
  auto clip = server->text()->Copy(*user, *doc, 0, 4);
  ASSERT_TRUE(clip.ok()) << clip.status().ToString();
  EXPECT_EQ(clip->size(), 4u);

  // Contrast: a shared document lock — what a lock-based read would need —
  // times out against the parked writer's X lock.
  Status blocked = server->db()->txns()->RunInTxn(
      *user,
      [&](Transaction* txn) {
        return server->db()->locks()->Acquire(
            txn->id(), MakeResource(ResourceKind::kDocument, doc->value),
            LockMode::kS);
      },
      /*max_retries=*/0);
  ASSERT_FALSE(blocked.ok());
  EXPECT_TRUE(blocked.IsConflict() || blocked.IsDeadlineExceeded())
      << blocked.ToString();

  sched->ReleaseFlush();
  writer.join();
  auto after = server->text()->AcquireSnapshot(*doc);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)->version(), committed + 1);
  EXPECT_EQ((*after)->Text(), "base+more");
}

// Purge raises the floor: below it reads fail typed; at/above it they stay
// exact; the floor survives cache invalidation and eviction because it is
// persisted with the document.
TEST_F(MvccTest, PurgeFloorFailsTypedAndSurvivesEviction) {
  DocumentId doc = MakeDoc(alice_, "purged", "abcdef");             // v1
  ASSERT_TRUE(server_->text()->DeleteRange(alice_, doc, 1, 2).ok());  // v2
  ASSERT_TRUE(server_->text()->DeleteRange(alice_, doc, 2, 1).ok());  // v3
  auto purged = server_->text()->PurgeHistory(alice_, doc, 2);
  ASSERT_TRUE(purged.ok());
  EXPECT_EQ(*purged, 2u);

  auto check_floor = [&] {
    auto below = server_->text()->TextAtVersion(doc, 1);
    ASSERT_FALSE(below.ok());
    EXPECT_TRUE(below.status().IsFailedPrecondition())
        << below.status().ToString();
    EXPECT_EQ(*server_->text()->TextAtVersion(doc, 2), "adef");
    EXPECT_EQ(*server_->text()->TextAtVersion(doc, 3), "adf");
  };
  check_floor();

  // Persisted: a dropped cache and a full eviction both reload floor = 2.
  server_->text()->InvalidateHandle(doc);
  check_floor();
  ASSERT_TRUE(server_->text()->EvictDocument(doc));
  check_floor();
}

// The purge floor is durable across a real close + reopen of a file-backed
// server, not just across cache eviction.
TEST(MvccDurabilityTest, PurgeFloorSurvivesReopen) {
  const std::string dir = ::testing::TempDir() + "tendax_mvcc_floor";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/db";
  UserId user;
  DocumentId doc;
  {
    TendaxOptions options;
    options.db.path = path;
    auto server = TendaxServer::Open(std::move(options));
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    auto u = (*server)->accounts()->CreateUser("alice");
    ASSERT_TRUE(u.ok());
    user = *u;
    auto d = (*server)->text()->CreateDocument(user, "durable");
    ASSERT_TRUE(d.ok());
    doc = *d;
    ASSERT_TRUE((*server)->text()->InsertText(user, doc, 0, "abcdef").ok());
    ASSERT_TRUE((*server)->text()->DeleteRange(user, doc, 1, 2).ok());
    auto purged = (*server)->text()->PurgeHistory(user, doc, 2);
    ASSERT_TRUE(purged.ok());
    EXPECT_EQ(*purged, 2u);
  }
  {
    TendaxOptions options;
    options.db.path = path;
    auto server = TendaxServer::Open(std::move(options));
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    EXPECT_EQ(*(*server)->text()->Text(doc), "adef");
    auto below = (*server)->text()->TextAtVersion(doc, 1);
    ASSERT_FALSE(below.ok());
    EXPECT_TRUE(below.status().IsFailedPrecondition())
        << below.status().ToString();
    EXPECT_EQ(*(*server)->text()->TextAtVersion(doc, 2), "adef");
  }
  std::filesystem::remove_all(dir);
}

// A reader holding a snapshot keeps its full pre-purge history readable even
// after PurgeHistory physically deletes the tombstones and the document is
// evicted from the cache: reclamation is by refcount, never by overwrite.
TEST_F(MvccTest, InFlightReaderSurvivesPurgeAndEviction) {
  DocumentId doc = MakeDoc(alice_, "raced", "abcdef");              // v1
  ASSERT_TRUE(server_->text()->DeleteRange(alice_, doc, 1, 2).ok());  // v2

  auto held = server_->text()->AcquireSnapshot(doc);
  ASSERT_TRUE(held.ok());
  ASSERT_EQ((*held)->purge_floor(), 0u);

  ASSERT_TRUE(server_->text()->PurgeHistory(alice_, doc, 2).ok());
  ASSERT_TRUE(server_->text()->EvictDocument(doc));

  // The held snapshot predates the purge: its floor is still 0 and its
  // tombstones are intact, so v1 reconstructs exactly.
  EXPECT_EQ((*held)->Text(), "adef");
  auto v1 = (*held)->TextAtVersion(1);
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  EXPECT_EQ(*v1, "abcdef");
  // While the store itself now refuses v1.
  auto refused = server_->text()->TextAtVersion(doc, 1);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsFailedPrecondition());
}

// Reclamation accounting: published == reclaimed + live at any quiescent
// point, and dropping the last reference reclaims.
TEST_F(MvccTest, TrackerBalancesPublishedAndReclaimed) {
  MetricsRegistry* metrics = server_->metrics();
  Counter* published = metrics->counter("mvcc.snapshots_published");
  Counter* reclaimed = metrics->counter("mvcc.snapshots_reclaimed");
  Counter* acquired = metrics->counter("mvcc.snapshots_acquired");
  const auto& tracker = server_->text()->snapshot_tracker();

  DocumentId doc = MakeDoc(alice_, "tracked", "x");
  {
    auto a = server_->text()->AcquireSnapshot(doc);
    auto b = server_->text()->AcquireSnapshot(doc);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b);  // same published snapshot, two acquisitions
    EXPECT_EQ(published->Value(), reclaimed->Value() + tracker->live());
    EXPECT_GE(acquired->Value(), 2u);
    // Edits publish fresh snapshots; the superseded one is reclaimed once
    // `a`/`b` (the last holders) drop.
    ASSERT_TRUE(server_->text()->InsertText(alice_, doc, 0, "y").ok());
    EXPECT_EQ(published->Value(), reclaimed->Value() + tracker->live());
  }
  // Evict to drop the store's own reference too: everything ever published
  // for this (only) document must now be reclaimed.
  ASSERT_TRUE(server_->text()->EvictDocument(doc));
  EXPECT_EQ(published->Value(), reclaimed->Value());
  EXPECT_EQ(tracker->live(), 0u);

  // The stats scrape path folds the gauges in.
  server_->text()->RefreshMvccGauges();
  EXPECT_EQ(metrics->gauge("mvcc.live_snapshots")->Value(), 0);
}

// Snapshot-read transactions are observation-only: no WAL records, no ATT
// entry (they must not pin log truncation), and LogUpdate refuses typed.
TEST_F(MvccTest, SnapshotReadTxnIsInvisibleToWalAndRefusesWrites) {
  TxnManager* txns = server_->db()->txns();
  Status st = txns->RunSnapshotRead(alice_, [&](Transaction* txn) -> Status {
    EXPECT_TRUE(txn->is_snapshot_read());
    // Not in the active-transaction table a fuzzy checkpoint would log.
    for (const CheckpointTxnEntry& e : txns->ActiveTxnTable()) {
      EXPECT_NE(e.txn, txn->id().value);
    }
    auto logged = txns->LogUpdate(txn, UpdateOp::kInsert, /*table_id=*/1,
                                  /*rid=*/1, "", "x");
    EXPECT_FALSE(logged.ok());
    EXPECT_TRUE(logged.status().IsFailedPrecondition());
    return Status::OK();
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_GE(server_->metrics()->counter("txn.snapshot_reads")->Value(), 1u);
}

// --- seeded snapshot-consistency property harness ---
//
// One writer applies a deterministic random edit stream; every version's
// expected text is recorded in a shadow model *before* the edit commits.
// Concurrent readers continuously acquire snapshots and assert:
//   (1) the snapshot's text equals the shadow model at the snapshot's
//       version — reads are always of SOME committed version, never a blend;
//   (2) versions are monotone per reader;
//   (3) the version is >= the newest commit the reader had observed before
//       acquiring — snapshots never travel backwards past the acquire point.
// A ScheduleController (seeded per schedule) parks one flush mid-stream so
// part of the validation runs against a writer frozen inside its commit.
TEST(MvccPropertyTest, SeededSnapshotConsistency) {
  const uint64_t kSchedules = EnvU64("TENDAX_MVCC_SCHEDULES", 4);
  const uint64_t kOps = EnvU64("TENDAX_MVCC_OPS", 120);
  const size_t kReaders = 4;

  for (uint64_t schedule = 1; schedule <= kSchedules; ++schedule) {
    SCOPED_TRACE("schedule seed " + std::to_string(schedule));
    auto sched = std::make_shared<ScheduleController>(schedule);
    TendaxOptions options;
    options.db.buffer_pool_pages = 2048;
    options.db.metrics = std::make_shared<MetricsRegistry>();
    options.db.log_storage = sched->GateLog(
        std::make_shared<InMemoryLogStorage>(), options.db.metrics);
    auto server_res = TendaxServer::Open(std::move(options));
    ASSERT_TRUE(server_res.ok()) << server_res.status().ToString();
    TendaxServer* server = server_res->get();

    auto user = server->accounts()->CreateUser("writer");
    ASSERT_TRUE(user.ok());
    auto doc = server->text()->CreateDocument(*user, "property");
    ASSERT_TRUE(doc.ok());

    // Shadow model: version -> expected full text. Entries are recorded
    // before the edit that creates them commits, so a reader can never see
    // a published version that is missing from the shadow.
    Mutex shadow_mu{"test.shadow", lockorder::kRankLeaf};
    std::map<Version, std::string> shadow;
    std::string model;
    {
      MutexLock lock(shadow_mu);
      shadow[0] = "";
    }
    std::atomic<Version> last_committed{0};
    std::atomic<bool> done{false};
    std::atomic<uint64_t> reads{0};

    // Park one flush somewhere in the first half of the stream so readers
    // validate against a writer frozen mid-commit. The gate index is
    // relative to the flushes already spent on setup commits.
    const uint64_t gate =
        sched->flushes_seen() + sched->PickFlush(2, kOps / 2 + 2);
    sched->PauseAtFlush(gate);

    std::vector<std::thread> readers;
    for (size_t r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        Version prev = 0;
        while (!done.load(std::memory_order_acquire)) {
          const Version floor = last_committed.load(std::memory_order_acquire);
          auto snap = server->text()->AcquireSnapshot(*doc);
          if (!snap.ok()) {
            ADD_FAILURE() << "reader " << r << ": "
                          << snap.status().ToString();
            return;
          }
          const Version v = (*snap)->version();
          EXPECT_GE(v, floor) << "reader " << r << " went backwards";
          EXPECT_GE(v, prev) << "reader " << r << " non-monotone";
          prev = v;
          std::string expected;
          {
            MutexLock lock(shadow_mu);
            auto it = shadow.find(v);
            if (it == shadow.end()) {
              ADD_FAILURE() << "reader " << r << " saw unknown version " << v;
              return;
            }
            expected = it->second;
          }
          EXPECT_EQ((*snap)->Text(), expected)
              << "reader " << r << " at version " << v;
          EXPECT_EQ((*snap)->length(), expected.size());
          ++reads;
        }
      });
    }

    std::thread writer([&] {
      Random rng(/*seed=*/schedule * 7919);
      Version version = 0;
      for (uint64_t i = 0; i < kOps; ++i) {
        const bool insert = model.empty() || rng.Uniform(3) != 0;
        if (insert) {
          const size_t pos = rng.Uniform(model.size() + 1);
          std::string text;
          const size_t n = 1 + rng.Uniform(5);
          for (size_t c = 0; c < n; ++c) {
            text.push_back(static_cast<char>('a' + rng.Uniform(26)));
          }
          model.insert(pos, text);
          ++version;
          {
            MutexLock lock(shadow_mu);
            shadow[version] = model;
          }
          auto r = server->text()->InsertText(*user, *doc, pos, text);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          ASSERT_EQ(r->version, version);
        } else {
          const size_t pos = rng.Uniform(model.size());
          const size_t len = 1 + rng.Uniform(model.size() - pos);
          model.erase(pos, len);
          ++version;
          {
            MutexLock lock(shadow_mu);
            shadow[version] = model;
          }
          auto r = server->text()->DeleteRange(*user, *doc, pos, len);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          ASSERT_EQ(r->version, version);
        }
        last_committed.store(version, std::memory_order_release);
      }
    });

    // Let readers exercise the parked-commit window, then release it. The
    // writer may finish without ever reaching the gate on tiny op counts —
    // release regardless so nothing hangs.
    (void)sched->WaitUntilPaused(std::chrono::milliseconds(2000));
    sched->ReleaseFlush();

    writer.join();
    done.store(true, std::memory_order_release);
    for (auto& t : readers) t.join();

    EXPECT_GT(reads.load(), 0u) << sched->Describe();
    auto final_snap = server->text()->AcquireSnapshot(*doc);
    ASSERT_TRUE(final_snap.ok());
    EXPECT_EQ((*final_snap)->Text(), model) << sched->Describe();
    EXPECT_EQ((*final_snap)->version(),
              last_committed.load(std::memory_order_acquire));
    EXPECT_EQ(server->db()->txns()->ActiveCount(), 0u);
    Status integrity = server->CheckIntegrity();
    EXPECT_TRUE(integrity.ok()) << integrity.ToString();
  }
}

}  // namespace
}  // namespace tendax
