// Observability coverage: histogram bucket math and percentile estimation,
// striped counter/gauge primitives, the checksummed snapshot codec (strict
// rejection of truncation, corruption, unknown versions and trailing bytes),
// ScopedTimer RAII semantics, and deterministic end-to-end assertions that
// the registry counters exactly mirror the legacy per-subsystem stats under
// seeded fault schedules (commit batching, retries, dedup, leases,
// resyncs).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "collab/retrying_client.h"
#include "collab/wire.h"
#include "db/database.h"
#include "obs/metrics.h"
#include "server_fixture.h"
#include "storage/disk_manager.h"
#include "storage/wal.h"
#include "testing/fault_injection.h"
#include "testing/fault_plan.h"
#include "testing/flaky_transport.h"
#include "testing/schedule_controller.h"
#include "txn/lock_manager.h"
#include "util/checksum.h"
#include "util/coding.h"

namespace tendax {
namespace {

// --- histogram bucket math ----------------------------------------------

TEST(HistogramTest, BucketBoundaries) {
  EXPECT_EQ(Histogram::BucketFor(0), 0);
  EXPECT_EQ(Histogram::BucketFor(1), 1);
  EXPECT_EQ(Histogram::BucketFor(2), 2);
  EXPECT_EQ(Histogram::BucketFor(3), 2);
  EXPECT_EQ(Histogram::BucketFor(4), 3);
  EXPECT_EQ(Histogram::BucketFor(7), 3);
  EXPECT_EQ(Histogram::BucketFor(8), 4);
  EXPECT_EQ(Histogram::BucketFor((1ull << 45)), 46);
  EXPECT_EQ(Histogram::BucketFor((1ull << 46) - 1), 46);
  // Everything from 2^46 up lands in the overflow bucket.
  EXPECT_EQ(Histogram::BucketFor(1ull << 46), kHistogramBuckets - 1);
  EXPECT_EQ(Histogram::BucketFor(UINT64_MAX), kHistogramBuckets - 1);
}

TEST(HistogramTest, BucketBoundsAreConsistentWithBucketFor) {
  EXPECT_EQ(HistogramSnapshot::BucketLowerBound(0), 0u);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(0), 0u);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(kHistogramBuckets - 1),
            UINT64_MAX);
  for (int b = 0; b < kHistogramBuckets - 1; ++b) {
    EXPECT_EQ(Histogram::BucketFor(HistogramSnapshot::BucketLowerBound(b)), b);
    EXPECT_EQ(Histogram::BucketFor(HistogramSnapshot::BucketUpperBound(b)), b);
  }
  EXPECT_EQ(Histogram::BucketFor(
                HistogramSnapshot::BucketLowerBound(kHistogramBuckets - 1)),
            kHistogramBuckets - 1);
}

TEST(HistogramTest, PercentilesOnKnownDistribution) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_EQ(snap.sum, 5050u);
  EXPECT_EQ(snap.max, 100u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 50.5);
  // Rank 50 falls in bucket [32, 63] (cumulative count 63); the estimator
  // reports the bucket's upper bound.
  EXPECT_EQ(snap.P50(), 63u);
  // Ranks 95 and 99 fall in the top occupied bucket [64, 127], whose upper
  // bound is clamped to the observed maximum.
  EXPECT_EQ(snap.P95(), 100u);
  EXPECT_EQ(snap.P99(), 100u);
}

TEST(HistogramTest, SingleValuePercentilesAreExact) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.Record(42);
  HistogramSnapshot snap = h.Snapshot();
  // The bucket upper bound (63) exceeds the observed max, so clamping makes
  // every percentile of a constant distribution exact.
  EXPECT_EQ(snap.P50(), 42u);
  EXPECT_EQ(snap.P95(), 42u);
  EXPECT_EQ(snap.P99(), 42u);
}

TEST(HistogramTest, OverflowBucketReportsObservedMax) {
  Histogram h;
  h.Record(1ull << 50);
  h.Record(3);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.buckets[kHistogramBuckets - 1], 1u);
  EXPECT_EQ(snap.max, 1ull << 50);
  EXPECT_EQ(snap.P99(), 1ull << 50);
}

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.P50(), 0u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 0.0);
}

TEST(HistogramTest, StripeMergeAcrossThreadsIsExact) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(t + 1));
      }
    });
  }
  for (auto& th : threads) th.join();
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads * kPerThread));
  // sum = 1000 * (1 + 2 + ... + 8)
  EXPECT_EQ(snap.sum, 1000u * 36u);
  EXPECT_EQ(snap.max, 8u);
}

// --- counters and gauges -------------------------------------------------

TEST(CounterTest, StripesSumExactlyAcrossThreads) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Add();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads * kPerThread));
}

TEST(GaugeTest, SetAddSetMax) {
  Gauge g;
  g.Set(-5);
  EXPECT_EQ(g.Value(), -5);
  g.Add(15);
  EXPECT_EQ(g.Value(), 10);
  g.SetMax(7);  // lower than current: no effect
  EXPECT_EQ(g.Value(), 10);
  g.SetMax(12);
  EXPECT_EQ(g.Value(), 12);
}

// --- registry -------------------------------------------------------------

TEST(MetricsRegistryTest, SameNameReturnsSameObject) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.counter("a"), registry.counter("a"));
  EXPECT_NE(registry.counter("a"), registry.counter("b"));
  EXPECT_EQ(registry.gauge("a"), registry.gauge("a"));
  EXPECT_EQ(registry.histogram("a"), registry.histogram("a"));
  // Counter, gauge and histogram namespaces are independent.
  registry.counter("x")->Add(2);
  registry.gauge("x")->Set(-1);
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterValue("x"), 2u);
  EXPECT_EQ(snap.GaugeValue("x"), -1);
}

TEST(MetricsRegistryTest, DisabledRegistryKeepsCountersButNotHistograms) {
  MetricsRegistry registry(/*enabled=*/false);
  EXPECT_FALSE(registry.enabled());
  EXPECT_EQ(registry.histogram("lat"), nullptr);
  Counter* c = registry.counter("events");
  ASSERT_NE(c, nullptr);
  c->Add(3);
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterValue("events"), 3u);
  EXPECT_TRUE(snap.histograms.empty());
}

// --- ScopedTimer RAII semantics -------------------------------------------

TEST(ScopedTimerTest, RecordsOnEveryExitPath) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("lat");
  auto early_return = [&](bool fail) {
    ScopedTimer timer(h);
    if (fail) return Status::IOError("injected");
    return Status::OK();
  };
  EXPECT_FALSE(early_return(true).ok());
  EXPECT_TRUE(early_return(false).ok());
  EXPECT_EQ(h->Snapshot().count, 2u);
}

TEST(ScopedTimerTest, NullHistogramIsInert) {
  ScopedTimer timer(nullptr);  // must not crash on destruction
}

TEST(ScopedTimerTest, CancelDropsTheSpan) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("lat");
  {
    ScopedTimer timer(h);
    timer.Cancel();
  }
  EXPECT_EQ(h->Snapshot().count, 0u);
}

TEST(ScopedTimerTest, RedirectRetargetsWithoutRestartingTheClock) {
  MetricsRegistry registry;
  Histogram* a = registry.histogram("a");
  Histogram* b = registry.histogram("b");
  {
    ScopedTimer timer(a);
    timer.Redirect(b);
  }
  EXPECT_EQ(a->Snapshot().count, 0u);
  EXPECT_EQ(b->Snapshot().count, 1u);
}

TEST(ScopedTimerTest, RedirectOnDisarmedTimerStaysDisarmed) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("lat");
  {
    ScopedTimer timer(nullptr);
    timer.Redirect(h);  // no start time to preserve: stays off
  }
  EXPECT_EQ(h->Snapshot().count, 0u);
}

// --- snapshot codec --------------------------------------------------------

// Appends the codec's checksum so tests can craft payloads that reach the
// strict post-checksum validation paths.
std::string Sealed(std::string payload) {
  PutFixed32(&payload, Fnv1a32(payload.data(), payload.size()));
  return payload;
}

std::string EmptySnapshotPayload(uint32_t version) {
  std::string p;
  PutVarint32(&p, version);
  PutVarint32(&p, 0);  // counters
  PutVarint32(&p, 0);  // gauges
  PutVarint32(&p, 0);  // histograms
  return p;
}

TEST(MetricsCodecTest, TestChecksumMatchesCodecChecksum) {
  // Self-check for the crafted-payload tests below: re-sealing the codec's
  // own payload must reproduce its bytes exactly.
  MetricsRegistry registry;
  std::string encoded = EncodeMetricsSnapshot(registry.Snapshot());
  ASSERT_GE(encoded.size(), 4u);
  EXPECT_EQ(Sealed(encoded.substr(0, encoded.size() - 4)), encoded);
}

TEST(MetricsCodecTest, RoundTrip) {
  MetricsRegistry registry;
  registry.counter("wal.commits")->Add(12);
  registry.counter("zero")->Add(0);
  registry.counter("big")->Add(UINT64_MAX / 2);
  registry.gauge("depth")->Set(-42);
  Histogram* h = registry.histogram("lat");
  for (uint64_t v = 1; v <= 100; ++v) h->Record(v);

  MetricsSnapshot original = registry.Snapshot();
  auto decoded = DecodeMetricsSnapshot(EncodeMetricsSnapshot(original));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->version, MetricsSnapshot::kVersion);
  EXPECT_EQ(decoded->counters, original.counters);
  EXPECT_EQ(decoded->gauges, original.gauges);
  ASSERT_EQ(decoded->histograms.size(), 1u);
  const HistogramSnapshot* hs = decoded->FindHistogram("lat");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 100u);
  EXPECT_EQ(hs->sum, 5050u);
  EXPECT_EQ(hs->max, 100u);
  EXPECT_EQ(hs->buckets, original.histograms[0].second.buckets);
  EXPECT_EQ(decoded->CounterValue("wal.commits"), 12u);
  EXPECT_EQ(decoded->CounterValue("absent"), 0u);
  EXPECT_EQ(decoded->GaugeValue("depth"), -42);
  EXPECT_EQ(decoded->FindHistogram("absent"), nullptr);
}

TEST(MetricsCodecTest, EveryTruncationIsCorruption) {
  MetricsRegistry registry;
  registry.counter("c")->Add(7);
  registry.gauge("g")->Set(9);
  registry.histogram("h")->Record(5);
  std::string encoded = EncodeMetricsSnapshot(registry.Snapshot());
  for (size_t len = 0; len < encoded.size(); ++len) {
    auto decoded = DecodeMetricsSnapshot(Slice(encoded.data(), len));
    ASSERT_FALSE(decoded.ok()) << "prefix length " << len;
    EXPECT_TRUE(decoded.status().IsCorruption())
        << "prefix length " << len << ": " << decoded.status().ToString();
  }
}

TEST(MetricsCodecTest, EveryBitFlipIsRejected) {
  MetricsRegistry registry;
  registry.counter("c")->Add(7);
  registry.histogram("h")->Record(5);
  const std::string encoded = EncodeMetricsSnapshot(registry.Snapshot());
  for (size_t i = 0; i < encoded.size() * 8; ++i) {
    std::string damaged = encoded;
    damaged[i / 8] = static_cast<char>(damaged[i / 8] ^ (1u << (i % 8)));
    auto decoded = DecodeMetricsSnapshot(damaged);
    ASSERT_FALSE(decoded.ok()) << "bit " << i;
    EXPECT_TRUE(decoded.status().IsCorruption()) << "bit " << i;
  }
}

TEST(MetricsCodecTest, UnknownVersionIsInvalidArgument) {
  auto decoded = DecodeMetricsSnapshot(Sealed(EmptySnapshotPayload(2)));
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsInvalidArgument())
      << decoded.status().ToString();
}

TEST(MetricsCodecTest, TrailingBytesAreInvalidArgument) {
  std::string payload = EmptySnapshotPayload(MetricsSnapshot::kVersion);
  payload.push_back('\0');
  auto decoded = DecodeMetricsSnapshot(Sealed(payload));
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsInvalidArgument())
      << decoded.status().ToString();
}

TEST(MetricsCodecTest, OversizedBucketCountIsInvalidArgument) {
  std::string p;
  PutVarint32(&p, MetricsSnapshot::kVersion);
  PutVarint32(&p, 0);  // counters
  PutVarint32(&p, 0);  // gauges
  PutVarint32(&p, 1);  // one histogram...
  PutLengthPrefixed(&p, Slice("h"));
  PutVarint64(&p, 0);  // count
  PutVarint64(&p, 0);  // sum
  PutVarint64(&p, 0);  // max
  PutVarint32(&p, kHistogramBuckets + 1);  // ...claiming too many buckets
  for (int b = 0; b < kHistogramBuckets + 1; ++b) PutVarint64(&p, 0);
  auto decoded = DecodeMetricsSnapshot(Sealed(p));
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsInvalidArgument())
      << decoded.status().ToString();
}

TEST(MetricsRegistryTest, TextExposition) {
  MetricsRegistry registry;
  registry.counter("wal.commits")->Add(3);
  registry.gauge("wal.max_batch")->Set(5);
  registry.histogram("wal.flush_micros")->Record(10);
  const std::string text = registry.TextExposition();
  EXPECT_NE(text.find("# TYPE tendax_wal_commits counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("tendax_wal_commits 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tendax_wal_max_batch gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("tendax_wal_max_batch 5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tendax_wal_flush_micros summary\n"),
            std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.5\""), std::string::npos);
  EXPECT_NE(text.find("tendax_wal_flush_micros_count 1\n"), std::string::npos);
}

// --- deterministic end-to-end: commit batching ---------------------------

Schema ValueSchema() { return Schema({{"value", ColumnType::kUint64}}); }

// A scaled-down version of the commit-batching rig: a Database over
// fault-injected in-memory backends, the log gated by the seeded schedule
// controller.
struct Rig {
  std::shared_ptr<InMemoryDiskManager> disk;
  std::shared_ptr<InMemoryLogStorage> log;
  std::shared_ptr<FaultPlan> plan;
  std::shared_ptr<ScheduleController> sched;
  std::unique_ptr<Database> db;
  std::vector<HeapTable*> tables;
};

Rig OpenRig(size_t num_tables, uint64_t seed) {
  Rig rig;
  rig.disk = std::make_shared<InMemoryDiskManager>();
  rig.log = std::make_shared<InMemoryLogStorage>();
  rig.plan = std::make_shared<FaultPlan>(seed);
  rig.sched = std::make_shared<ScheduleController>(seed);
  DatabaseOptions options;
  options.buffer_pool_pages = 64;
  options.disk =
      std::make_shared<FaultInjectingDiskManager>(rig.disk, rig.plan);
  options.metrics = std::make_shared<MetricsRegistry>();
  options.log_storage = rig.sched->GateLog(
      std::make_shared<FaultInjectingLogStorage>(rig.log, rig.plan),
      options.metrics);
  auto db = Database::Open(std::move(options));
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  if (!db.ok()) return rig;
  rig.db = std::move(*db);
  for (size_t i = 0; i < num_tables; ++i) {
    auto table = rig.db->CreateTable("t" + std::to_string(i), ValueSchema());
    EXPECT_TRUE(table.ok()) << table.status().ToString();
    if (!table.ok()) return rig;
    rig.tables.push_back(*table);
  }
  return rig;
}

// Writer `i` commits one insert of `1000 + i` into table t<i>.
void CommitOne(Rig& rig, size_t i) {
  TxnManager* txns = rig.db->txns();
  Transaction* txn = txns->Begin(UserId(100 + i));
  Status st = rig.db->locks()->Acquire(
      txn->id(), MakeResource(ResourceKind::kDocument, 1 + i), LockMode::kX);
  if (st.ok()) {
    st = rig.tables[i]
             ->Insert(txn, Record({static_cast<uint64_t>(1000 + i)}))
             .status();
  }
  if (st.ok()) {
    (void)txns->Commit(txn);
  } else {
    (void)txns->Abort(txn);
  }
}

TEST(MetricsE2ETest, GroupCommitBatchMetricsExact) {
  constexpr size_t kWriters = 4;
  Rig rig = OpenRig(kWriters, /*seed=*/7);
  ASSERT_NE(rig.db, nullptr);
  MetricsRegistry* metrics = rig.db->metrics();
  ASSERT_NE(metrics, nullptr);

  MetricsSnapshot before = metrics->Snapshot();
  const HistogramSnapshot* cf = before.FindHistogram("wal.commit_flush_micros");
  const uint64_t commit_flushes_before = cf != nullptr ? cf->count : 0;

  // Writer 0 parks inside its own commit flush, holding the flush slot;
  // the other writers' commits queue behind it and share the next flush.
  rig.sched->PauseAtFlush(rig.sched->flushes_seen() + 1);
  std::vector<std::thread> threads;
  threads.emplace_back([&] { CommitOne(rig, 0); });
  const bool parked = rig.sched->WaitUntilPaused();
  for (size_t i = 1; i < kWriters; ++i) {
    threads.emplace_back([&, i] { CommitOne(rig, i); });
  }
  const bool queued = parked && rig.sched->WaitForWaiters(kWriters);
  rig.sched->ReleaseFlush();
  for (auto& th : threads) th.join();
  ASSERT_TRUE(queued) << rig.sched->Describe();

  MetricsSnapshot after = metrics->Snapshot();
  EXPECT_EQ(after.CounterValue("wal.commits") - before.CounterValue("wal.commits"),
            kWriters);
  // The gated flush, then one flush for the whole queue.
  EXPECT_EQ(after.CounterValue("wal.syncs") - before.CounterValue("wal.syncs"),
            2u);
  EXPECT_EQ(after.CounterValue("wal.failed_flushes"), 0u);
  const HistogramSnapshot* cf_after =
      after.FindHistogram("wal.commit_flush_micros");
  ASSERT_NE(cf_after, nullptr);
  EXPECT_EQ(cf_after->count - commit_flushes_before, kWriters);
}

// A commit whose fsync fails counts exactly one failed flush: the failing
// flush itself. The rollback that follows issues no flush.
TEST(MetricsE2ETest, FailedCommitSyncCountsOneFailedFlush) {
  Rig rig = OpenRig(/*num_tables=*/1, /*seed=*/7);
  ASSERT_NE(rig.db, nullptr);
  MetricsRegistry* metrics = rig.db->metrics();
  const uint64_t failed_before =
      metrics->Snapshot().CounterValue("wal.failed_flushes");

  rig.plan->FailNthSync(rig.plan->syncs_seen() + 1);
  TxnManager* txns = rig.db->txns();
  Transaction* txn = txns->Begin(UserId(1));
  ASSERT_TRUE(rig.tables[0]->Insert(txn, Record({uint64_t{5}})).ok());
  EXPECT_TRUE(txns->Commit(txn).IsIOError());

  EXPECT_EQ(metrics->Snapshot().CounterValue("wal.failed_flushes") -
                failed_before,
            1u);
}

// Satellite (d): the commit-latency timer is RAII'd at the top of
// Wal::CommitFlush / TxnManager::Commit, so a flush that *fails* still
// records a latency sample and the abort is counted.
TEST(MetricsE2ETest, FailedCommitFlushStillRecordsLatencyAndAbort) {
  Rig rig = OpenRig(/*num_tables=*/1, /*seed=*/7);
  ASSERT_NE(rig.db, nullptr);
  MetricsRegistry* metrics = rig.db->metrics();

  MetricsSnapshot before = metrics->Snapshot();
  const HistogramSnapshot* cf = before.FindHistogram("wal.commit_flush_micros");
  const uint64_t commit_flushes_before = cf != nullptr ? cf->count : 0;

  rig.plan->FailNthSync(rig.plan->syncs_seen() + 1);
  TxnManager* txns = rig.db->txns();
  Transaction* txn = txns->Begin(UserId(1));
  ASSERT_TRUE(rig.tables[0]->Insert(txn, Record({uint64_t{5}})).ok());
  Status commit = txns->Commit(txn);
  EXPECT_FALSE(commit.ok());

  MetricsSnapshot after = metrics->Snapshot();
  const HistogramSnapshot* cf_after =
      after.FindHistogram("wal.commit_flush_micros");
  ASSERT_NE(cf_after, nullptr);
  EXPECT_EQ(cf_after->count - commit_flushes_before, 1u)
      << "error path must record commit-flush latency";
  EXPECT_EQ(after.CounterValue("txn.aborted") -
                before.CounterValue("txn.aborted"),
            1u);
  const HistogramSnapshot* tc = after.FindHistogram("txn.commit_micros");
  ASSERT_NE(tc, nullptr);
  EXPECT_GE(tc->count, 1u);
  // Mirrors stay faithful even through the failure.
  TxnManagerStats legacy = txns->stats();
  EXPECT_EQ(after.CounterValue("txn.begun"), legacy.begun);
  EXPECT_EQ(after.CounterValue("txn.committed"), legacy.committed);
  EXPECT_EQ(after.CounterValue("txn.aborted"), legacy.aborted);
}

// --- deterministic end-to-end: wire + retries ----------------------------

class MetricsWireTest : public ServerTest {
 protected:
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
    r.transport = std::make_unique<FlakyTransport>(r.endpoint.get(), faults);
    r.client = std::make_unique<RetryingClient>(r.transport.get(), retry);
    return r;
  }

  static NetFaultOptions NoFaults(uint64_t seed = 1) {
    return NetFaultOptions::Uniform(seed, 0.0);
  }
};

TEST_F(MetricsWireTest, DispatchCountersPerCommandKind) {
  DocumentId doc = MakeDoc(alice_, "wire-metrics", "");
  MetricsRegistry* metrics = server_->metrics();
  MetricsSnapshot before = metrics->Snapshot();

  RetryOptions retry;
  retry.metrics = metrics;
  Remote r = MakeRemote(alice_, "wm-editor", NoFaults(), retry);
  ASSERT_TRUE(r.client->Open(doc).ok());
  ASSERT_TRUE(r.client->Type(doc, 0, "a").ok());
  ASSERT_TRUE(r.client->Type(doc, 1, "b").ok());
  ASSERT_TRUE(r.client->Type(doc, 2, "c").ok());
  auto text = r.client->GetText(doc);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "abc");

  MetricsSnapshot after = metrics->Snapshot();
  EXPECT_EQ(after.CounterValue("wire.requests") -
                before.CounterValue("wire.requests"),
            5u);
  EXPECT_EQ(after.CounterValue("client.calls") -
                before.CounterValue("client.calls"),
            5u);
  EXPECT_EQ(after.CounterValue("client.attempts") -
                before.CounterValue("client.attempts"),
            5u);
  const HistogramSnapshot* type_lat =
      after.FindHistogram("wire.dispatch_micros.type");
  ASSERT_NE(type_lat, nullptr);
  EXPECT_EQ(type_lat->count, 3u);
  const HistogramSnapshot* open_lat =
      after.FindHistogram("wire.dispatch_micros.open");
  ASSERT_NE(open_lat, nullptr);
  EXPECT_EQ(open_lat->count, 1u);
  const HistogramSnapshot* get_lat =
      after.FindHistogram("wire.dispatch_micros.get_text");
  ASSERT_NE(get_lat, nullptr);
  EXPECT_EQ(get_lat->count, 1u);
}

// Satellite (d), wire half: undecodable bytes still record a dispatch
// sample (into the "invalid" family) and bump the decode-error counter.
TEST_F(MetricsWireTest, DecodeErrorRecordsInvalidDispatch) {
  MetricsRegistry* metrics = server_->metrics();
  MetricsSnapshot before = metrics->Snapshot();

  Remote r = MakeRemote(alice_, "garbage-editor", NoFaults());
  const std::string garbage = "\xff\xfe\xfd not a command";
  std::string response_bytes = r.endpoint->Handle(garbage);
  auto response = DecodeResponse(response_bytes);
  ASSERT_TRUE(response.ok());
  EXPECT_NE(response->code, StatusCode::kOk);

  MetricsSnapshot after = metrics->Snapshot();
  EXPECT_EQ(after.CounterValue("wire.decode_errors") -
                before.CounterValue("wire.decode_errors"),
            1u);
  const HistogramSnapshot* invalid =
      after.FindHistogram("wire.dispatch_micros.invalid");
  ASSERT_NE(invalid, nullptr);
  EXPECT_EQ(invalid->count, 1u);
}

TEST_F(MetricsWireTest, RetryAndDedupCountersExactUnderForcedFault) {
  DocumentId doc = MakeDoc(alice_, "retry-metrics", "");
  MetricsRegistry* metrics = server_->metrics();
  MetricsSnapshot before = metrics->Snapshot();

  RetryOptions retry;
  retry.metrics = metrics;
  Remote r = MakeRemote(alice_, "rm-editor", NoFaults(), retry);
  ASSERT_TRUE(r.client->Open(doc).ok());
  // The Type executes server-side but its response is dropped; the retry is
  // answered from the dedup cache.
  r.transport->Force(2, NetFault::kDropResponse);
  ASSERT_TRUE(r.client->Type(doc, 0, "a").ok());

  MetricsSnapshot after = metrics->Snapshot();
  EXPECT_EQ(after.CounterValue("client.calls") -
                before.CounterValue("client.calls"),
            2u);
  EXPECT_EQ(after.CounterValue("client.attempts") -
                before.CounterValue("client.attempts"),
            3u);
  EXPECT_EQ(after.CounterValue("client.retries") -
                before.CounterValue("client.retries"),
            1u);
  EXPECT_EQ(after.CounterValue("client.timeouts") -
                before.CounterValue("client.timeouts"),
            1u);
  EXPECT_EQ(after.CounterValue("wire.dedup_hits") -
                before.CounterValue("wire.dedup_hits"),
            1u);
  // Registry and legacy stats agree exactly.
  EXPECT_EQ(after.CounterValue("client.attempts"), r.client->stats().attempts);
  EXPECT_EQ(after.CounterValue("client.timeouts"), r.client->stats().timeouts);
  EXPECT_EQ(after.CounterValue("wire.dedup_hits"), r.endpoint->dedup_hits());
}

// Acceptance criterion: a kStats round trip returns a checksum-verified
// snapshot covering WAL, buffer pool, transactions, locks, wire and
// session metrics.
TEST_F(MetricsWireTest, StatsCommandCoversEverySubsystem) {
  DocumentId doc = MakeDoc(alice_, "stats-doc", "");
  RetryOptions retry;
  retry.metrics = server_->metrics();
  Remote r = MakeRemote(alice_, "stats-editor", NoFaults(), retry);
  ASSERT_TRUE(r.client->Open(doc).ok());
  ASSERT_TRUE(r.client->Type(doc, 0, "hello").ok());

  auto snapshot = r.client->ServerStats();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  EXPECT_GT(snapshot->CounterValue("wal.commits"), 0u);
  EXPECT_GT(snapshot->CounterValue("bufferpool.hits"), 0u);
  EXPECT_GT(snapshot->CounterValue("txn.committed"), 0u);
  EXPECT_GT(snapshot->CounterValue("lock.acquisitions"), 0u);
  EXPECT_GT(snapshot->CounterValue("wire.requests"), 0u);
  EXPECT_GT(snapshot->CounterValue("session.events_delivered") +
                snapshot->CounterValue("session.connects"),
            0u);
  // Histograms ride along on the default (enabled) configuration.
  EXPECT_NE(snapshot->FindHistogram("txn.commit_micros"), nullptr);
  EXPECT_NE(snapshot->FindHistogram("wal.commit_flush_micros"), nullptr);
  // The in-process view agrees with the wire view for settled counters.
  auto local = r.editor->ServerStats();
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(local->CounterValue("txn.committed"),
            snapshot->CounterValue("txn.committed"));
}

// --- server configurations -------------------------------------------------

TEST(MetricsServerTest, DisabledMetricsStillServeCounters) {
  TendaxOptions options;
  options.metrics_enabled = false;
  auto server = TendaxServer::Open(std::move(options));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto user = (*server)->accounts()->CreateUser("quiet");
  ASSERT_TRUE(user.ok());
  auto editor = (*server)->AttachEditor(*user, "quiet-editor");
  ASSERT_TRUE(editor.ok());
  auto doc = (*editor)->CreateDocument("quiet.txt");
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE((*editor)->Type(*doc, 0, "x").ok());

  EXPECT_EQ((*server)->metrics()->histogram("anything"), nullptr);
  auto snapshot = (*editor)->ServerStats();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_TRUE(snapshot->histograms.empty());
  EXPECT_GT(snapshot->CounterValue("txn.committed"), 0u);
  // The snapshot still survives the wire codec.
  auto decoded = DecodeMetricsSnapshot(EncodeMetricsSnapshot(*snapshot));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->CounterValue("txn.committed"),
            snapshot->CounterValue("txn.committed"));
}

TEST(MetricsServerTest, LeaseReapCountsSessionsExactly) {
  TendaxOptions options;
  auto clock = std::make_shared<ManualClock>(/*start=*/1'000'000'000,
                                             /*tick=*/1000);
  options.db.clock = clock;
  options.session.lease_ttl_micros = 60'000'000;  // 60s
  auto server = TendaxServer::Open(std::move(options));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto user = (*server)->accounts()->CreateUser("lessee");
  ASSERT_TRUE(user.ok());
  auto editor = (*server)->AttachEditor(*user, "leased-editor");
  ASSERT_TRUE(editor.ok());

  clock->Advance(120'000'000);  // two full TTLs with no heartbeat
  EXPECT_EQ((*server)->sessions()->ReapExpired(), 1u);
  MetricsSnapshot snap = (*server)->metrics()->Snapshot();
  EXPECT_EQ(snap.CounterValue("session.sessions_reaped"), 1u);
  EXPECT_EQ(snap.CounterValue("session.sessions_reaped"),
            (*server)->sessions()->sessions_reaped());
}

TEST(MetricsServerTest, ResyncCounterMirrorsSessionManager) {
  TendaxOptions options;
  options.session.max_inbox_events = 3;  // tiny outbox: overflow fast
  auto server = TendaxServer::Open(std::move(options));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto alice = (*server)->accounts()->CreateUser("alice");
  auto bob = (*server)->accounts()->CreateUser("bob");
  ASSERT_TRUE(alice.ok() && bob.ok());
  auto writer = (*server)->AttachEditor(*alice, "writer");
  auto lagger = (*server)->AttachEditor(*bob, "lagger");
  ASSERT_TRUE(writer.ok() && lagger.ok());
  auto doc = (*writer)->CreateDocument("busy.txt");
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE((*lagger)->Open(*doc).ok());

  // The lagger never polls, so its outbox overflows into a resync marker.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*writer)->Type(*doc, 0, "x").ok());
  }
  uint64_t legacy = (*server)->sessions()->resyncs_emitted();
  EXPECT_GE(legacy, 1u);
  MetricsSnapshot snap = (*server)->metrics()->Snapshot();
  EXPECT_EQ(snap.CounterValue("session.resyncs_emitted"), legacy);
  EXPECT_EQ(snap.CounterValue("session.events_delivered"),
            (*server)->sessions()->events_delivered());
}

// Quiesced end-to-end workload: every registry mirror equals its legacy
// accessor across all instrumented subsystems at once.
TEST_F(MetricsWireTest, SnapshotMatchesLegacyAccessorsAfterWorkload) {
  DocumentId doc = MakeDoc(alice_, "mirror-doc", "seed text");
  RetryOptions retry;
  retry.metrics = server_->metrics();
  Remote r = MakeRemote(alice_, "mirror-editor", NoFaults(), retry);
  ASSERT_TRUE(r.client->Open(doc).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(r.client->Type(doc, 0, "y").ok());
  }
  ASSERT_TRUE(r.client->Erase(doc, 0, 2).ok());

  MetricsSnapshot snap = server_->metrics()->Snapshot();
  Database* db = server_->db();
  BufferPoolStats bp = db->buffer_pool()->stats();
  EXPECT_EQ(snap.CounterValue("bufferpool.hits"), bp.hits);
  EXPECT_EQ(snap.CounterValue("bufferpool.misses"), bp.misses);
  EXPECT_EQ(snap.CounterValue("bufferpool.evictions"), bp.evictions);
  EXPECT_EQ(snap.CounterValue("bufferpool.writebacks"), bp.dirty_writebacks);
  TxnManagerStats txn = db->txns()->stats();
  EXPECT_EQ(snap.CounterValue("txn.begun"), txn.begun);
  EXPECT_EQ(snap.CounterValue("txn.committed"), txn.committed);
  EXPECT_EQ(snap.CounterValue("txn.aborted"), txn.aborted);
  LockManagerStats locks = db->locks()->stats();
  EXPECT_EQ(snap.CounterValue("lock.acquisitions"), locks.acquisitions);
  EXPECT_EQ(snap.CounterValue("lock.waits"), locks.waits);
  EXPECT_EQ(snap.CounterValue("lock.deadlocks"), locks.deadlocks);
  EXPECT_EQ(snap.CounterValue("lock.timeouts"), locks.timeouts);
  EXPECT_EQ(snap.CounterValue("client.calls"), r.client->stats().calls);
  EXPECT_EQ(snap.CounterValue("client.attempts"), r.client->stats().attempts);
  EXPECT_EQ(snap.CounterValue("wire.dedup_hits"), r.endpoint->dedup_hits());
}

}  // namespace
}  // namespace tendax
