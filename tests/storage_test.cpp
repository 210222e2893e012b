// Unit tests for the storage engine: disk managers, buffer pool, WAL.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "storage/segmented_log.h"
#include "storage/wal.h"
#include "util/coding.h"
#include "util/random.h"

namespace tendax {
namespace {

std::string TempPath(const std::string& name) {
  auto dir = std::filesystem::temp_directory_path() / "tendax_storage_test";
  std::filesystem::create_directories(dir);
  auto path = dir / name;
  std::filesystem::remove(path);
  return path.string();
}

// ---------- DiskManager ----------

class DiskManagerTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (GetParam()) {
      auto res = FileDiskManager::Open(TempPath("disk.db"));
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      disk_ = std::move(*res);
    } else {
      disk_ = std::make_unique<InMemoryDiskManager>();
    }
  }
  std::unique_ptr<DiskManager> disk_;
};

TEST_P(DiskManagerTest, AllocateReadWriteRoundTrip) {
  auto p0 = disk_->AllocatePage();
  auto p1 = disk_->AllocatePage();
  ASSERT_TRUE(p0.ok());
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(*p0, 0u);
  EXPECT_EQ(*p1, 1u);
  EXPECT_EQ(disk_->NumPages(), 2u);

  char out[kPageSize];
  char in[kPageSize];
  memset(in, 0xAB, kPageSize);
  ASSERT_TRUE(disk_->WritePage(*p1, in).ok());
  ASSERT_TRUE(disk_->ReadPage(*p1, out).ok());
  EXPECT_EQ(memcmp(in, out, kPageSize), 0);

  // Fresh pages come back zeroed.
  ASSERT_TRUE(disk_->ReadPage(*p0, out).ok());
  for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ(out[i], 0);
}

TEST_P(DiskManagerTest, OutOfRangeRejected) {
  char buf[kPageSize] = {0};
  EXPECT_TRUE(disk_->ReadPage(5, buf).IsOutOfRange());
  EXPECT_TRUE(disk_->WritePage(5, buf).IsOutOfRange());
}

INSTANTIATE_TEST_SUITE_P(Backends, DiskManagerTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "File" : "Memory";
                         });

TEST(FileDiskManagerTest, PersistsAcrossReopen) {
  std::string path = TempPath("persist.db");
  {
    auto disk = FileDiskManager::Open(path);
    ASSERT_TRUE(disk.ok());
    auto pid = (*disk)->AllocatePage();
    ASSERT_TRUE(pid.ok());
    char buf[kPageSize];
    memset(buf, 0x5C, kPageSize);
    ASSERT_TRUE((*disk)->WritePage(*pid, buf).ok());
    ASSERT_TRUE((*disk)->Sync().ok());
  }
  auto disk = FileDiskManager::Open(path);
  ASSERT_TRUE(disk.ok());
  EXPECT_EQ((*disk)->NumPages(), 1u);
  char out[kPageSize];
  ASSERT_TRUE((*disk)->ReadPage(0, out).ok());
  for (size_t i = 0; i < kPageSize; ++i) {
    ASSERT_EQ(static_cast<unsigned char>(out[i]), 0x5C);
  }
}

// ---------- BufferPool ----------

TEST(BufferPoolTest, NewFetchUnpinCycle) {
  InMemoryDiskManager disk;
  BufferPool pool(4, &disk);
  auto page = pool.NewPage();
  ASSERT_TRUE(page.ok());
  PageId pid = (*page)->id();
  strcpy((*page)->payload(), "hello");
  pool.Unpin(*page, /*dirty=*/true);

  auto again = pool.FetchPage(pid);
  ASSERT_TRUE(again.ok());
  EXPECT_STREQ((*again)->payload(), "hello");
  pool.Unpin(*again, false);
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST(BufferPoolTest, EvictionWritesBackDirtyPages) {
  InMemoryDiskManager disk;
  BufferPool pool(2, &disk);
  std::vector<PageId> pids;
  for (int i = 0; i < 5; ++i) {
    auto page = pool.NewPage();
    ASSERT_TRUE(page.ok());
    (*page)->payload()[0] = static_cast<char>('A' + i);
    pids.push_back((*page)->id());
    pool.Unpin(*page, true);
  }
  // Capacity 2 but 5 pages touched: evictions must have happened.
  EXPECT_GE(pool.stats().evictions, 3u);
  // And every page's content survived.
  for (int i = 0; i < 5; ++i) {
    auto page = pool.FetchPage(pids[i]);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ((*page)->payload()[0], static_cast<char>('A' + i));
    pool.Unpin(*page, false);
  }
}

TEST(BufferPoolTest, PinnedPagesAreNotEvicted) {
  InMemoryDiskManager disk;
  BufferPool pool(2, &disk);
  auto a = pool.NewPage();
  auto b = pool.NewPage();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Both pinned; a third page cannot be placed.
  auto c = pool.NewPage();
  EXPECT_FALSE(c.ok());
  pool.Unpin(*a, false);
  pool.Unpin(*b, false);
  auto d = pool.NewPage();
  EXPECT_TRUE(d.ok());
  pool.Unpin(*d, false);
}

TEST(BufferPoolTest, LruPrefersColdPages) {
  InMemoryDiskManager disk;
  BufferPool pool(2, &disk);
  auto a = pool.NewPage();
  auto b = pool.NewPage();
  PageId pid_a = (*a)->id();
  PageId pid_b = (*b)->id();
  pool.Unpin(*a, true);
  pool.Unpin(*b, true);
  // Touch a so b becomes LRU.
  auto a2 = pool.FetchPage(pid_a);
  pool.Unpin(*a2, false);
  auto c = pool.NewPage();  // evicts b
  pool.Unpin(*c, false);
  // Fetching a is still a hit; b is a miss.
  uint64_t hits_before = pool.stats().hits;
  auto a3 = pool.FetchPage(pid_a);
  pool.Unpin(*a3, false);
  EXPECT_EQ(pool.stats().hits, hits_before + 1);
  auto b2 = pool.FetchPage(pid_b);
  pool.Unpin(*b2, false);
  EXPECT_GE(pool.stats().misses, 1u);
}

TEST(BufferPoolTest, FlushAllPersistsWithoutEviction) {
  InMemoryDiskManager disk;
  BufferPool pool(8, &disk);
  auto page = pool.NewPage();
  PageId pid = (*page)->id();
  strcpy((*page)->payload(), "durable");
  pool.Unpin(*page, true);
  ASSERT_TRUE(pool.FlushAll().ok());

  char raw[kPageSize];
  ASSERT_TRUE(disk.ReadPage(pid, raw).ok());
  EXPECT_STREQ(raw + kPageHeaderSize, "durable");
}

TEST(BufferPoolTest, WalFlushedBeforeDirtyWriteback) {
  // Write-ahead rule: evicting a dirty page forces the log up to page LSN.
  auto storage = std::make_shared<InMemoryLogStorage>();
  Wal wal(storage);
  InMemoryDiskManager disk;
  BufferPool pool(1, &disk);  // capacity 1 forces eviction
  BufferPool pool_with_wal(1, &disk, &wal);

  LogRecord rec;
  rec.type = LogType::kBegin;
  rec.txn = TxnId(1);
  const Lsn lsn = wal.Append(&rec);
  EXPECT_EQ(wal.flushed_lsn(), 0u);

  auto page = pool_with_wal.NewPage();
  ASSERT_TRUE(page.ok());
  (*page)->set_lsn(lsn);
  pool_with_wal.Unpin(*page, true);
  auto other = pool_with_wal.NewPage();  // evicts the dirty page
  ASSERT_TRUE(other.ok());
  pool_with_wal.Unpin(*other, false);
  EXPECT_GE(wal.flushed_lsn(), lsn);
}

// ---------- WAL ----------

TEST(WalTest, AppendAssignsIncreasingLsns) {
  Wal wal(std::make_shared<InMemoryLogStorage>());
  LogRecord a, b;
  a.type = b.type = LogType::kBegin;
  const Lsn la = wal.Append(&a);
  const Lsn lb = wal.Append(&b);
  EXPECT_EQ(la, 1u);
  EXPECT_EQ(lb, 2u);
}

LogRecord MakeUpdate(uint64_t txn, uint64_t table, uint64_t rid,
                     const std::string& before, const std::string& after) {
  LogRecord rec;
  rec.type = LogType::kUpdate;
  rec.txn = TxnId(txn);
  rec.op = UpdateOp::kUpdate;
  rec.table_id = table;
  rec.rid = rid;
  rec.before = before;
  rec.after = after;
  return rec;
}

TEST(WalTest, RoundTripsAllFields) {
  Wal wal(std::make_shared<InMemoryLogStorage>());
  LogRecord rec = MakeUpdate(9, 3, 0x70008, "old", "new");
  rec.undo_next_lsn = 17;
  wal.Append(&rec);
  ASSERT_TRUE(wal.FlushAll().ok());

  std::vector<LogRecord> out;
  ASSERT_TRUE(wal.ReadAll(&out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].lsn, rec.lsn);
  EXPECT_EQ(out[0].txn.value, 9u);
  EXPECT_EQ(out[0].table_id, 3u);
  EXPECT_EQ(out[0].rid, 0x70008u);
  EXPECT_EQ(out[0].before, "old");
  EXPECT_EQ(out[0].after, "new");
  EXPECT_EQ(out[0].undo_next_lsn, 17u);
}

TEST(WalTest, SurvivesReopenAndContinuesLsns) {
  auto storage = std::make_shared<InMemoryLogStorage>();
  {
    Wal wal(storage);
    LogRecord rec = MakeUpdate(1, 2, 3, "", "x");
    wal.Append(&rec);
    ASSERT_TRUE(wal.FlushAll().ok());
  }
  Wal wal2(storage);
  EXPECT_EQ(wal2.next_lsn(), 2u);
  std::vector<LogRecord> out;
  ASSERT_TRUE(wal2.ReadAll(&out).ok());
  EXPECT_EQ(out.size(), 1u);
}

TEST(WalTest, ToleratesTornTail) {
  auto storage = std::make_shared<InMemoryLogStorage>();
  Wal wal(storage);
  LogRecord a = MakeUpdate(1, 1, 1, "", "aaaa");
  LogRecord b = MakeUpdate(1, 1, 2, "", "bbbb");
  wal.Append(&a);
  wal.Append(&b);
  ASSERT_TRUE(wal.FlushAll().ok());
  std::string full;
  ASSERT_TRUE(storage->ReadAll(&full).ok());
  storage->CorruptTail(full.size() - 5);  // chop into record b

  std::vector<LogRecord> out;
  Wal reopened(storage);
  ASSERT_TRUE(reopened.ReadAll(&out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rid, 1u);
}

TEST(WalTest, ResetClearsButKeepsNumbering) {
  Wal wal(std::make_shared<InMemoryLogStorage>());
  LogRecord a = MakeUpdate(1, 1, 1, "", "x");
  wal.Append(&a);
  ASSERT_TRUE(wal.FlushAll().ok());
  ASSERT_TRUE(wal.Reset().ok());
  std::vector<LogRecord> out;
  ASSERT_TRUE(wal.ReadAll(&out).ok());
  EXPECT_TRUE(out.empty());
  LogRecord b = MakeUpdate(1, 1, 2, "", "y");
  EXPECT_GT(wal.Append(&b), a.lsn);
}

TEST(WalTest, FileBackedRoundTrip) {
  const std::string prefix = TempPath("wal.log");
  // Segment files of an earlier run would replay their records too.
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(prefix).parent_path())) {
    if (entry.path().filename().string().rfind("wal.log.", 0) == 0) {
      std::filesystem::remove(entry.path());
    }
  }
  {
    auto storage = SegmentedLogStorage::OpenFiles(prefix);
    ASSERT_TRUE(storage.ok()) << storage.status().ToString();
    Wal wal(*storage);
    LogRecord rec = MakeUpdate(4, 5, 6, "before", "after");
    wal.Append(&rec);
    ASSERT_TRUE(wal.FlushAll().ok());
  }
  auto storage = SegmentedLogStorage::OpenFiles(prefix);
  ASSERT_TRUE(storage.ok()) << storage.status().ToString();
  Wal wal(*storage);
  std::vector<LogRecord> out;
  ASSERT_TRUE(wal.ReadAll(&out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].before, "before");
  EXPECT_EQ(out[0].after, "after");
  ASSERT_TRUE((*storage)->Truncate().ok());  // clean up the segment files
}

// --- log-record robustness fuzz ------------------------------------------

LogRecord RandomRecord(Random* rng) {
  LogRecord rec;
  switch (rng->Uniform(5)) {
    case 0:
      rec.type = LogType::kBegin;
      break;
    case 1:
      rec.type = LogType::kCommit;
      break;
    case 2:
      rec.type = LogType::kAbort;
      break;
    case 3:
      rec.type = LogType::kCompensation;
      rec.undo_next_lsn = rng->Next();
      break;
    default:
      rec.type = LogType::kUpdate;
      break;
  }
  rec.lsn = rng->Next();
  rec.prev_lsn = rng->Next();
  rec.txn = TxnId(rng->Next());
  switch (rng->Uniform(3)) {
    case 0:
      rec.op = UpdateOp::kInsert;
      break;
    case 1:
      rec.op = UpdateOp::kUpdate;
      break;
    default:
      rec.op = UpdateOp::kDelete;
      break;
  }
  // Payload fields only travel on update/CLR records (EncodeTo is
  // type-aware), so only populate them there.
  if (rec.type == LogType::kUpdate || rec.type == LogType::kCompensation) {
    rec.table_id = rng->Next();
    rec.rid = rng->Next();
    size_t before_len = rng->Uniform(40);
    size_t after_len = rng->Uniform(40);
    for (size_t i = 0; i < before_len; ++i) {
      rec.before.push_back(static_cast<char>(rng->Uniform(256)));
    }
    for (size_t i = 0; i < after_len; ++i) {
      rec.after.push_back(static_cast<char>(rng->Uniform(256)));
    }
  }
  return rec;
}

// DecodeFrom must reject every strict prefix of a valid encoding without
// reading out of bounds (ASAN-checked) or crashing, and accept the full
// encoding bit-for-bit.
TEST(LogRecordFuzzTest, EveryTruncationReturnsFalse) {
  Random rng(20260806);
  for (int i = 0; i < 50; ++i) {
    LogRecord rec = RandomRecord(&rng);
    std::string bytes;
    rec.EncodeTo(&bytes);
    LogRecord out;
    ASSERT_TRUE(LogRecord::DecodeFrom(Slice(bytes), &out)) << "iter " << i;
    EXPECT_EQ(out.lsn, rec.lsn);
    EXPECT_EQ(out.before, rec.before);
    EXPECT_EQ(out.after, rec.after);
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      LogRecord truncated;
      // A prefix may happen to parse (trailing fields are optional in the
      // varint layout); it must never crash or over-read.
      (void)LogRecord::DecodeFrom(Slice(bytes.data(), cut), &truncated);
    }
  }
}

TEST(LogRecordFuzzTest, RandomCorruptionNeverCrashes) {
  Random rng(424242);
  for (int i = 0; i < 300; ++i) {
    LogRecord rec = RandomRecord(&rng);
    std::string bytes;
    rec.EncodeTo(&bytes);
    size_t flips = 1 + rng.Uniform(5);
    for (size_t f = 0; f < flips; ++f) {
      size_t pos = rng.Uniform(bytes.size());
      bytes[pos] = static_cast<char>(bytes[pos] ^ (1 << rng.Uniform(8)));
    }
    LogRecord out;
    (void)LogRecord::DecodeFrom(Slice(bytes), &out);
  }
}

// DecodeLogBuffer over every prefix of a multi-record framed log: only
// complete, checksum-valid records come back, and the torn tail never
// causes a crash or a phantom record.
TEST(LogRecordFuzzTest, DecodeLogBufferHandlesEveryPrefix) {
  auto storage = std::make_shared<InMemoryLogStorage>();
  Wal wal(storage);
  Random rng(7);
  constexpr int kRecords = 6;
  for (int i = 0; i < kRecords; ++i) {
    LogRecord rec = RandomRecord(&rng);
    wal.Append(&rec);
  }
  ASSERT_TRUE(wal.FlushAll().ok());
  std::string full;
  ASSERT_TRUE(storage->ReadAll(&full).ok());

  size_t max_decoded = 0;
  for (size_t cut = 0; cut <= full.size(); ++cut) {
    std::vector<LogRecord> out;
    Wal::DecodeLogBuffer(full.substr(0, cut), &out);
    EXPECT_LE(out.size(), static_cast<size_t>(kRecords));
    EXPECT_GE(out.size(), max_decoded);  // prefixes only ever add records
    max_decoded = std::max(max_decoded, out.size());
    for (size_t r = 0; r < out.size(); ++r) {
      EXPECT_EQ(out[r].lsn, r + 1) << "cut=" << cut;
    }
  }
  EXPECT_EQ(max_decoded, static_cast<size_t>(kRecords));

  // Bit flips anywhere in the framed buffer must never crash the decoder.
  for (int i = 0; i < 200; ++i) {
    std::string corrupt = full;
    size_t flips = 1 + rng.Uniform(8);
    for (size_t f = 0; f < flips; ++f) {
      size_t pos = rng.Uniform(corrupt.size());
      corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1 << rng.Uniform(8)));
    }
    std::vector<LogRecord> out;
    Wal::DecodeLogBuffer(corrupt, &out);
    EXPECT_LE(out.size(), static_cast<size_t>(kRecords));
  }
}

// A record that passes framing and checksum but breaks LSN contiguity is a
// trashed tail: DecodeLogBuffer must stop there, not replay out-of-order
// history. A log *starting* at an arbitrary LSN is fine (Reset() truncates
// the bytes but keeps numbering).
TEST(LogRecordFuzzTest, DecodeLogBufferStopsAtLsnGap) {
  auto storage = std::make_shared<InMemoryLogStorage>();
  Wal wal(storage);
  Random rng(11);
  constexpr int kRecords = 4;
  for (int i = 0; i < kRecords; ++i) {
    LogRecord rec = RandomRecord(&rng);
    wal.Append(&rec);
  }
  ASSERT_TRUE(wal.FlushAll().ok());
  std::string full;
  ASSERT_TRUE(storage->ReadAll(&full).ok());

  // Split the buffer into its four frames (fixed32 len + fixed32 crc +
  // payload) so we can splice them back together in illegal orders.
  std::vector<std::string> frames;
  for (size_t off = 0; off < full.size();) {
    uint32_t len = DecodeFixed32(full.data() + off);
    frames.push_back(full.substr(off, 8 + len));
    off += 8 + len;
  }
  ASSERT_EQ(frames.size(), static_cast<size_t>(kRecords));

  // lsn 1 followed by lsn 3: decoding stops after the first record.
  {
    std::vector<LogRecord> out;
    Lsn next = Wal::DecodeLogBuffer(frames[0] + frames[2], &out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].lsn, 1u);
    EXPECT_EQ(next, 2u);
  }
  // lsn 3 followed by lsn 4: a post-Reset() log legitimately starts past 1.
  {
    std::vector<LogRecord> out;
    Lsn next = Wal::DecodeLogBuffer(frames[2] + frames[3], &out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].lsn, 3u);
    EXPECT_EQ(next, 5u);
  }
  // lsn 2 repeated: the duplicate is dropped along with everything after.
  {
    std::vector<LogRecord> out;
    Lsn next = Wal::DecodeLogBuffer(frames[1] + frames[1] + frames[2], &out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].lsn, 2u);
    EXPECT_EQ(next, 3u);
  }
}

// Frames `payload` the way the WAL does: fixed32 length, fixed32 FNV-1a
// checksum, payload. Lets a test hand the decoder a checksum-valid frame
// whose payload is nonsense.
std::string Frame(const std::string& payload) {
  uint32_t h = 2166136261u;
  for (char c : payload) {
    h ^= static_cast<unsigned char>(c);
    h *= 16777619u;
  }
  std::string out;
  PutFixed32(&out, static_cast<uint32_t>(payload.size()));
  PutFixed32(&out, h);
  return out + payload;
}

// Decodes lsn 1, then `bad` as lsn 2, then lsn 3, and expects decoding to
// stop after lsn 1 — the same outcome as a torn second record.
void ExpectDecodingStopsAt(const std::string& bad) {
  LogRecord first, last;
  first.lsn = 1;
  last.lsn = 3;
  std::string head, tail;
  first.EncodeTo(&head);
  last.EncodeTo(&tail);
  std::vector<LogRecord> out;
  Lsn next = Wal::DecodeLogBuffer(Frame(head) + Frame(bad) + Frame(tail), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].lsn, 1u);
  EXPECT_EQ(next, 2u);
}

// A type byte naming no LogType — 6, the retired single-file checkpoint
// marker, included — is trash, not a record of some unknown kind.
TEST(LogRecordFuzzTest, UnknownTypeByteEndsDecoding) {
  LogRecord rec;
  rec.lsn = 2;
  rec.type = LogType::kCommit;
  std::string payload;
  rec.EncodeTo(&payload);
  // lsn, prev_lsn and txn are one-byte varints here, so byte 3 is the type.
  ASSERT_EQ(payload[3], static_cast<char>(LogType::kCommit));
  for (int type : {0, 6, 9, 255}) {
    SCOPED_TRACE("type byte " + std::to_string(type));
    payload[3] = static_cast<char>(type);
    LogRecord out;
    EXPECT_FALSE(LogRecord::DecodeFrom(Slice(payload), &out));
    ExpectDecodingStopsAt(payload);
  }
}

// The same for the op byte of an update record.
TEST(LogRecordFuzzTest, UnknownUpdateOpByteEndsDecoding) {
  LogRecord rec = MakeUpdate(1, 2, 3, "old", "new");
  rec.lsn = 2;
  std::string payload;
  rec.EncodeTo(&payload);
  // lsn, prev_lsn, txn, type: byte 4 is the op.
  ASSERT_EQ(payload[4], static_cast<char>(UpdateOp::kUpdate));
  for (int op : {0, 4, 255}) {
    SCOPED_TRACE("op byte " + std::to_string(op));
    payload[4] = static_cast<char>(op);
    LogRecord out;
    EXPECT_FALSE(LogRecord::DecodeFrom(Slice(payload), &out));
    ExpectDecodingStopsAt(payload);
  }
}

}  // namespace
}  // namespace tendax
