// Additional database-level coverage: catalog persistence, WAL group
// commit, page allocation recovery, table discovery.

#include <gtest/gtest.h>

#include "db/database.h"
#include "db/query.h"
#include "util/coding.h"

namespace tendax {
namespace {

Schema TwoCol() {
  return Schema(
      {{"id", ColumnType::kUint64}, {"name", ColumnType::kString}});
}

TEST(CatalogPersistenceTest, TablesSurviveReopenWithSchemas) {
  auto disk = std::make_shared<InMemoryDiskManager>();
  auto log = std::make_shared<InMemoryLogStorage>();
  {
    DatabaseOptions options;
    options.disk = disk;
    options.log_storage = log;
    auto db = *Database::Open(std::move(options));
    ASSERT_TRUE(db->CreateTable("alpha", TwoCol()).ok());
    ASSERT_TRUE(db
                    ->CreateTable("beta",
                                  Schema({{"x", ColumnType::kDouble},
                                          {"y", ColumnType::kBool},
                                          {"z", ColumnType::kInt64}}))
                    .ok());
  }
  DatabaseOptions options;
  options.disk = disk;
  options.log_storage = log;
  auto db = *Database::Open(std::move(options));
  auto names = db->catalog()->TableNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "beta");
  auto beta = db->GetTable("beta");
  ASSERT_TRUE(beta.ok());
  EXPECT_EQ((*beta)->schema().num_columns(), 3u);
  EXPECT_EQ((*beta)->schema().column(0).type, ColumnType::kDouble);
  // Ids must not be reused after reopen.
  auto gamma = db->CreateTable("gamma", TwoCol());
  ASSERT_TRUE(gamma.ok());
  EXPECT_NE((*gamma)->table_id(), (*beta)->table_id());
}

TEST(SchemaSerializationTest, RoundTripAndErrors) {
  Schema schema({{"a", ColumnType::kUint64},
                 {"b", ColumnType::kString},
                 {"c", ColumnType::kBool}});
  auto parsed = ParseSchema(SerializeSchema(schema));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_columns(), 3u);
  EXPECT_EQ(parsed->column(1).name, "b");
  EXPECT_EQ(parsed->column(2).type, ColumnType::kBool);
  EXPECT_TRUE(ParseSchema("broken").status().IsCorruption());
  EXPECT_TRUE(ParseSchema("a:MYSTERY").status().IsCorruption());
  // Empty schema round-trips (recovery stubs use it).
  EXPECT_TRUE(ParseSchema("").ok());
}

TEST(WalGroupCommitTest, FlushCoversEverythingBuffered) {
  Wal wal(std::make_shared<InMemoryLogStorage>());
  std::vector<Lsn> lsns;
  for (int i = 0; i < 10; ++i) {
    LogRecord rec;
    rec.type = LogType::kBegin;
    rec.txn = TxnId(i + 1);
    lsns.push_back(wal.Append(&rec));
  }
  EXPECT_EQ(wal.flushed_lsn(), 0u);
  // Flushing up to the 3rd record group-commits all ten.
  ASSERT_TRUE(wal.Flush(lsns[2]).ok());
  EXPECT_EQ(wal.flushed_lsn(), lsns.back());
  // A later flush below the watermark is a no-op.
  ASSERT_TRUE(wal.Flush(lsns[0]).ok());
  EXPECT_EQ(wal.flushed_lsn(), lsns.back());
}

TEST(BufferPoolExtrasTest, EnsureAllocatedUpToGrowsTheFile) {
  InMemoryDiskManager disk;
  BufferPool pool(8, &disk);
  EXPECT_EQ(disk.NumPages(), 0u);
  ASSERT_TRUE(pool.EnsureAllocatedUpTo(5).ok());
  EXPECT_EQ(disk.NumPages(), 6u);
  // Idempotent.
  ASSERT_TRUE(pool.EnsureAllocatedUpTo(3).ok());
  EXPECT_EQ(disk.NumPages(), 6u);
  auto page = pool.FetchPage(5);
  ASSERT_TRUE(page.ok());
  pool.Unpin(*page, false);
}

// Files written while TextStore kept page-based B+tree indexes still hold
// those pages: table id with the high bit set, no slot directory. Table
// discovery and the integrity sweep must skip them, not adopt them.
TEST(TableDiscoveryTest, MixedPagesGroupCorrectly) {
  auto disk = std::make_shared<InMemoryDiskManager>();
  auto log = std::make_shared<InMemoryLogStorage>();
  uint64_t rows = 300;
  {
    DatabaseOptions options;
    options.disk = disk;
    options.log_storage = log;
    options.buffer_pool_pages = 128;
    auto db = *Database::Open(std::move(options));
    auto table = *db->CreateTable("data", TwoCol());
    auto insert = [&](uint64_t from, uint64_t to) {
      return db->txns()->RunInTxn(UserId(1), [&](Transaction* txn) -> Status {
        for (uint64_t i = from; i < to; ++i) {
          auto r = table->Insert(txn, Record({i, std::string(40, 'p')}));
          if (!r.ok()) return r.status();
        }
        return Status::OK();
      });
    };
    // Heap pages on both sides of a leaked index leaf, laid out as the old
    // tree wrote it: marker, leaf flag, one entry, no next leaf.
    ASSERT_TRUE(insert(0, rows / 2).ok());
    {
      auto page = db->buffer_pool()->NewPage();
      ASSERT_TRUE(page.ok());
      PageGuard guard(db->buffer_pool(), *page);
      char* p = guard->payload();
      EncodeFixed32(p, 0x80000000u | 1);  // index id 1
      p[4] = 1;                           // leaf
      EncodeFixed16(p + 6, 1);            // one entry
      EncodeFixed32(p + 8, kInvalidPageId);
      EncodeFixed64(p + 12, 7);           // key
      EncodeFixed64(p + 20, 7u << 16);    // packed rid
      guard.MarkDirty();
    }
    ASSERT_TRUE(insert(rows / 2, rows).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  DatabaseOptions options;
  options.disk = disk;
  options.log_storage = log;
  options.buffer_pool_pages = 128;
  auto db = *Database::Open(std::move(options));
  auto table = *db->GetTable("data");
  EXPECT_EQ(*table->Count(), rows);  // the index page was not misadopted
  EXPECT_TRUE(db->CheckIntegrity().ok());
  // And the data is queryable.
  auto n = TableQuery(table)
               .Where("id", CompareOp::kLt, uint64_t{10})
               .Count();
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 10u);
}

TEST(DatabaseDestructorTest, FlushesOnCleanShutdown) {
  auto disk = std::make_shared<InMemoryDiskManager>();
  auto log = std::make_shared<InMemoryLogStorage>();
  RecordId rid;
  {
    DatabaseOptions options;
    options.disk = disk;
    options.log_storage = log;
    auto db = *Database::Open(std::move(options));
    auto table = *db->CreateTable("t", TwoCol());
    ASSERT_TRUE(db->txns()
                    ->RunInTxn(UserId(1),
                               [&](Transaction* txn) -> Status {
                                 auto r = table->Insert(
                                     txn, Record({uint64_t{1},
                                                  std::string("bye")}));
                                 if (!r.ok()) return r.status();
                                 rid = *r;
                                 return Status::OK();
                               })
                    .ok());
    // No crash, no checkpoint: the destructor flushes.
  }
  DatabaseOptions options;
  options.disk = disk;
  options.log_storage = log;
  auto db = *Database::Open(std::move(options));
  auto table = *db->GetTable("t");
  auto rec = table->Get(rid);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->GetString(1), "bye");
}

}  // namespace
}  // namespace tendax
