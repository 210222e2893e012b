// Unit tests for the relational substrate: records, slotted pages, heap
// tables, catalog and the Database facade.

#include <gtest/gtest.h>

#include "db/database.h"
#include "db/record.h"
#include "db/slotted_page.h"
#include "util/random.h"

namespace tendax {
namespace {

Schema TestSchema() {
  return Schema({{"id", ColumnType::kUint64},
                 {"name", ColumnType::kString},
                 {"score", ColumnType::kDouble},
                 {"active", ColumnType::kBool}});
}

// ---------- Record ----------

TEST(RecordTest, EncodeDecodeRoundTrip) {
  Record rec({uint64_t{7}, std::string("tendax"), 2.5, true,
              int64_t{-12}, std::monostate{}});
  auto decoded = Record::Decode(rec.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, rec);
}

TEST(RecordTest, AccessorsAndToString) {
  Record rec({uint64_t{7}, std::string("x"), 1.0, false});
  EXPECT_EQ(rec.GetUint(0), 7u);
  EXPECT_EQ(rec.GetString(1), "x");
  EXPECT_DOUBLE_EQ(rec.GetDouble(2), 1.0);
  EXPECT_FALSE(rec.GetBool(3));
  EXPECT_EQ(rec.ToString(), "[7, 'x', 1.000000, false]");
}

TEST(RecordTest, SchemaConformance) {
  Schema schema = TestSchema();
  Record good({uint64_t{1}, std::string("a"), 0.5, true});
  EXPECT_TRUE(good.ConformsTo(schema).ok());
  Record nulls({std::monostate{}, std::monostate{}, std::monostate{},
                std::monostate{}});
  EXPECT_TRUE(nulls.ConformsTo(schema).ok());
  Record wrong_arity({uint64_t{1}});
  EXPECT_TRUE(wrong_arity.ConformsTo(schema).IsInvalidArgument());
  Record wrong_type({std::string("a"), std::string("a"), 0.5, true});
  EXPECT_TRUE(wrong_type.ConformsTo(schema).IsInvalidArgument());
}

TEST(RecordTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(Record::Decode(Slice("\x05garbage")).ok());
  // Unknown tag.
  std::string buf;
  buf.push_back(1);
  buf.push_back(99);
  EXPECT_FALSE(Record::Decode(buf).ok());
}

TEST(RecordTest, NegativeAndExtremeInts) {
  Record rec({int64_t{INT64_MIN}, int64_t{INT64_MAX}, int64_t{-1},
              uint64_t{UINT64_MAX}});
  auto decoded = Record::Decode(rec.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, rec);
}

// ---------- SlottedPage ----------

class SlottedPageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sp_ = std::make_unique<SlottedPage>(&page_);
    sp_->Init(42);
  }
  Page page_;
  std::unique_ptr<SlottedPage> sp_;
};

TEST_F(SlottedPageTest, InitAndIdentity) {
  EXPECT_TRUE(sp_->IsInitialized());
  EXPECT_EQ(sp_->table_id(), 42u);
  EXPECT_EQ(sp_->num_slots(), 0u);
  Page fresh;
  EXPECT_FALSE(SlottedPage(&fresh).IsInitialized());
}

TEST_F(SlottedPageTest, InsertGetDelete) {
  auto s0 = sp_->Insert(Slice("alpha"));
  auto s1 = sp_->Insert(Slice("bravo"));
  ASSERT_TRUE(s0.ok());
  ASSERT_TRUE(s1.ok());
  EXPECT_NE(*s0, *s1);
  EXPECT_EQ(sp_->Get(*s0)->ToString(), "alpha");
  EXPECT_EQ(sp_->Get(*s1)->ToString(), "bravo");
  ASSERT_TRUE(sp_->Delete(*s0).ok());
  EXPECT_TRUE(sp_->Get(*s0).status().IsNotFound());
  EXPECT_FALSE(sp_->IsLive(*s0));
  EXPECT_TRUE(sp_->IsLive(*s1));
  // Deleting twice fails.
  EXPECT_TRUE(sp_->Delete(*s0).IsNotFound());
}

TEST_F(SlottedPageTest, SlotReuseAfterDelete) {
  auto s0 = sp_->Insert(Slice("one"));
  ASSERT_TRUE(sp_->Delete(*s0).ok());
  auto s1 = sp_->Insert(Slice("two"));
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(*s1, *s0);  // slot id recycled
}

TEST_F(SlottedPageTest, UpdateInPlaceAndGrow) {
  auto s = sp_->Insert(Slice("0123456789"));
  ASSERT_TRUE(sp_->Update(*s, Slice("short")).ok());
  EXPECT_EQ(sp_->Get(*s)->ToString(), "short");
  ASSERT_TRUE(sp_->Update(*s, Slice("a much longer payload")).ok());
  EXPECT_EQ(sp_->Get(*s)->ToString(), "a much longer payload");
}

TEST_F(SlottedPageTest, FillsUpAndCompacts) {
  std::string payload(100, 'x');
  std::vector<SlotId> slots;
  while (true) {
    auto s = sp_->Insert(payload);
    if (!s.ok()) {
      EXPECT_TRUE(s.status().IsOutOfRange());
      break;
    }
    slots.push_back(*s);
  }
  EXPECT_GT(slots.size(), 30u);
  // Delete every other record, then a larger record must fit again thanks
  // to compaction.
  for (size_t i = 0; i < slots.size(); i += 2) {
    ASSERT_TRUE(sp_->Delete(slots[i]).ok());
  }
  std::string bigger(150, 'y');
  auto s = sp_->Insert(bigger);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(sp_->Get(*s)->ToString(), bigger);
  // Survivors intact after compaction.
  for (size_t i = 1; i < slots.size(); i += 2) {
    EXPECT_EQ(sp_->Get(slots[i])->ToString(), payload);
  }
}

TEST_F(SlottedPageTest, InsertAtExactSlotForReplay) {
  ASSERT_TRUE(sp_->InsertAt(5, Slice("replayed")).ok());
  EXPECT_EQ(sp_->num_slots(), 6u);
  EXPECT_EQ(sp_->Get(5)->ToString(), "replayed");
  for (SlotId s = 0; s < 5; ++s) EXPECT_FALSE(sp_->IsLive(s));
  // Occupied slot is rejected.
  EXPECT_TRUE(sp_->InsertAt(5, Slice("again")).IsAlreadyExists());
  // Earlier holes are usable.
  ASSERT_TRUE(sp_->InsertAt(2, Slice("hole")).ok());
  EXPECT_EQ(sp_->Get(2)->ToString(), "hole");
}

TEST_F(SlottedPageTest, RejectsOversizeRecord) {
  std::string huge(SlottedPage::kMaxRecordSize + 1, 'z');
  EXPECT_TRUE(sp_->Insert(huge).status().IsInvalidArgument());
}

// ---------- HeapTable via Database ----------

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.buffer_pool_pages = 64;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
  }

  Record Row(uint64_t id, const std::string& name) {
    return Record({id, name, 0.5, true});
  }

  std::unique_ptr<Database> db_;
};

TEST_F(DatabaseTest, CreateAndLookupTables) {
  auto t = db_->CreateTable("docs", TestSchema());
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ((*t)->name(), "docs");
  EXPECT_TRUE(db_->CreateTable("docs", TestSchema()).status()
                  .IsAlreadyExists());
  EXPECT_TRUE(db_->GetTable("docs").ok());
  EXPECT_TRUE(db_->GetTable("nope").status().IsNotFound());
  auto ensured = db_->EnsureTable("docs", TestSchema());
  ASSERT_TRUE(ensured.ok());
  EXPECT_EQ(*ensured, *t);
}

TEST_F(DatabaseTest, InsertGetUpdateDelete) {
  auto t = db_->CreateTable("docs", TestSchema());
  ASSERT_TRUE(t.ok());
  HeapTable* table = *t;

  RecordId rid;
  ASSERT_TRUE(db_->txns()
                  ->RunInTxn(UserId(1),
                             [&](Transaction* txn) -> Status {
                               auto r = table->Insert(txn, Row(1, "a"));
                               if (!r.ok()) return r.status();
                               rid = *r;
                               return Status::OK();
                             })
                  .ok());
  auto got = table->Get(rid);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->GetString(1), "a");

  ASSERT_TRUE(db_->txns()
                  ->RunInTxn(UserId(1),
                             [&](Transaction* txn) -> Status {
                               auto r = table->Update(txn, rid, Row(1, "b"));
                               if (!r.ok()) return r.status();
                               rid = *r;
                               return Status::OK();
                             })
                  .ok());
  EXPECT_EQ(table->Get(rid)->GetString(1), "b");

  ASSERT_TRUE(db_->txns()
                  ->RunInTxn(UserId(1),
                             [&](Transaction* txn) {
                               return table->Delete(txn, rid);
                             })
                  .ok());
  EXPECT_TRUE(table->Get(rid).status().IsNotFound());
}

TEST_F(DatabaseTest, ScanVisitsAllRowsInOrder) {
  auto t = db_->CreateTable("docs", TestSchema());
  HeapTable* table = *t;
  constexpr int kRows = 500;  // spans multiple pages
  ASSERT_TRUE(db_->txns()
                  ->RunInTxn(UserId(1),
                             [&](Transaction* txn) -> Status {
                               for (int i = 0; i < kRows; ++i) {
                                 auto r = table->Insert(
                                     txn, Row(i, "row" + std::to_string(i)));
                                 if (!r.ok()) return r.status();
                               }
                               return Status::OK();
                             })
                  .ok());
  uint64_t seen = 0;
  ASSERT_TRUE(table
                  ->Scan([&](RecordId, const Record& rec) {
                    EXPECT_EQ(rec.GetString(1),
                              "row" + std::to_string(rec.GetUint(0)));
                    ++seen;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(seen, static_cast<uint64_t>(kRows));
  EXPECT_EQ(*table->Count(), static_cast<uint64_t>(kRows));
  EXPECT_GT(table->pages().size(), 1u);
}

TEST_F(DatabaseTest, AbortRollsBackAllOps) {
  auto t = db_->CreateTable("docs", TestSchema());
  HeapTable* table = *t;
  RecordId keep;
  ASSERT_TRUE(db_->txns()
                  ->RunInTxn(UserId(1),
                             [&](Transaction* txn) -> Status {
                               auto r = table->Insert(txn, Row(1, "keep"));
                               if (!r.ok()) return r.status();
                               keep = *r;
                               return Status::OK();
                             })
                  .ok());

  Transaction* txn = db_->txns()->Begin(UserId(2));
  ASSERT_TRUE(table->Insert(txn, Row(2, "junk")).ok());
  ASSERT_TRUE(table->Update(txn, keep, Row(1, "mutated")).ok());
  ASSERT_TRUE(db_->txns()->Abort(txn).ok());

  EXPECT_EQ(*table->Count(), 1u);
  EXPECT_EQ(table->Get(keep)->GetString(1), "keep");
}

TEST_F(DatabaseTest, AbortRestoresDeletedRow) {
  auto t = db_->CreateTable("docs", TestSchema());
  HeapTable* table = *t;
  RecordId rid;
  ASSERT_TRUE(db_->txns()
                  ->RunInTxn(UserId(1),
                             [&](Transaction* txn) -> Status {
                               auto r = table->Insert(txn, Row(9, "victim"));
                               if (!r.ok()) return r.status();
                               rid = *r;
                               return Status::OK();
                             })
                  .ok());
  Transaction* txn = db_->txns()->Begin(UserId(2));
  ASSERT_TRUE(table->Delete(txn, rid).ok());
  EXPECT_TRUE(table->Get(rid).status().IsNotFound());
  ASSERT_TRUE(db_->txns()->Abort(txn).ok());
  EXPECT_EQ(table->Get(rid)->GetString(1), "victim");
}

TEST_F(DatabaseTest, RecordMovesWhenItOutgrowsItsPage) {
  auto t = db_->CreateTable("docs", TestSchema());
  HeapTable* table = *t;
  // Fill one page nearly full, then grow one record beyond its page.
  std::vector<RecordId> rids;
  ASSERT_TRUE(db_->txns()
                  ->RunInTxn(UserId(1),
                             [&](Transaction* txn) -> Status {
                               for (int i = 0; i < 30; ++i) {
                                 auto r = table->Insert(
                                     txn, Record({uint64_t{0}, std::string(100, 'x'),
                                                  0.0, false}));
                                 if (!r.ok()) return r.status();
                                 rids.push_back(*r);
                               }
                               return Status::OK();
                             })
                  .ok());
  RecordId rid = rids[0];
  Record grown({uint64_t{0}, std::string(3000, 'y'), 0.0, false});
  RecordId new_rid;
  ASSERT_TRUE(db_->txns()
                  ->RunInTxn(UserId(1),
                             [&](Transaction* txn) -> Status {
                               auto r = table->Update(txn, rid, grown);
                               if (!r.ok()) return r.status();
                               new_rid = *r;
                               return Status::OK();
                             })
                  .ok());
  EXPECT_NE(new_rid.Pack(), rid.Pack());
  EXPECT_EQ(table->Get(new_rid)->GetString(1), std::string(3000, 'y'));
  EXPECT_TRUE(table->Get(rid).status().IsNotFound());
}

// ---------- Crash recovery ----------

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_ = std::make_shared<InMemoryDiskManager>();
    log_ = std::make_shared<InMemoryLogStorage>();
    OpenDb();
  }

  void OpenDb() {
    DatabaseOptions options;
    options.buffer_pool_pages = 64;
    options.disk = disk_;
    options.log_storage = log_;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
  }

  void CrashAndReopen() {
    db_->SimulateCrash();
    db_.reset();  // note: destructor flushes nothing useful; pages dropped
    OpenDb();
  }

  void CloseAndReopen() {
    db_.reset();
    OpenDb();
  }

  std::shared_ptr<InMemoryDiskManager> disk_;
  std::shared_ptr<InMemoryLogStorage> log_;
  std::unique_ptr<Database> db_;
};

TEST_F(RecoveryTest, CommittedDataSurvivesCrash) {
  auto t = db_->CreateTable("docs", TestSchema());
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(db_->txns()
                  ->RunInTxn(UserId(1),
                             [&](Transaction* txn) -> Status {
                               for (int i = 0; i < 100; ++i) {
                                 auto r = (*t)->Insert(
                                     txn, Record({uint64_t(i),
                                                  "doc" + std::to_string(i),
                                                  1.0, true}));
                                 if (!r.ok()) return r.status();
                               }
                               return Status::OK();
                             })
                  .ok());
  CrashAndReopen();

  auto table = db_->GetTable("docs");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(*(*table)->Count(), 100u);
  EXPECT_GE(db_->recovery_stats().winners, 1u);
}

TEST_F(RecoveryTest, UncommittedDataRolledBackAfterCrash) {
  auto t = db_->CreateTable("docs", TestSchema());
  ASSERT_TRUE(db_->txns()
                  ->RunInTxn(UserId(1),
                             [&](Transaction* txn) {
                               return (*t)
                                   ->Insert(txn, Record({uint64_t{1},
                                                         std::string("committed"),
                                                         1.0, true}))
                                   .status();
                             })
                  .ok());
  // A transaction that never commits before the crash.
  Transaction* loser = db_->txns()->Begin(UserId(2));
  ASSERT_TRUE((*t)->Insert(loser, Record({uint64_t{2}, std::string("lost"),
                                          0.0, false}))
                  .ok());
  ASSERT_TRUE(db_->wal()->FlushAll().ok());  // loser's updates are durable

  CrashAndReopen();

  auto table = db_->GetTable("docs");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(*(*table)->Count(), 1u);
  EXPECT_EQ(db_->recovery_stats().losers, 1u);
  EXPECT_GE(db_->recovery_stats().undo_applied, 1u);
  bool found_lost = false;
  ASSERT_TRUE((*table)
                  ->Scan([&](RecordId, const Record& rec) {
                    if (rec.GetString(1) == "lost") found_lost = true;
                    return true;
                  })
                  .ok());
  EXPECT_FALSE(found_lost);
}

TEST_F(RecoveryTest, UpdatesAndDeletesReplayCorrectly) {
  auto t = db_->CreateTable("docs", TestSchema());
  RecordId a, b;
  ASSERT_TRUE(db_->txns()
                  ->RunInTxn(UserId(1),
                             [&](Transaction* txn) -> Status {
                               auto ra = (*t)->Insert(
                                   txn, Record({uint64_t{1}, std::string("a"),
                                                1.0, true}));
                               auto rb = (*t)->Insert(
                                   txn, Record({uint64_t{2}, std::string("b"),
                                                1.0, true}));
                               if (!ra.ok()) return ra.status();
                               if (!rb.ok()) return rb.status();
                               a = *ra;
                               b = *rb;
                               return Status::OK();
                             })
                  .ok());
  ASSERT_TRUE(db_->txns()
                  ->RunInTxn(UserId(1),
                             [&](Transaction* txn) -> Status {
                               auto r = (*t)->Update(
                                   txn, a, Record({uint64_t{1},
                                                   std::string("a2"), 2.0,
                                                   false}));
                               if (!r.ok()) return r.status();
                               return (*t)->Delete(txn, b);
                             })
                  .ok());
  CrashAndReopen();

  auto table = db_->GetTable("docs");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(*(*table)->Count(), 1u);
  auto got = (*table)->Get(a);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->GetString(1), "a2");
}

TEST_F(RecoveryTest, CheckpointTruncatesLogAndPreservesData) {
  auto t = db_->CreateTable("docs", TestSchema());
  ASSERT_TRUE(db_->txns()
                  ->RunInTxn(UserId(1),
                             [&](Transaction* txn) {
                               return (*t)
                                   ->Insert(txn,
                                            Record({uint64_t{1},
                                                    std::string("persisted"),
                                                    1.0, true}))
                                   .status();
                             })
                  .ok());
  // The first checkpoint seals the segment holding the insert; the second
  // deletes it, leaving only its own begin/end pair.
  ASSERT_TRUE(db_->Checkpoint().ok());
  ASSERT_TRUE(db_->Checkpoint().ok());
  std::string log_bytes;
  ASSERT_TRUE(log_->ReadAll(&log_bytes).ok());
  EXPECT_LT(log_bytes.size(), 100u);

  CrashAndReopen();
  auto table = db_->GetTable("docs");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(*(*table)->Count(), 1u);
}

TEST_F(RecoveryTest, RepeatedCrashesAreIdempotent) {
  auto t = db_->CreateTable("docs", TestSchema());
  ASSERT_TRUE(db_->txns()
                  ->RunInTxn(UserId(1),
                             [&](Transaction* txn) {
                               return (*t)
                                   ->Insert(txn, Record({uint64_t{1},
                                                         std::string("x"),
                                                         1.0, true}))
                                   .status();
                             })
                  .ok());
  for (int i = 0; i < 3; ++i) {
    CrashAndReopen();
    auto table = db_->GetTable("docs");
    ASSERT_TRUE(table.ok());
    EXPECT_EQ(*(*table)->Count(), 1u) << "crash iteration " << i;
  }
}

// A reopen over an empty log starts a fresh Wal whose numbering would
// restart at 1, below the LSNs the pages carry; redo then skips every later
// record as "already on the page" and loses committed work after a crash.
TEST_F(RecoveryTest, LsnsContinueAcrossReopenOfEmptyLog) {
  auto t = db_->CreateTable("docs", TestSchema());
  ASSERT_TRUE(t.ok());
  std::vector<RecordId> rids;
  ASSERT_TRUE(db_->txns()
                  ->RunInTxn(UserId(1),
                             [&](Transaction* txn) -> Status {
                               for (int i = 0; i < 50; ++i) {
                                 auto r = (*t)->Insert(
                                     txn, Record({uint64_t(i),
                                                  "row" + std::to_string(i),
                                                  1.0, true}));
                                 if (!r.ok()) return r.status();
                                 rids.push_back(*r);
                               }
                               return Status::OK();
                             })
                  .ok());
  // Two clean closes: whatever the first leaves, the second reopen finds
  // the log empty.
  CloseAndReopen();
  CloseAndReopen();
  EXPECT_EQ(db_->recovery_stats().records_scanned, 0u);

  auto table = db_->GetTable("docs");
  ASSERT_TRUE(table.ok());
  RecordId updated;
  ASSERT_TRUE(db_->txns()
                  ->RunInTxn(UserId(1),
                             [&](Transaction* txn) -> Status {
                               auto r = (*table)->Update(
                                   txn, rids[7],
                                   Record({uint64_t{7}, std::string("updated"),
                                           2.0, false}));
                               if (!r.ok()) return r.status();
                               updated = *r;
                               return Status::OK();
                             })
                  .ok());
  CrashAndReopen();

  table = db_->GetTable("docs");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(*(*table)->Count(), 50u);
  auto got = (*table)->Get(updated);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->GetString(1), "updated") << "a committed update was lost";
  EXPECT_TRUE(db_->CheckIntegrity().ok());
}

}  // namespace
}  // namespace tendax
