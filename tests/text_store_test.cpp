// Tests for the core TeNDaX contribution: text as a native database type.

#include <gtest/gtest.h>

#include <thread>

#include "text/text_store.h"
#include "text/utf8.h"
#include "util/random.h"

namespace tendax {
namespace {

// ---------- UTF-8 ----------

TEST(Utf8Test, RoundTripAsciiAndMultibyte) {
  std::string text = "a\xC3\xA9\xE2\x82\xAC\xF0\x9F\x98\x80z";  // aé€😀z
  auto cps = DecodeUtf8(text);
  ASSERT_EQ(cps.size(), 5u);
  EXPECT_EQ(cps[0], 'a');
  EXPECT_EQ(cps[1], 0xE9u);
  EXPECT_EQ(cps[2], 0x20ACu);
  EXPECT_EQ(cps[3], 0x1F600u);
  EXPECT_EQ(cps[4], 'z');
  EXPECT_EQ(EncodeUtf8(cps), text);
}

TEST(Utf8Test, InvalidBytesBecomeReplacement) {
  std::string bad = "a\xFFz";
  auto cps = DecodeUtf8(bad);
  ASSERT_EQ(cps.size(), 3u);
  EXPECT_EQ(cps[1], 0xFFFDu);
  // Truncated multi-byte at end.
  auto cps2 = DecodeUtf8("ab\xE2\x82");
  ASSERT_EQ(cps2.size(), 3u);
  EXPECT_EQ(cps2[2], 0xFFFDu);
  // Overlong encoding rejected.
  auto cps3 = DecodeUtf8("\xC0\x80");
  EXPECT_EQ(cps3[0], 0xFFFDu);
}

// ---------- TextStore ----------

class TextStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.buffer_pool_pages = 512;
    options.clock = std::make_shared<ManualClock>();
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    store_ = std::make_unique<TextStore>(db_.get());
    ASSERT_TRUE(store_->Init().ok());
    auto doc = store_->CreateDocument(alice_, "draft.txt");
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    doc_ = *doc;
  }

  UserId alice_{1};
  UserId bob_{2};
  std::unique_ptr<Database> db_;
  std::unique_ptr<TextStore> store_;
  DocumentId doc_;
};

TEST_F(TextStoreTest, EmptyDocument) {
  EXPECT_EQ(*store_->Text(doc_), "");
  EXPECT_EQ(*store_->Length(doc_), 0u);
  EXPECT_EQ(*store_->CurrentVersion(doc_), 0u);
}

TEST_F(TextStoreTest, TypeAndRead) {
  auto r = store_->InsertText(alice_, doc_, 0, "hello world");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->version, 1u);
  EXPECT_EQ(r->chars.size(), 11u);
  EXPECT_EQ(*store_->Text(doc_), "hello world");
  EXPECT_EQ(*store_->Length(doc_), 11u);
}

TEST_F(TextStoreTest, InsertAtPositions) {
  ASSERT_TRUE(store_->InsertText(alice_, doc_, 0, "ad").ok());
  ASSERT_TRUE(store_->InsertText(alice_, doc_, 1, "bc").ok());
  EXPECT_EQ(*store_->Text(doc_), "abcd");
  ASSERT_TRUE(store_->InsertText(alice_, doc_, 0, ">>").ok());
  EXPECT_EQ(*store_->Text(doc_), ">>abcd");
  ASSERT_TRUE(store_->InsertText(alice_, doc_, 6, "<<").ok());
  EXPECT_EQ(*store_->Text(doc_), ">>abcd<<");
}

TEST_F(TextStoreTest, InsertBeyondEndRejected) {
  auto r = store_->InsertText(alice_, doc_, 5, "x");
  EXPECT_TRUE(r.status().IsOutOfRange());
  EXPECT_EQ(*store_->CurrentVersion(doc_), 0u);  // nothing committed
}

TEST_F(TextStoreTest, DeleteRange) {
  ASSERT_TRUE(store_->InsertText(alice_, doc_, 0, "hello cruel world").ok());
  auto r = store_->DeleteRange(alice_, doc_, 5, 6);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*store_->Text(doc_), "hello world");
  EXPECT_EQ(*store_->Length(doc_), 11u);
  // Deleting past the end fails and changes nothing.
  EXPECT_TRUE(store_->DeleteRange(alice_, doc_, 8, 10).status()
                  .IsOutOfRange());
  EXPECT_EQ(*store_->Text(doc_), "hello world");
}

TEST_F(TextStoreTest, MultibyteTextSurvives) {
  std::string text = "gr\xC3\xBC\xC3\x9F dich \xF0\x9F\x98\x80";
  ASSERT_TRUE(store_->InsertText(alice_, doc_, 0, text).ok());
  EXPECT_EQ(*store_->Text(doc_), text);
  // Position arithmetic is in code points, not bytes.
  EXPECT_EQ(*store_->Length(doc_), DecodeUtf8(text).size());
}

TEST_F(TextStoreTest, CharLevelMetadataCaptured) {
  ASSERT_TRUE(store_->InsertText(alice_, doc_, 0, "ab").ok());
  ASSERT_TRUE(store_->InsertText(bob_, doc_, 2, "cd").ok());
  auto a = store_->CharAt(doc_, 0);
  auto c = store_->CharAt(doc_, 2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(a->author, alice_);
  EXPECT_EQ(c->author, bob_);
  EXPECT_EQ(a->inserted_version, 1u);
  EXPECT_EQ(c->inserted_version, 2u);
  EXPECT_EQ(a->deleted_version, 0u);
  EXPECT_GT(a->created, 0u);
  EXPECT_FALSE(a->src_doc.valid());  // typed, not pasted
}

TEST_F(TextStoreTest, DeletedCharsKeepTombstoneMetadata) {
  ASSERT_TRUE(store_->InsertText(alice_, doc_, 0, "abc").ok());
  auto del = store_->DeleteRange(bob_, doc_, 1, 1);
  ASSERT_TRUE(del.ok());
  auto info = store_->GetChar(doc_, del->chars[0]);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->deleted_version, 2u);
  EXPECT_EQ(info->deleted_by, bob_);
  EXPECT_EQ(info->cp, static_cast<uint32_t>('b'));
}

TEST_F(TextStoreTest, CopyPasteRecordsProvenance) {
  ASSERT_TRUE(store_->InsertText(alice_, doc_, 0, "source text").ok());
  auto other = store_->CreateDocument(bob_, "target.txt");
  ASSERT_TRUE(other.ok());

  auto copied = store_->Copy(bob_, doc_, 0, 6);
  ASSERT_TRUE(copied.ok());
  ASSERT_EQ(copied->size(), 6u);
  auto pasted = store_->Paste(bob_, *other, 0, *copied);
  ASSERT_TRUE(pasted.ok());
  EXPECT_EQ(*store_->Text(*other), "source");

  auto info = store_->CharAt(*other, 0);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->src_doc, doc_);
  EXPECT_TRUE(info->src_char.valid());
  // The source points at the original character in doc_.
  auto original = store_->GetChar(doc_, info->src_char);
  ASSERT_TRUE(original.ok());
  EXPECT_EQ(original->cp, static_cast<uint32_t>('s'));
}

TEST_F(TextStoreTest, TransitiveCopyKeepsOriginalSource) {
  ASSERT_TRUE(store_->InsertText(alice_, doc_, 0, "xy").ok());
  auto doc2 = store_->CreateDocument(bob_, "two");
  auto doc3 = store_->CreateDocument(bob_, "three");
  auto c1 = store_->Copy(bob_, doc_, 0, 2);
  ASSERT_TRUE(store_->Paste(bob_, *doc2, 0, *c1).ok());
  auto c2 = store_->Copy(bob_, *doc2, 0, 2);
  ASSERT_TRUE(store_->Paste(bob_, *doc3, 0, *c2).ok());
  // doc3's chars point at doc_ (the origin), not doc2.
  auto info = store_->CharAt(*doc3, 0);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->src_doc, doc_);
}

TEST_F(TextStoreTest, ExternalSourceTracked) {
  ASSERT_TRUE(store_
                  ->InsertText(alice_, doc_, 0, "imported",
                               "file://report.doc")
                  .ok());
  auto info = store_->CharAt(doc_, 3);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->src_external, "file://report.doc");
}

TEST_F(TextStoreTest, TimeTravelReadsEveryVersion) {
  ASSERT_TRUE(store_->InsertText(alice_, doc_, 0, "abc").ok());   // v1
  ASSERT_TRUE(store_->InsertText(alice_, doc_, 3, "def").ok());   // v2
  ASSERT_TRUE(store_->DeleteRange(alice_, doc_, 1, 2).ok());      // v3: a def
  ASSERT_TRUE(store_->InsertText(alice_, doc_, 1, "X").ok());     // v4

  EXPECT_EQ(*store_->TextAtVersion(doc_, 0), "");
  EXPECT_EQ(*store_->TextAtVersion(doc_, 1), "abc");
  EXPECT_EQ(*store_->TextAtVersion(doc_, 2), "abcdef");
  EXPECT_EQ(*store_->TextAtVersion(doc_, 3), "adef");
  EXPECT_EQ(*store_->TextAtVersion(doc_, 4), "aXdef");
  EXPECT_EQ(*store_->TextAtVersion(doc_, 99), *store_->Text(doc_));
}

TEST_F(TextStoreTest, DeleteCharsAndResurrect) {
  ASSERT_TRUE(store_->InsertText(alice_, doc_, 0, "undo me").ok());
  auto del = store_->DeleteRange(alice_, doc_, 0, 4);
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(*store_->Text(doc_), " me");
  auto res = store_->ResurrectChars(alice_, doc_, del->chars);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(*store_->Text(doc_), "undo me");
  // Resurrected chars are live again at their original positions.
  auto info = store_->CharAt(doc_, 0);
  EXPECT_EQ(info->deleted_version, 0u);
}

TEST_F(TextStoreTest, DeleteCharsById) {
  auto ins = store_->InsertText(alice_, doc_, 0, "abcdef");
  ASSERT_TRUE(ins.ok());
  // Delete chars 'b', 'd', 'f' by id (an undo of three scattered inserts).
  std::vector<CharId> victims = {ins->chars[1], ins->chars[3], ins->chars[5]};
  auto del = store_->DeleteChars(alice_, doc_, victims);
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(*store_->Text(doc_), "ace");
  // Deleting the same ids again is a no-op (already tombstoned).
  auto again = store_->DeleteChars(alice_, doc_, victims);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->chars.empty());
  EXPECT_EQ(*store_->Text(doc_), "ace");
}

TEST_F(TextStoreTest, TextRangeAndRangeInfo) {
  ASSERT_TRUE(store_->InsertText(alice_, doc_, 0, "0123456789").ok());
  EXPECT_EQ(*store_->TextRange(doc_, 2, 5), "23456");
  auto info = store_->RangeInfo(doc_, 2, 3);
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info->size(), 3u);
  EXPECT_EQ((*info)[0].cp, static_cast<uint32_t>('2'));
  EXPECT_TRUE(store_->TextRange(doc_, 8, 5).status().IsOutOfRange());
}

TEST_F(TextStoreTest, DocumentInfoAndRename) {
  auto info = store_->GetDocumentInfo(doc_);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->name, "draft.txt");
  EXPECT_EQ(info->creator, alice_);
  EXPECT_EQ(info->state, "draft");

  ASSERT_TRUE(store_->RenameDocument(alice_, doc_, "final.txt").ok());
  ASSERT_TRUE(store_->SetDocumentState(alice_, doc_, "published").ok());
  info = store_->GetDocumentInfo(doc_);
  EXPECT_EQ(info->name, "final.txt");
  EXPECT_EQ(info->state, "published");
  EXPECT_EQ(*store_->FindDocumentByName("final.txt"), doc_);
  EXPECT_TRUE(store_->FindDocumentByName("draft.txt").status().IsNotFound());
}

TEST_F(TextStoreTest, ListDocuments) {
  auto d2 = store_->CreateDocument(bob_, "b");
  auto d3 = store_->CreateDocument(bob_, "c");
  ASSERT_TRUE(d2.ok());
  ASSERT_TRUE(d3.ok());
  auto docs = store_->ListDocuments();
  EXPECT_EQ(docs.size(), 3u);
  EXPECT_EQ(docs[0], doc_);
}

TEST_F(TextStoreTest, VersionsAdvancePerEditTransaction) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store_->InsertText(alice_, doc_, 0, "x").ok());
  }
  EXPECT_EQ(*store_->CurrentVersion(doc_), 5u);
}

TEST_F(TextStoreTest, HandleReloadMatchesCache) {
  ASSERT_TRUE(store_->InsertText(alice_, doc_, 0, "persistent text").ok());
  ASSERT_TRUE(store_->DeleteRange(alice_, doc_, 4, 6).ok());
  std::string before = *store_->Text(doc_);
  store_->InvalidateHandle(doc_);
  EXPECT_EQ(*store_->Text(doc_), before);
  EXPECT_EQ(*store_->Length(doc_), before.size());

  // A resurrect revives chars in the cached chain in place; a reload from
  // the records must agree on text, chain order and every version.
  auto del = store_->DeleteRange(alice_, doc_, 2, 5);  // v3
  ASSERT_TRUE(del.ok());
  ASSERT_TRUE(store_->InsertText(alice_, doc_, 2, "XY").ok());  // v4
  std::vector<CharId> revive = {del->chars[4], del->chars[0], del->chars[2]};
  ASSERT_TRUE(store_->ResurrectChars(bob_, doc_, revive).ok());  // v5
  auto chain_ids = [&] {
    auto chain = store_->FullChain(doc_);
    std::vector<uint64_t> ids;
    for (const CharInfo& c : *chain) ids.push_back(c.id.value);
    return ids;
  };
  const std::string cached = *store_->Text(doc_);
  const std::vector<uint64_t> cached_chain = chain_ids();
  std::vector<std::string> cached_versions;
  for (Version v = 0; v <= 5; ++v) {
    cached_versions.push_back(*store_->TextAtVersion(doc_, v));
  }
  store_->InvalidateHandle(doc_);
  EXPECT_EQ(*store_->Text(doc_), cached);
  EXPECT_EQ(*store_->Length(doc_), cached.size());
  EXPECT_EQ(chain_ids(), cached_chain);
  for (Version v = 0; v <= 5; ++v) {
    EXPECT_EQ(*store_->TextAtVersion(doc_, v), cached_versions[v])
        << "version " << v;
  }
}

// Tombstoning by a user with a long id grows each record, so on full
// pages the updates move records. An abort must put every moved char's
// location back, or the next edit reads a slot the undo emptied.
TEST_F(TextStoreTest, AbortedEditRestoresMovedRecordLocations) {
  auto ins = store_->InsertText(alice_, doc_, 0, std::string(3000, 'm'));
  ASSERT_TRUE(ins.ok());
  auto other = store_->CreateDocument(bob_, "other.txt");
  ASSERT_TRUE(other.ok());
  auto foreign = store_->InsertText(bob_, *other, 0, "f");
  ASSERT_TRUE(foreign.ok());
  const UserId far_user(1u << 20);
  std::vector<CharId> victims(ins->chars.begin(), ins->chars.begin() + 200);
  std::vector<CharId> with_foreign = victims;
  with_foreign.push_back(foreign->chars[0]);
  EXPECT_TRUE(store_->DeleteChars(far_user, doc_, with_foreign)
                  .status()
                  .IsNotFound());
  EXPECT_EQ(store_->Length(doc_).value_or(0), 3000u);

  auto deleted = store_->DeleteChars(far_user, doc_, victims);
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  EXPECT_EQ(store_->Length(doc_).value_or(0), 2800u);
  for (CharId id : victims) {
    auto info = store_->GetChar(doc_, id);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(info->deleted_by, far_user);
  }
  store_->InvalidateHandle(doc_);
  EXPECT_EQ(store_->Text(doc_).value_or(""), std::string(2800, 'm'));
  EXPECT_TRUE(db_->CheckIntegrity().ok());
}

// A segment's text is filled when it is frozen, and only for the segments
// an edit touched since the last freeze. Every published snapshot must
// still read exactly the text its own chars spell — across clones, splits,
// tombstones, resurrection, purge and a reload from the records.
TEST_F(TextStoreTest, SnapshotTextMatchesItsCharsAtEveryVersion) {
  const std::vector<std::string> pieces = {
      "a", "word ", "\xC3\xA9", "\xE2\x82\xAC", "\xF0\x9F\x98\x80", "\n", "z"};
  Random rng(11);
  auto random_text = [&](size_t n) {
    std::string out;
    for (size_t i = 0; i < n; ++i) out += pieces[rng.Uniform(pieces.size())];
    return out;
  };
  std::vector<SnapshotRef> published;
  std::vector<std::vector<CharId>> deletions;  // candidates for resurrection
  for (int op = 0; op < 240; ++op) {
    const uint64_t len = store_->Length(doc_).value_or(0);
    const uint64_t kind = rng.Uniform(10);
    if (kind < 4 || len == 0) {
      // Mostly keystrokes; now and then a paste large enough to split.
      size_t n = rng.OneIn(6) ? 150 + rng.Uniform(400) : 1 + rng.Uniform(4);
      ASSERT_TRUE(store_->InsertText(alice_, doc_, rng.Uniform(len + 1),
                                     random_text(n))
                      .ok());
    } else if (kind < 7) {
      uint64_t n = 1 + rng.Uniform(std::min<uint64_t>(len, 300));
      auto gone =
          store_->DeleteRange(alice_, doc_, rng.Uniform(len - n + 1), n);
      ASSERT_TRUE(gone.ok()) << gone.status().ToString();
      deletions.push_back(gone->chars);
    } else if (kind == 7 && !deletions.empty()) {
      size_t pick = rng.Uniform(deletions.size());
      auto back = store_->ResurrectChars(bob_, doc_, deletions[pick]);
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      deletions.erase(deletions.begin() + pick);
    } else if (kind == 8) {
      auto version = store_->CurrentVersion(doc_);
      ASSERT_TRUE(version.ok());
      ASSERT_TRUE(store_->PurgeHistory(alice_, doc_, *version).ok());
      deletions.clear();  // purged tombstones cannot come back
    } else {
      store_->InvalidateHandle(doc_);  // the next read rebuilds the chain
    }
    auto snap = store_->AcquireSnapshot(doc_);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    published.push_back(*snap);
  }

  for (const SnapshotRef& snap : published) {
    auto chars = snap->LiveRange(0, snap->length());
    ASSERT_TRUE(chars.ok());
    std::vector<uint32_t> cps;
    for (const SnapChar& c : *chars) cps.push_back(c.cp);
    EXPECT_TRUE(snap->Text() == EncodeUtf8(cps))
        << "segment texts differ from the chars at version "
        << snap->version();
  }
}

TEST_F(TextStoreTest, CharIdFromAnotherDocumentIsRefused) {
  auto other = store_->CreateDocument(bob_, "other.txt");
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE(store_->InsertText(alice_, doc_, 0, "mine").ok());
  auto theirs = store_->InsertText(bob_, *other, 0, "theirs");
  ASSERT_TRUE(theirs.ok());
  auto gone = store_->DeleteRange(bob_, *other, 0, 1);
  ASSERT_TRUE(gone.ok());
  const CharId live = theirs->chars[1], dead = gone->chars[0];

  EXPECT_TRUE(store_->GetChar(doc_, live).status().IsNotFound());
  EXPECT_TRUE(store_->DeleteChars(alice_, doc_, {live}).status().IsNotFound());
  EXPECT_TRUE(
      store_->ResurrectChars(alice_, doc_, {dead}).status().IsNotFound());

  EXPECT_EQ(*store_->Text(doc_), "mine");
  EXPECT_EQ(*store_->CurrentVersion(doc_), 1u);
  EXPECT_EQ(*store_->Text(*other), "heirs");
  EXPECT_EQ(*store_->CurrentVersion(*other), 2u);
  EXPECT_EQ(store_->GetChar(*other, live)->deleted_version, 0u);
  EXPECT_EQ(store_->GetChar(*other, dead)->deleted_version, 2u);
}

TEST_F(TextStoreTest, ConcurrentEditorsOnSameDocumentSerialize) {
  constexpr int kThreads = 4;
  constexpr int kEditsPerThread = 25;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      UserId user(100 + t);
      for (int i = 0; i < kEditsPerThread; ++i) {
        auto r = store_->InsertText(user, doc_, 0, "a");
        if (!r.ok()) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(*store_->Length(doc_),
            static_cast<uint64_t>(kThreads * kEditsPerThread));
  EXPECT_EQ(*store_->CurrentVersion(doc_),
            static_cast<uint64_t>(kThreads * kEditsPerThread));
}

TEST_F(TextStoreTest, ConcurrentEditorsOnDistinctDocuments) {
  constexpr int kThreads = 4;
  constexpr int kEdits = 30;
  std::vector<DocumentId> docs;
  for (int t = 0; t < kThreads; ++t) {
    auto d = store_->CreateDocument(UserId(200 + t),
                                    "doc" + std::to_string(t));
    ASSERT_TRUE(d.ok());
    docs.push_back(*d);
  }
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kEdits; ++i) {
        auto r = store_->InsertText(UserId(200 + t), docs[t],
                                    i, std::string(1, 'a' + t));
        if (!r.ok()) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(*store_->Text(docs[t]), std::string(kEdits, 'a' + t));
  }
}

// ---------- persistence across crash ----------

TEST(TextStoreRecoveryTest, DocumentsSurviveCrash) {
  auto disk = std::make_shared<InMemoryDiskManager>();
  auto log = std::make_shared<InMemoryLogStorage>();
  DocumentId doc;
  std::string expected;
  {
    DatabaseOptions options;
    options.disk = disk;
    options.log_storage = log;
    options.buffer_pool_pages = 256;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    TextStore store(db->get());
    ASSERT_TRUE(store.Init().ok());
    auto d = store.CreateDocument(UserId(1), "crashdoc");
    ASSERT_TRUE(d.ok());
    doc = *d;
    ASSERT_TRUE(store.InsertText(UserId(1), doc, 0, "hello world").ok());
    ASSERT_TRUE(store.DeleteRange(UserId(1), doc, 0, 6).ok());
    ASSERT_TRUE(store.InsertText(UserId(1), doc, 5, "!").ok());
    expected = *store.Text(doc);
    (*db)->SimulateCrash();
  }
  DatabaseOptions options;
  options.disk = disk;
  options.log_storage = log;
  options.buffer_pool_pages = 256;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  TextStore store(db->get());
  ASSERT_TRUE(store.Init().ok());
  EXPECT_EQ(*store.Text(doc), expected);
  EXPECT_EQ(expected, "world!");
  // Metadata survived too.
  auto info = store.GetDocumentInfo(doc);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->name, "crashdoc");
  EXPECT_EQ(info->version, 3u);
}

// Purged char ids stay retired across a reopen: the provenance of a copy
// taken before the purge must never come to name a later keystroke.
TEST(TextStoreRecoveryTest, PurgedCharIdsAreNotReusedAfterReopen) {
  auto disk = std::make_shared<InMemoryDiskManager>();
  auto log = std::make_shared<InMemoryLogStorage>();
  auto open = [&] {
    DatabaseOptions options;
    options.disk = disk;
    options.log_storage = log;
    options.buffer_pool_pages = 256;
    return *Database::Open(options);
  };
  DocumentId doc, copy_doc;
  std::vector<CharId> typed;
  std::vector<PasteChar> clipboard;
  {
    auto db = open();
    TextStore store(db.get());
    ASSERT_TRUE(store.Init().ok());
    doc = *store.CreateDocument(UserId(1), "source");
    copy_doc = *store.CreateDocument(UserId(1), "copy");
    auto ins = store.InsertText(UserId(1), doc, 0, "abcdef");
    ASSERT_TRUE(ins.ok());
    typed = ins->chars;
    clipboard = *store.Copy(UserId(1), doc, 3, 3);  // "def"
    ASSERT_TRUE(store.DeleteRange(UserId(1), doc, 3, 3).ok());
    auto purged = store.PurgeHistory(UserId(1), doc, 2);
    ASSERT_TRUE(purged.ok());
    ASSERT_EQ(*purged, 3u);
  }
  auto db = open();
  TextStore store(db.get());
  ASSERT_TRUE(store.Init().ok());
  auto xyz = store.InsertText(UserId(1), doc, 3, "xyz");
  ASSERT_TRUE(xyz.ok());
  EXPECT_EQ(*store.Text(doc), "abcxyz");
  for (CharId id : xyz->chars) {
    for (CharId old : typed) EXPECT_NE(id.value, old.value) << "id reused";
  }
  // Pasting the old clipboard records the purged chars as its source; they
  // must stay unresolvable rather than turn into "xyz".
  auto pasted = store.Paste(UserId(1), copy_doc, 0, clipboard);
  ASSERT_TRUE(pasted.ok());
  for (CharId id : pasted->chars) {
    auto info = store.GetChar(copy_doc, id);
    ASSERT_TRUE(info.ok());
    EXPECT_TRUE(store.GetChar(doc, info->src_char).status().IsNotFound())
        << "src_char " << info->src_char.value << " resolves again";
  }
}

}  // namespace
}  // namespace tendax
