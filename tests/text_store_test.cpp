// Tests for the core TeNDaX contribution: text as a native database type.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <thread>

#include "core/tendax.h"
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

// ---------- VersionedCharList: the copy-on-write segment tree ----------

// The chain as a flat vector in physical order: the reference the tree is
// checked against after every step.
class FlatChain {
 public:
  // Index just past the live char at live_pos-1 (0 for live_pos == 0).
  size_t InsertionPoint(size_t live_pos) const {
    if (live_pos == 0) return 0;
    for (size_t i = 0; i < chars_.size(); ++i) {
      if (chars_[i].deleted == 0 && --live_pos == 0) return i + 1;
    }
    ADD_FAILURE() << "live position out of range";
    return chars_.size();
  }
  // The live chars, by their index in chars_.
  std::vector<size_t> LiveIndex() const {
    std::vector<size_t> out;
    for (size_t i = 0; i < chars_.size(); ++i) {
      if (chars_[i].deleted == 0) out.push_back(i);
    }
    return out;
  }
  std::string Text() const { return TextAt(UINT64_MAX); }
  std::string TextAt(Version version) const {
    std::string out;
    for (const SnapChar& c : chars_) {
      if (c.inserted <= version && (c.deleted == 0 || c.deleted > version)) {
        AppendUtf8(&out, c.cp);
      }
    }
    return out;
  }

  std::vector<SnapChar> chars_;
};

std::string Utf8Of(const std::vector<SnapChar>& chars) {
  std::string out;
  for (const SnapChar& c : chars) {
    if (c.deleted == 0) AppendUtf8(&out, c.cp);
  }
  return out;
}

// Walks a frozen tree: every node's aggregates equal what its subtree
// holds, children sit one level down, no node is empty or over the
// fanout bound, and each leaf's and bottom interior node's text is the
// UTF-8 of its live chars.
// Appends the leaves' chars in physical order to `chain`.
void CheckNode(const SnapNode& node, std::vector<SnapChar>* chain) {
  EXPECT_TRUE(node.frozen);
  EXPECT_GT(node.records, 0u) << "an empty node stayed linked";
  const size_t first = chain->size();
  if (node.height == 0) {
    const SnapSegment& seg = AsSegment(node);
    chain->insert(chain->end(), seg.chars.begin(), seg.chars.end());
    EXPECT_EQ(seg.text, Utf8Of(seg.chars));
    EXPECT_LE(seg.chars.size(), 256u);
  } else {
    const auto& children = AsInterior(node).children;
    EXPECT_FALSE(children.empty());
    EXPECT_LE(children.size(), 64u);
    for (const auto& child : children) {
      ASSERT_EQ(child->height + 1, node.height);
      CheckNode(*child, chain);
    }
  }
  size_t live = 0;
  std::string text;
  uint64_t min_id = UINT64_MAX, max_id = 0;
  for (size_t i = first; i < chain->size(); ++i) {
    const SnapChar& c = (*chain)[i];
    if (c.deleted == 0) {
      ++live;
      AppendUtf8(&text, c.cp);
    }
    min_id = std::min(min_id, c.id);
    max_id = std::max(max_id, c.id);
  }
  EXPECT_EQ(node.records, chain->size() - first);
  EXPECT_EQ(node.live, live);
  EXPECT_EQ(node.bytes, text.size());
  if (node.height == 1) {
    EXPECT_EQ(AsInterior(node).text, text);
  }
  EXPECT_EQ(node.min_id, min_id);
  EXPECT_EQ(node.max_id, max_id);
}

std::string TextOf(const std::shared_ptr<const SnapNode>& root) {
  DocumentInfo info;
  info.length = root == nullptr ? 0 : root->live;
  return CharListSnapshot(info, 0, root, nullptr).Text();
}

bool SameChar(const SnapChar& a, const SnapChar& b) {
  return a.id == b.id && a.cp == b.cp && a.inserted == b.inserted &&
         a.deleted == b.deleted && a.src_doc == b.src_doc &&
         a.src_char == b.src_char && a.src_external == b.src_external;
}

// Every node of the tree at `root`, by address.
void CollectNodes(const SnapNode* node, std::set<const SnapNode*>* out) {
  if (node == nullptr) return;
  out->insert(node);
  if (node->height == 0) return;
  for (const auto& child : AsInterior(*node).children) {
    CollectNodes(child.get(), out);
  }
}

// Seeded runs of keystrokes, pastes, range and batch tombstones, batch
// revivals, purges, rebuilds and freezes, grown past three tree levels
// (leaves, interior nodes, root). After every step the tree equals a flat
// reference chain; every frozen snapshot keeps returning its text.
TEST(CharTreeTest, MatchesFlatModelAcrossSeededEdits) {
  const std::vector<uint32_t> alphabet = {'a', 'b', ' ', ',', '\n', 0xE9,
                                          0x20AC, 0x1F600, 'Z', '7'};
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Random rng(seed);
    VersionedCharList tree;
    FlatChain flat;
    uint64_t next_id = 1;
    Version version = 0;
    Version floor = 0;  // versions below were purged
    uint32_t max_height = 0;
    std::vector<std::vector<uint64_t>> gestures;  // tombstoned id sets
    struct Kept {
      SnapshotRef snap;
      std::string text;
      Version version;
      std::string text_at_version;
    };
    std::vector<Kept> kept;
    for (int step = 0; step < 1000; ++step) {
      ++version;
      const size_t live = tree.live_size();
      const uint64_t kind = rng.Uniform(100);
      if (kind < 45 || live == 0) {
        // Keystrokes mostly; pastes large enough to split leaves and, with
        // several in one place, the interior node above them.
        size_t n = rng.OneIn(5) ? 100 + rng.Uniform(900) : 1 + rng.Uniform(3);
        std::vector<SnapChar> run(n);
        for (SnapChar& c : run) {
          c.id = next_id++;
          c.cp = alphabet[rng.Uniform(alphabet.size())];
          c.inserted = version;
          if (rng.OneIn(4)) {
            c.src_doc = 9;
            c.src_char = rng.Uniform(1000);
            c.src_external = "clip";
          }
        }
        size_t pos = rng.OneIn(3) ? live : rng.Uniform(live + 1);
        tree.InsertRun(pos, run);
        size_t at = flat.InsertionPoint(pos);
        flat.chars_.insert(flat.chars_.begin() + at, run.begin(), run.end());
      } else if (kind < 75) {
        size_t n =
            1 + rng.Uniform(std::min<size_t>(live, rng.OneIn(4) ? 600 : 4));
        size_t pos = rng.Uniform(live - n + 1);
        std::vector<uint64_t> want;
        size_t seen = 0;
        for (SnapChar& c : flat.chars_) {
          if (c.deleted != 0) continue;
          if (seen >= pos && seen < pos + n) {
            c.deleted = version;
            want.push_back(c.id);
          }
          ++seen;
        }
        ASSERT_EQ(tree.TombstoneRange(pos, n, version), want);
        gestures.push_back(want);
      } else if (kind < 83 && !gestures.empty()) {
        // Undo of a delete: revive one gesture's ids (some may be live
        // again or purged already) plus an id no char has.
        size_t pick = rng.Uniform(gestures.size());
        std::vector<uint64_t> ids = gestures[pick];
        gestures.erase(gestures.begin() + pick);
        ids.push_back(next_id + 1000);
        size_t want = 0;
        for (SnapChar& c : flat.chars_) {
          if (c.deleted != 0 &&
              std::find(ids.begin(), ids.end(), c.id) != ids.end()) {
            c.deleted = 0;
            ++want;
          }
        }
        ASSERT_EQ(tree.SetDeleted(ids, 0), want);
      } else if (kind < 91) {
        // Undo of an insert: tombstone a scattered id set.
        std::vector<uint64_t> ids;
        for (int i = 0; i < 6; ++i) ids.push_back(1 + rng.Uniform(next_id));
        size_t want = 0;
        for (SnapChar& c : flat.chars_) {
          if (c.deleted == 0 &&
              std::find(ids.begin(), ids.end(), c.id) != ids.end()) {
            c.deleted = version;
            ++want;
          }
        }
        ASSERT_EQ(tree.SetDeleted(ids, version), want);
        gestures.push_back(ids);
      } else if (kind < 93) {
        Version before = version - rng.Uniform(std::min<Version>(version, 50));
        size_t want = std::erase_if(flat.chars_, [&](const SnapChar& c) {
          return c.deleted != 0 && c.deleted <= before;
        });
        ASSERT_EQ(tree.PurgeBelow(before), want);
        if (want > 0) floor = std::max(floor, before);
      } else if (kind < 94) {
        tree.Rebuild(flat.chars_);
      }
      const std::vector<size_t> live_at = flat.LiveIndex();
      ASSERT_EQ(tree.live_size(), live_at.size());
      for (int probe = 0; probe < 3 && !live_at.empty(); ++probe) {
        size_t pos = rng.Uniform(live_at.size());
        ASSERT_TRUE(SameChar(tree.LiveAt(pos), flat.chars_[live_at[pos]]));
      }
      if (rng.OneIn(3)) continue;  // the next edits run on unfrozen nodes

      DocumentInfo info;
      info.version = version;
      info.length = tree.live_size();
      auto snap = std::make_shared<CharListSnapshot>(info, floor,
                                                     tree.Freeze(), nullptr);
      std::vector<SnapChar> chain;
      if (snap->root() != nullptr) {
        CheckNode(*snap->root(), &chain);
        max_height = std::max(max_height, snap->root()->height);
      }
      ASSERT_EQ(chain.size(), flat.chars_.size());
      for (size_t i = 0; i < chain.size(); ++i) {
        ASSERT_TRUE(SameChar(chain[i], flat.chars_[i])) << "at " << i;
      }
      const std::string text = flat.Text();
      ASSERT_EQ(snap->Text(), text);
      if (!live_at.empty()) {
        size_t pos = rng.Uniform(live_at.size());
        size_t len =
            rng.Uniform(std::min<size_t>(live_at.size() - pos, 300) + 1);
        std::vector<SnapChar> want;
        for (size_t i = pos; i < pos + len; ++i) {
          want.push_back(flat.chars_[live_at[i]]);
        }
        EXPECT_EQ(*snap->TextRange(pos, len), Utf8Of(want));
        auto range = snap->LiveRange(pos, len);
        ASSERT_TRUE(range.ok());
        ASSERT_EQ(range->size(), len);
        for (size_t i = 0; i < len; ++i) {
          EXPECT_TRUE(SameChar((*range)[i], want[i]));
        }
        EXPECT_TRUE(SameChar(*snap->LiveAt(pos), flat.chars_[live_at[pos]]));
      }
      EXPECT_TRUE(snap->LiveAt(live_at.size()).status().IsOutOfRange());
      Version past = floor + rng.Uniform(version - floor + 1);
      EXPECT_EQ(*snap->TextAtVersion(past), flat.TextAt(past));
      if (floor > 0) {
        EXPECT_TRUE(
            snap->TextAtVersion(floor - 1).status().IsFailedPrecondition());
      }
      if (step % 25 == 0) {
        kept.push_back({snap, text, past, flat.TextAt(past)});
      }
    }
    EXPECT_GE(max_height, 2u) << "the tree never grew past two levels";
    for (const Kept& k : kept) {
      EXPECT_EQ(k.snap->Text(), k.text) << "at version " << k.snap->version();
      EXPECT_EQ(*k.snap->TextAtVersion(k.version), k.text_at_version);
    }
  }
}

// History independence, checked by structure rather than by timing: on a
// chain of 200k records (a long history under a short live text), a
// keystroke, an erase and an undo each publish a snapshot that shares
// every node with the previous one except one leaf and its path to the
// root, and the earlier snapshot still reads its own text.
TEST(CharTreeTest, EditClonesOneLeafAndItsPathOnly) {
  std::vector<SnapChar> chain(200000);
  for (size_t i = 0; i < chain.size(); ++i) {
    chain[i].id = i + 1;
    chain[i].cp = 'a' + i % 26;
    chain[i].inserted = 1;
    chain[i].deleted = i % 2000 == 0 ? 0 : 2;  // 100 live chars
  }
  VersionedCharList tree;
  tree.Rebuild(std::move(chain));
  ASSERT_EQ(tree.live_size(), 100u);
  std::shared_ptr<const SnapNode> before = tree.Freeze();
  ASSERT_GE(before->height, 3u);
  std::string before_text = TextOf(before);

  auto expect_one_path = [&](const char* what) {
    SCOPED_TRACE(what);
    std::shared_ptr<const SnapNode> after = tree.Freeze();
    std::set<const SnapNode*> old_nodes, new_nodes;
    CollectNodes(before.get(), &old_nodes);
    CollectNodes(after.get(), &new_nodes);
    size_t fresh = 0, fresh_leaves = 0;
    for (const SnapNode* node : new_nodes) {
      if (old_nodes.count(node)) continue;
      ++fresh;
      fresh_leaves += node->height == 0;
      // The fresh leaf is the one whose text Freeze filled.
      if (node->height == 0) {
        EXPECT_EQ(AsSegment(*node).text, Utf8Of(AsSegment(*node).chars));
      }
    }
    EXPECT_EQ(fresh, after->height + 1u);
    EXPECT_EQ(fresh_leaves, 1u);
    EXPECT_EQ(TextOf(before), before_text);
    before = after;
    before_text = TextOf(after);
  };

  SnapChar key;
  key.id = 300000;
  key.cp = 'k';
  key.inserted = 3;
  tree.InsertRun(50, {key});
  expect_one_path("keystroke");
  ASSERT_EQ(tree.TombstoneRange(50, 1, 4), std::vector<uint64_t>{300000});
  expect_one_path("erase");
  ASSERT_EQ(tree.SetDeleted({300000}, 0), 1u);
  expect_one_path("undo");
  EXPECT_EQ(tree.LiveAt(50).id, 300000u);
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

// ---------- restart: the projected id scan and lazy loading ----------

std::unique_ptr<Database> OpenOn(const std::shared_ptr<DiskManager>& disk,
                                 const std::shared_ptr<LogStorage>& log) {
  DatabaseOptions options;
  options.disk = disk;
  options.log_storage = log;
  options.buffer_pool_pages = 256;
  auto db = Database::Open(options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return db.ok() ? std::move(*db) : nullptr;
}

// Init reads only each char record's id. What it builds must equal a full
// decode of the table: every stored char resolves to its own record (ids
// are unique, so the same record is the same rid), a purged id resolves to
// nothing, and the next id passes both the table's highest id and the
// purged high-water mark in tendax_text_meta.
TEST(TextStoreRestartTest, ProjectedIdScanMatchesFullDecode) {
  auto disk = std::make_shared<InMemoryDiskManager>();
  auto log = std::make_shared<InMemoryLogStorage>();
  const UserId user(1);
  DocumentId typed, pasted;
  std::vector<CharId> purged_ids;
  {
    auto db = OpenOn(disk, log);
    ASSERT_NE(db, nullptr);
    TextStore store(db.get());
    ASSERT_TRUE(store.Init().ok());
    typed = *store.CreateDocument(user, "typed");
    pasted = *store.CreateDocument(user, "pasted");
    ASSERT_TRUE(store.InsertText(user, typed, 0, "hello world").ok());
    ASSERT_TRUE(
        store.InsertText(user, pasted, 0, "imported", "web:example.org").ok());
    auto clip = store.Copy(user, typed, 0, 5);
    ASSERT_TRUE(clip.ok());
    ASSERT_TRUE(store.Paste(user, pasted, 0, *clip).ok());
    // The newest ids die and are purged: only the meta row remembers them.
    auto tail = store.InsertText(user, typed, 11, " tail");
    ASSERT_TRUE(tail.ok());
    purged_ids = tail->chars;
    ASSERT_TRUE(store.DeleteRange(user, typed, 11, 5).ok());
    auto purged = store.PurgeHistory(user, typed, *store.CurrentVersion(typed));
    ASSERT_TRUE(purged.ok());
    ASSERT_EQ(*purged, 5u);
  }
  auto db = OpenOn(disk, log);
  ASSERT_NE(db, nullptr);
  auto chars = db->GetTable("tendax_chars");
  auto meta = db->GetTable("tendax_text_meta");
  ASSERT_TRUE(chars.ok() && meta.ok());
  std::map<uint64_t, Record> full;
  uint64_t table_high = 0, purged_high = 0;
  ASSERT_TRUE((*chars)
                  ->Scan([&](RecordId, const Record& rec) {
                    table_high = std::max(table_high, rec.GetUint(0));
                    EXPECT_TRUE(full.emplace(rec.GetUint(0), rec).second);
                    return true;
                  })
                  .ok());
  ASSERT_TRUE((*meta)
                  ->Scan([&](RecordId, const Record& rec) {
                    purged_high = std::max(purged_high, rec.GetUint(0));
                    return true;
                  })
                  .ok());
  ASSERT_EQ(full.size(), 11u + 8u + 5u);
  ASSERT_GT(purged_high, table_high)
      << "the newest ids must survive only in the meta row";

  TextStore store(db.get());
  ASSERT_TRUE(store.Init().ok());
  size_t external = 0;
  for (const auto& [id, rec] : full) {
    auto info = store.GetChar(DocumentId(rec.GetUint(1)), CharId(id));
    ASSERT_TRUE(info.ok()) << "char " << id << ": "
                           << info.status().ToString();
    EXPECT_EQ(info->id.value, id);
    EXPECT_EQ(info->cp, rec.GetUint(2));
    EXPECT_EQ(info->inserted_version, rec.GetUint(7));
    EXPECT_EQ(info->deleted_version, rec.GetUint(8));
    EXPECT_EQ(info->src_char.value, rec.GetUint(11));
    EXPECT_EQ(info->src_external, rec.GetString(12));
    if (!info->src_external.empty()) ++external;
  }
  EXPECT_EQ(external, 8u);
  for (CharId id : purged_ids) {
    EXPECT_TRUE(store.GetChar(typed, id).status().IsNotFound());
  }
  auto next = store.InsertText(user, typed, 0, "n");
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->chars.front().value, std::max(table_high, purged_high) + 1);
  EXPECT_EQ(*store.Text(pasted), "helloimported");
  EXPECT_TRUE(db->CheckIntegrity().ok());
}

// A char record of the wrong shape is Corruption, never a crash: a bad
// arity or a non-uint id fails Init's id scan, and a bad later column or a
// truncated record fails the document's first load.
TEST(TextStoreRestartTest, MalformedCharRecordIsCorruption) {
  auto disk = std::make_shared<InMemoryDiskManager>();
  auto log = std::make_shared<InMemoryLogStorage>();
  DocumentId doc;
  {
    auto db = OpenOn(disk, log);
    ASSERT_NE(db, nullptr);
    TextStore store(db.get());
    ASSERT_TRUE(store.Init().ok());
    doc = *store.CreateDocument(UserId(1), "victim");
    ASSERT_TRUE(store.InsertText(UserId(1), doc, 0, "abc").ok());
  }
  RecordId rid;
  std::string original;
  {
    auto db = OpenOn(disk, log);
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE((*db->GetTable("tendax_chars"))
                    ->ScanBytes([&](RecordId r, Slice bytes) {
                      rid = r;
                      original = bytes.ToString();
                      return false;
                    })
                    .ok());
  }
  const Record good = *Record::Decode(original);
  Record string_id = good;
  string_id.value(0) = std::string("1");
  Record string_cp = good;
  string_cp.value(2) = std::string("a");
  struct Case {
    const char* what;
    std::string image;
    bool fails_init;
  };
  const Case cases[] = {
      {"12 columns",
       Record(std::vector<Value>(12, Value(uint64_t{1}))).Encode(), true},
      {"14 columns",
       Record(std::vector<Value>(14, Value(uint64_t{1}))).Encode(), true},
      {"string id", string_id.Encode(), true},
      {"unreadable arity", std::string(1, '\xff'), true},
      {"string codepoint", string_cp.Encode(), false},
      {"truncated", original.substr(0, original.size() - 2), false},
      {"restored", original, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    // One TextStore per open: each registers a commit listener for the
    // database's lifetime.
    auto db = OpenOn(disk, log);
    ASSERT_NE(db, nullptr);
    ASSERT_TRUE((*db->GetTable("tendax_chars"))
                    ->ApplyChange(UpdateOp::kUpdate, rid, c.image, kInvalidLsn)
                    .ok());
    TextStore store(db.get());
    Status init = store.Init();
    if (c.fails_init) {
      EXPECT_TRUE(init.IsCorruption()) << init.ToString();
      continue;
    }
    ASSERT_TRUE(init.ok()) << init.ToString();
    auto text = store.Text(doc);
    if (c.image == original) {
      EXPECT_EQ(text.value_or(""), "abc");
    } else {
      EXPECT_TRUE(text.status().IsCorruption()) << text.status().ToString();
    }
  }
}

// After a restart no chain is loaded until its document's first read, edit
// or search, and each is loaded once.
TEST(TextStoreRestartTest, ReopenLoadsNoChainUntilFirstUse) {
  auto disk = std::make_shared<InMemoryDiskManager>();
  auto log = std::make_shared<InMemoryLogStorage>();
  auto open = [&] {
    TendaxOptions options;
    options.db.disk = disk;
    options.db.log_storage = log;
    options.db.buffer_pool_pages = 256;
    auto server = TendaxServer::Open(std::move(options));
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    return server.ok() ? std::move(*server) : nullptr;
  };
  UserId user;
  std::vector<DocumentId> docs;
  {
    auto server = open();
    ASSERT_NE(server, nullptr);
    user = *server->accounts()->CreateUser("writer");
    for (const char* name : {"read", "edit", "search", "idle"}) {
      auto doc = server->text()->CreateDocument(user, name);
      ASSERT_TRUE(doc.ok());
      ASSERT_TRUE(
          server->text()->InsertText(user, *doc, 0, "common words").ok());
      docs.push_back(*doc);
    }
    ASSERT_TRUE(server->search()->Search("common").ok());
  }
  auto server = open();
  ASSERT_NE(server, nullptr);
  auto loads = [&] {
    return server->metrics()->counter("text.handle_loads")->Value();
  };
  EXPECT_EQ(loads(), 0u) << "the open loaded a chain";
  EXPECT_EQ(*server->text()->Text(docs[0]), "common words");
  EXPECT_EQ(loads(), 1u);
  EXPECT_EQ(*server->text()->Length(docs[0]), 12u);
  EXPECT_EQ(loads(), 1u);
  ASSERT_TRUE(server->text()->InsertText(user, docs[1], 0, "more ").ok());
  EXPECT_EQ(loads(), 2u);
  auto hits = server->search()->Search("common");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 4u);
  EXPECT_EQ(loads(), 4u) << "the first query loads the chains not yet used";
  ASSERT_TRUE(server->search()->Search("more").ok());
  EXPECT_EQ(loads(), 4u);
  Status integrity = server->CheckIntegrity();
  EXPECT_TRUE(integrity.ok()) << integrity.ToString();
}

}  // namespace
}  // namespace tendax
