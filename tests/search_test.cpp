// Tests for content/structure/metadata search and ranking options.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "server_fixture.h"
#include "text/utf8.h"
#include "util/random.h"

namespace tendax {
namespace {

class SearchTest : public ServerTest {
 protected:
  /// Checks the server's incrementally maintained index against a full
  /// re-index of the same documents: same results in the same order, the
  /// same exact scores, names and snippets, and the same term count. The
  /// reference is built without Init, so it registers no commit listener.
  void ExpectEqualsFullReindex(const std::vector<std::string>& queries) {
    SearchEngine full(server_->db(), server_->text(), server_->meta(),
                      server_->documents(), server_->lineage());
    for (DocumentId doc : server_->text()->ListDocuments()) {
      ASSERT_TRUE(full.IndexDocument(doc).ok());
    }
    for (const std::string& query : queries) {
      auto got = server_->search()->Search(query, Ranking::kRelevance, {},
                                           SIZE_MAX);
      auto want = full.Search(query, Ranking::kRelevance, {}, SIZE_MAX);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_EQ(got->size(), want->size()) << "query '" << query << "'";
      for (size_t i = 0; i < got->size(); ++i) {
        EXPECT_EQ((*got)[i].doc, (*want)[i].doc) << "query '" << query << "'";
        EXPECT_EQ((*got)[i].score, (*want)[i].score) << "query '" << query
                                                     << "'";
        EXPECT_EQ((*got)[i].name, (*want)[i].name);
        EXPECT_EQ((*got)[i].snippet, (*want)[i].snippet);
      }
    }
    EXPECT_EQ(server_->search()->IndexedTerms(), full.IndexedTerms());
    EXPECT_EQ(server_->search()->IndexedDocuments(), full.IndexedDocuments());
    EXPECT_EQ(server_->search()->DirtyDocuments(), 0u);
  }

  /// A restart builds no postings: until the first query every document
  /// is dirty and none is indexed, even after one document is edited, one
  /// renamed and one purged on the reopened server. The first query must
  /// then equal a full re-index.
  void ExpectLazyIndexAcrossReopen(bool crash) {
    DocumentId edited =
        MakeDoc(alice_, "edited-notes", "alpha beta gamma delta epsilon ");
    DocumentId renamed =
        MakeDoc(alice_, "old-title", "rename target body words ");
    DocumentId purged =
        MakeDoc(alice_, "purged", "keep these words erase those words ");
    DocumentId untouched = MakeDoc(bob_, "untouched", "quiet document text");
    ASSERT_TRUE(server_->text()->DeleteRange(alice_, purged, 17, 12).ok());
    ASSERT_TRUE(server_->search()->Search("words").ok());
    // Committed before the crash but still only in the log.
    ASSERT_TRUE(server_->text()->InsertText(bob_, untouched, 0, "loud ").ok());

    ASSERT_NO_FATAL_FAILURE(Reopen(crash));
    const size_t docs = server_->text()->ListDocuments().size();
    ASSERT_GE(docs, 4u);
    EXPECT_EQ(server_->search()->IndexedDocuments(), 0u);
    EXPECT_EQ(server_->search()->DirtyDocuments(), docs);

    ASSERT_TRUE(server_->text()->InsertText(alice_, edited, 0, "zebra ").ok());
    ASSERT_TRUE(
        server_->text()->RenameDocument(alice_, renamed, "new-title").ok());
    auto version = server_->text()->CurrentVersion(purged);
    ASSERT_TRUE(version.ok());
    auto removed = server_->text()->PurgeHistory(alice_, purged, *version);
    ASSERT_TRUE(removed.ok()) << removed.status().ToString();
    EXPECT_EQ(*removed, 12u);
    EXPECT_EQ(server_->search()->IndexedDocuments(), 0u);
    EXPECT_EQ(server_->search()->DirtyDocuments(), docs);

    auto hits = server_->search()->Search("title");
    ASSERT_TRUE(hits.ok());
    ASSERT_EQ(hits->size(), 1u);
    EXPECT_EQ((*hits)[0].name, "new-title");
    EXPECT_TRUE(server_->search()->Search("old")->empty());
    EXPECT_TRUE(server_->search()->Search("erase")->empty());
    EXPECT_EQ(server_->search()->Search("loud")->size(), 1u);
    ExpectEqualsFullReindex({"alpha", "zebra", "title", "new", "old", "keep",
                             "words", "erase", "those", "quiet", "loud",
                             "untouched", "purged", "notes"});
  }

  /// Up to `n` distinct tokens of `doc`'s current text and name.
  std::vector<std::string> SampleTokens(DocumentId doc, size_t n,
                                        Random* rng) {
    auto snap = server_->text()->AcquireSnapshot(doc);
    EXPECT_TRUE(snap.ok());
    std::vector<std::string> tokens =
        Tokenize((*snap)->Text() + " " + (*snap)->info().name);
    std::vector<std::string> out;
    for (size_t i = 0; i < n && !tokens.empty(); ++i) {
      out.push_back(tokens[rng->Uniform(tokens.size())]);
    }
    return out;
  }
};

bool IsValidUtf8(const std::string& text) {
  return EncodeUtf8(DecodeUtf8(text)) == text;
}

TEST(TokenizeTest, SplitsAndLowercases) {
  auto tokens = Tokenize("Hello, World! 2nd-test\nDONE");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0], "hello");
  EXPECT_EQ(tokens[1], "world");
  EXPECT_EQ(tokens[2], "2nd");
  EXPECT_EQ(tokens[3], "test");
  EXPECT_EQ(tokens[4], "done");
  EXPECT_TRUE(Tokenize("  ,,  ").empty());
}

TEST_F(SearchTest, FindsDocumentsByContent) {
  DocumentId a = MakeDoc(alice_, "db-paper", "database systems rule");
  MakeDoc(alice_, "other", "completely unrelated prose");
  auto results = server_->search()->Search("database");
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ((*results)[0].doc, a);
  EXPECT_EQ((*results)[0].name, "db-paper");
  EXPECT_FALSE((*results)[0].snippet.empty());
}

TEST_F(SearchTest, MultiTermIsConjunctive) {
  DocumentId both = MakeDoc(alice_, "both", "apples and oranges");
  MakeDoc(alice_, "one", "apples only here");
  auto results = server_->search()->Search("apples oranges");
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ((*results)[0].doc, both);
}

TEST_F(SearchTest, IndexFollowsEdits) {
  DocumentId doc = MakeDoc(alice_, "evolving", "first wording");
  ASSERT_EQ(server_->search()->Search("wording")->size(), 1u);
  ASSERT_TRUE(server_->text()->DeleteRange(alice_, doc, 0, 13).ok());
  ASSERT_TRUE(
      server_->text()->InsertText(alice_, doc, 0, "second phrasing").ok());
  EXPECT_TRUE(server_->search()->Search("wording")->empty());
  ASSERT_EQ(server_->search()->Search("phrasing")->size(), 1u);
}

TEST_F(SearchTest, PhraseSearchVerifiesAdjacency) {
  MakeDoc(alice_, "scattered", "red house, blue car");
  DocumentId exact = MakeDoc(alice_, "exact", "the blue house stands");
  auto results = server_->search()->SearchPhrase("blue house");
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ((*results)[0].doc, exact);
}

TEST_F(SearchTest, NewestRanking) {
  DocumentId older = MakeDoc(alice_, "older", "shared topic");
  clock_->Advance(10'000'000);
  DocumentId newer = MakeDoc(alice_, "newer", "shared topic");
  auto results = server_->search()->Search("topic", Ranking::kNewest);
  ASSERT_EQ(results->size(), 2u);
  EXPECT_EQ((*results)[0].doc, newer);
  EXPECT_EQ((*results)[1].doc, older);
}

TEST_F(SearchTest, MostCitedRanking) {
  DocumentId cited = MakeDoc(alice_, "cited", "citable topic sentence");
  DocumentId uncited = MakeDoc(alice_, "uncited", "same topic sentence");
  DocumentId quoter = MakeDoc(bob_, "quoter", "");
  auto clip = server_->text()->Copy(bob_, cited, 0, 7);
  ASSERT_TRUE(server_->text()->Paste(bob_, quoter, 0, *clip).ok());

  auto results = server_->search()->Search("topic", Ranking::kMostCited);
  ASSERT_EQ(results->size(), 2u);
  EXPECT_EQ((*results)[0].doc, cited);
  EXPECT_EQ((*results)[1].doc, uncited);
}

TEST_F(SearchTest, MostReadRanking) {
  DocumentId popular = MakeDoc(alice_, "popular", "common subject");
  DocumentId ignored = MakeDoc(alice_, "ignored", "common subject");
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(server_->meta()->RecordRead(bob_, popular).ok());
  }
  auto results = server_->search()->Search("subject", Ranking::kMostRead);
  ASSERT_EQ(results->size(), 2u);
  EXPECT_EQ((*results)[0].doc, popular);
  EXPECT_EQ((*results)[1].doc, ignored);
}

TEST_F(SearchTest, RelevanceRanksHigherTermDensity) {
  DocumentId dense = MakeDoc(alice_, "dense", "kiwi kiwi kiwi");
  DocumentId sparse =
      MakeDoc(alice_, "sparse",
              "kiwi among many many other longer words diluting the score");
  auto results = server_->search()->Search("kiwi", Ranking::kRelevance);
  ASSERT_EQ(results->size(), 2u);
  EXPECT_EQ((*results)[0].doc, dense);
  EXPECT_EQ((*results)[1].doc, sparse);
}

TEST_F(SearchTest, MetadataFilters) {
  DocumentId by_alice = MakeDoc(alice_, "a-doc", "filterable content");
  DocumentId by_bob = MakeDoc(bob_, "b-doc", "filterable content");
  ASSERT_TRUE(
      server_->text()->SetDocumentState(alice_, by_alice, "published").ok());

  SearchFilter author_filter;
  author_filter.author = bob_;
  auto results = server_->search()->Search("filterable",
                                           Ranking::kRelevance,
                                           author_filter);
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ((*results)[0].doc, by_bob);

  SearchFilter state_filter;
  state_filter.state = "published";
  results = server_->search()->Search("filterable", Ranking::kRelevance,
                                      state_filter);
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ((*results)[0].doc, by_alice);
}

TEST_F(SearchTest, StructureFilter) {
  DocumentId with_elem =
      MakeDoc(alice_, "structured", "abstract keyword body text");
  ASSERT_TRUE(server_->documents()
                  ->CreateElement(alice_, with_elem, ElementId(), "abstract",
                                  "abs", 0, 16)
                  .ok());
  MakeDoc(alice_, "flat", "keyword without structure");

  SearchFilter filter;
  filter.element_type = "abstract";
  auto results =
      server_->search()->Search("keyword", Ranking::kRelevance, filter);
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ((*results)[0].doc, with_elem);
}

TEST_F(SearchTest, DocumentNamesAreSearchable) {
  DocumentId doc = MakeDoc(alice_, "quarterly-budget", "numbers inside");
  auto results = server_->search()->Search("budget");
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ((*results)[0].doc, doc);
}

TEST_F(SearchTest, LimitAndEmptyQuery) {
  for (int i = 0; i < 8; ++i) {
    MakeDoc(alice_, "doc" + std::to_string(i), "pagination fodder");
  }
  auto results = server_->search()->Search("pagination", Ranking::kRelevance,
                                           {}, 3);
  EXPECT_EQ(results->size(), 3u);
  EXPECT_TRUE(
      server_->search()->Search("   ").status().IsInvalidArgument());
}

TEST_F(SearchTest, SnippetsNeverSplitACodePoint) {
  // Byte offsets 20 before the match and 60 after its start both land
  // inside a two-byte "\xC3\xA9", so byte-offset cuts would split it.
  std::string e_acute = "\xC3\xA9";
  std::string run;
  for (int i = 0; i < 20; ++i) run += e_acute;
  MakeDoc(alice_, "accents", "x" + run + " database " + run);
  auto results = server_->search()->Search("database");
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  const std::string& snippet = (*results)[0].snippet;
  EXPECT_TRUE(IsValidUtf8(snippet)) << snippet;
  EXPECT_NE(snippet.find("database"), std::string::npos);
  EXPECT_EQ(snippet.substr(0, 3), "...");
  EXPECT_EQ(snippet.substr(snippet.size() - 3), "...");

  // No match in the text (the term is only in the name): the head of the
  // text, also cut on a code-point boundary.
  MakeDoc(alice_, "budget", run + run + run);
  results = server_->search()->Search("budget");
  ASSERT_EQ(results->size(), 1u);
  EXPECT_TRUE(IsValidUtf8((*results)[0].snippet));
  EXPECT_FALSE((*results)[0].snippet.empty());
}

// Tombstone-only segments between two edits carry no text, so the word
// that now runs across them must be re-tokenized as one window.
TEST_F(SearchTest, WordAcrossTombstoneSegmentsIsReindexed) {
  std::string body;
  while (body.size() < 1000) body += "lorem ipsum dolor ";
  body.replace(189, 11, " leftsidexx");
  body.replace(520, 10, "rightsideq");
  body.replace(530, 1, " ");
  DocumentId doc = MakeDoc(alice_, "filler", body);
  ASSERT_TRUE(server_->search()->Search("lorem").ok());
  // Tombstone whole segments in the middle, then edit on both sides.
  ASSERT_TRUE(server_->text()->DeleteRange(alice_, doc, 200, 320).ok());
  ASSERT_TRUE(server_->search()->Search("lorem").ok());
  ASSERT_TRUE(server_->text()->InsertText(alice_, doc, 199, "J").ok());
  ASSERT_TRUE(server_->text()->DeleteRange(alice_, doc, 205, 1).ok());
  ASSERT_EQ(server_->text()->Text(doc)->substr(190, 21),
            "leftsidexJxrighsideq ");
  auto hit = server_->search()->Search("leftsidexjxrighsideq");
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->size(), 1u);
  EXPECT_TRUE(server_->search()->Search("rightsideq")->empty());
  ExpectEqualsFullReindex({"leftsidexjxrighsideq", "leftsidexx", "lorem",
                           "dolor", "rightsideq"});
}

// Seeded property: after random typing, deletes, pastes, undo/redo,
// history purges and renames across several documents, the incremental
// index equals a full re-index at every query.
TEST_F(SearchTest, IncrementalIndexEqualsFullReindex) {
  const std::vector<std::string> words = {
      "alpha", "beta", "gamma", "Delta", "zeta", "x1", "R2d2", "database",
      "caf\xC3\xA9", "na\xC3\xAFve", "\xE2\x82\xACuro",
      "smile\xF0\x9F\x98\x80"};
  const std::vector<std::string> separators = {" ", " ", ", ", "\n", "",
                                               "\xC3\xA9", "\xE2\x80\x94"};
  Random rng(20261017);
  auto random_text = [&](size_t n_words) {
    std::string out;
    for (size_t i = 0; i < n_words; ++i) {
      out += words[rng.Uniform(words.size())];
      out += separators[rng.Uniform(separators.size())];
    }
    return out;
  };
  const UserId users[] = {alice_, bob_};
  std::vector<DocumentId> docs;
  for (int d = 0; d < 4; ++d) {
    docs.push_back(MakeDoc(alice_, "doc-" + words[d], random_text(40)));
  }
  UndoManager* undo = server_->undo();
  TextStore* text = server_->text();
  for (int op = 0; op < 400; ++op) {
    DocumentId doc = docs[rng.Uniform(docs.size())];
    UserId user = users[rng.Uniform(2)];
    const uint64_t len = text->Length(doc).value_or(0);
    const uint64_t kind = rng.Uniform(20);
    if (kind < 8 || len == 0) {
      // Keystrokes and short phrases; now and then a paste large enough
      // to split segments.
      std::string piece;
      if (rng.OneIn(8)) {
        piece = random_text(60 + rng.Uniform(80));
      } else if (rng.OneIn(2)) {
        piece = std::string(1, "ab c,"[rng.Uniform(5)]);
      } else {
        piece = random_text(1 + rng.Uniform(3));
      }
      auto r = text->InsertText(user, doc, rng.Uniform(len + 1), piece);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      undo->RecordInsert(user, doc, *r, piece);
    } else if (kind < 12) {
      uint64_t n = 1 + rng.Skewed(9) % std::min<uint64_t>(len, 400);
      uint64_t pos = rng.Uniform(len - n + 1);
      std::string gone_text = *text->TextRange(doc, pos, n);
      auto r = text->DeleteRange(user, doc, pos, n);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      undo->RecordDelete(user, doc, *r, gone_text);
    } else if (kind < 13) {
      DocumentId from = docs[rng.Uniform(docs.size())];
      uint64_t from_len = text->Length(from).value_or(0);
      if (from_len == 0) continue;
      uint64_t n = 1 + rng.Uniform(std::min<uint64_t>(from_len, 300));
      auto clip = text->Copy(user, from, rng.Uniform(from_len - n + 1), n);
      ASSERT_TRUE(clip.ok());
      ASSERT_TRUE(text->Paste(user, doc, rng.Uniform(len + 1), *clip).ok());
    } else if (kind < 15) {
      (void)(rng.OneIn(2) ? undo->UndoLocal(user, doc)
                          : undo->UndoGlobal(user, doc));
    } else if (kind < 16) {
      (void)(rng.OneIn(2) ? undo->RedoLocal(user, doc)
                          : undo->RedoGlobal(user, doc));
    } else if (kind < 17) {
      ASSERT_TRUE(
          text->PurgeHistory(user, doc, *text->CurrentVersion(doc)).ok());
    } else if (kind < 18) {
      ASSERT_TRUE(text->RenameDocument(
                          user, doc,
                          words[rng.Uniform(words.size())] + "-" +
                              words[rng.Uniform(words.size())])
                      .ok());
    }
    if (rng.OneIn(6)) {
      std::vector<std::string> queries = SampleTokens(doc, 3, &rng);
      queries.push_back(Tokenize(words[rng.Uniform(words.size())]).front());
      ExpectEqualsFullReindex(queries);
      if (HasFatalFailure() || HasNonfatalFailure()) {
        FAIL() << "diverged after op " << op;
      }
    }
  }
  std::vector<std::string> all;
  for (DocumentId doc : docs) {
    for (const std::string& t : SampleTokens(doc, 50, &rng)) all.push_back(t);
  }
  ExpectEqualsFullReindex(all);
}

// The same oracle on documents deep enough for a multi-level tree: big
// pastes split leaves and then interior nodes, long deletes leave leaves
// with no live text, purges unlink emptied leaves and interior nodes, and
// handle reloads rebuild every node. Each refresh diffs two trees that
// share most subtrees; a freshly built index must agree with it.
TEST_F(SearchTest, IncrementalIndexFollowsMultiLevelTrees) {
  const std::vector<std::string> words = {"alpha", "beta", "Gamma", "x1",
                                          "caf\xC3\xA9", "database", "r2d2"};
  const std::vector<std::string> separators = {" ", " ", ",", "\n", ""};
  Random rng(4242);
  auto random_text = [&](size_t n_words) {
    std::string out;
    for (size_t i = 0; i < n_words; ++i) {
      out += words[rng.Uniform(words.size())];
      out += separators[rng.Uniform(separators.size())];
    }
    return out;
  };
  TextStore* text = server_->text();
  UndoManager* undo = server_->undo();
  std::vector<DocumentId> docs = {
      MakeDoc(alice_, "deep-one", random_text(900)),
      MakeDoc(alice_, "deep-two", random_text(900))};
  uint32_t max_height = 0;
  uint64_t purged = 0;
  for (int op = 0; op < 240; ++op) {
    DocumentId doc = docs[rng.Uniform(docs.size())];
    const uint64_t len = text->Length(doc).value_or(0);
    const uint64_t kind = rng.Uniform(20);
    if (kind < 7 || len < 50) {
      std::string piece = rng.OneIn(3) ? random_text(200 + rng.Uniform(800))
                                       : random_text(1);
      auto r = text->InsertText(alice_, doc, rng.Uniform(len + 1), piece);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      undo->RecordInsert(alice_, doc, *r, piece);
    } else if (kind < 12) {
      uint64_t n =
          1 + rng.Uniform(std::min<uint64_t>(len, rng.OneIn(3) ? 2000 : 8));
      uint64_t pos = rng.Uniform(len - n + 1);
      std::string gone = *text->TextRange(doc, pos, n);
      auto r = text->DeleteRange(alice_, doc, pos, n);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      undo->RecordDelete(alice_, doc, *r, gone);
    } else if (kind < 15) {
      (void)(rng.OneIn(2) ? undo->UndoLocal(alice_, doc)
                          : undo->RedoLocal(alice_, doc));
    } else if (kind < 17) {
      auto n = text->PurgeHistory(alice_, doc, *text->CurrentVersion(doc));
      ASSERT_TRUE(n.ok());
      purged += *n;
    } else if (kind < 18) {
      text->InvalidateHandle(doc);
    }
    auto snap = text->AcquireSnapshot(doc);
    ASSERT_TRUE(snap.ok());
    if ((*snap)->root() != nullptr) {
      max_height = std::max(max_height, (*snap)->root()->height);
    }
    if (rng.OneIn(4)) {
      std::vector<std::string> queries = SampleTokens(doc, 3, &rng);
      queries.push_back(Tokenize(words[rng.Uniform(words.size())]).front());
      ExpectEqualsFullReindex(queries);
      if (HasFatalFailure() || HasNonfatalFailure()) {
        FAIL() << "diverged after op " << op;
      }
    }
  }
  EXPECT_GE(max_height, 2u);
  EXPECT_GT(purged, 0u);
  std::string all;
  for (const std::string& w : words) all += w + " ";
  ExpectEqualsFullReindex(Tokenize(all));
}

// Three typists and one searcher share two documents. Refreshes pin the
// trees they diff while writers clone them; once everyone stops, the
// index must equal a full re-index.
TEST_F(SearchTest, ConcurrentTypistsAndSearcherConvergeToFullReindex) {
  std::vector<DocumentId> docs = {
      MakeDoc(alice_, "shared-one", "start of the first shared text "),
      MakeDoc(alice_, "shared-two", "start of the second shared text ")};
  constexpr int kTypists = 3;
  constexpr int kKeystrokes = 150;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> typists;
  for (int t = 0; t < kTypists; ++t) {
    typists.emplace_back([&, t] {
      Random rng(100 + t);
      const std::string keys = "abcdefgh ,\n";
      for (int k = 0; k < kKeystrokes; ++k) {
        DocumentId doc = docs[rng.Uniform(docs.size())];
        uint64_t len = server_->text()->Length(doc).value_or(0);
        Status st =
            rng.OneIn(5) && len > 0
                ? server_->text()
                      ->DeleteRange(alice_, doc, rng.Uniform(len), 1)
                      .status()
                : server_->text()
                      ->InsertText(alice_, doc, rng.Uniform(len + 1),
                                   std::string(1, keys[rng.Uniform(
                                                      keys.size())]))
                      .status();
        // Another typist may have shortened the text since `len` was read.
        if (!st.ok() && !st.IsOutOfRange()) ++failures;
      }
    });
  }
  std::thread searcher([&] {
    const char* terms[] = {"start", "shared", "text", "ab", "first"};
    for (int i = 0; !done.load(); ++i) {
      if (!server_->search()->Search(terms[i % 5]).ok()) ++failures;
    }
  });
  for (std::thread& t : typists) t.join();
  done = true;
  searcher.join();
  EXPECT_EQ(failures.load(), 0);
  Random rng(7);
  std::vector<std::string> queries = {"start", "shared", "text"};
  for (DocumentId doc : docs) {
    for (const std::string& t : SampleTokens(doc, 20, &rng)) {
      queries.push_back(t);
    }
  }
  ExpectEqualsFullReindex(queries);
}

TEST_F(SearchTest, IndexBuildsLazilyAfterCleanReopen) {
  ExpectLazyIndexAcrossReopen(/*crash=*/false);
}

TEST_F(SearchTest, IndexBuildsLazilyAfterCrashReopen) {
  ExpectLazyIndexAcrossReopen(/*crash=*/true);
}

// The first query after a restart builds every document's postings and
// loads every chain it needs, while a typist commits edits to the same
// documents. Once the typist stops, the index must equal a full re-index.
TEST_F(SearchTest, FirstRefreshAfterReopenRacesCommits) {
  Random words(11);
  const char* vocabulary[] = {"river", "stone", "maple", "cloud", "amber",
                              "flint", "cedar", "harbor", "quill", "ember"};
  std::vector<DocumentId> docs;
  for (int d = 0; d < 6; ++d) {
    std::string text;
    while (text.size() < 3000) {
      text += vocabulary[words.Uniform(10)];
      text += words.OneIn(8) ? ".\n" : " ";
    }
    docs.push_back(MakeDoc(alice_, "racing-" + std::to_string(d), text));
  }
  ASSERT_NO_FATAL_FAILURE(Reopen(/*crash=*/false));
  ASSERT_EQ(server_->search()->IndexedDocuments(), 0u);

  std::atomic<int> committed{0};
  std::atomic<bool> searched{false};
  std::atomic<int> failures{0};
  std::thread typist([&] {
    Random rng(23);
    const std::string keys = "xyz ,\n";
    // Types on until 50 keystrokes after the first query returned.
    int after = 0;
    while (after < 50) {
      if (searched.load()) ++after;
      DocumentId doc = docs[rng.Uniform(docs.size())];
      uint64_t len = server_->text()->Length(doc).value_or(0);
      Status st =
          rng.OneIn(4) && len > 0
              ? server_->text()
                    ->DeleteRange(alice_, doc, rng.Uniform(len), 1)
                    .status()
              : server_->text()
                    ->InsertText(alice_, doc, rng.Uniform(len + 1),
                                 std::string(1, keys[rng.Uniform(keys.size())]))
                    .status();
      if (st.ok()) {
        ++committed;
      } else {
        ++failures;
      }
    }
  });
  while (committed.load() == 0) std::this_thread::yield();
  auto first = server_->search()->Search("river");
  searched = true;
  typist.join();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(failures.load(), 0);
  std::vector<std::string> queries(std::begin(vocabulary),
                                   std::end(vocabulary));
  queries.push_back("xyz");
  queries.push_back("racing");
  ExpectEqualsFullReindex(queries);
}

}  // namespace
}  // namespace tendax
