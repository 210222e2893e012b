#ifndef TENDAX_SEARCH_SEARCH_ENGINE_H_
#define TENDAX_SEARCH_SEARCH_ENGINE_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "document/document_model.h"
#include "lineage/lineage.h"
#include "meta/meta_store.h"
#include "text/text_store.h"
#include "util/ids.h"
#include "util/mutex.h"
#include "util/result.h"

namespace tendax {

/// How result lists are ordered — the paper's ranking options
/// ("most cited", "newest", …).
enum class Ranking : uint8_t {
  kRelevance = 1,  // tf-idf
  kNewest = 2,     // last edit time
  kMostCited = 3,  // lineage in-degree
  kMostRead = 4,   // audit read count
};

const char* RankingName(Ranking ranking);

struct SearchResult {
  DocumentId doc;
  double score = 0;
  std::string name;
  std::string snippet;
};

/// Optional metadata filters applied before ranking.
struct SearchFilter {
  std::optional<UserId> author;       // must be among the doc's authors
  std::optional<std::string> state;   // document lifecycle state
  Timestamp edited_since = 0;         // last edit >= this
  std::optional<std::string> element_type;  // term must fall inside such an
                                            // element (structure search)
};

/// Lowercases and splits on non-alphanumerics.
std::vector<std::string> Tokenize(const std::string& text);

/// Content / structure / metadata search with pluggable ranking over an
/// incrementally maintained in-memory inverted index (derived data, built
/// lazily after startup). A committed edit only marks its document dirty;
/// the next query brings each dirty document up to its latest snapshot by
/// walking the snapshot's copy-on-write tree together with the one last
/// indexed, skipping every shared subtree, and re-tokenizing only the
/// windows around the leaves that changed. A document never indexed is
/// diffed from empty, which is its full build.
class SearchEngine {
 public:
  SearchEngine(Database* db, TextStore* text, MetaStore* meta,
               DocumentModel* docs, LineageAnalyzer* lineage);

  /// Marks every existing document dirty, so the first query indexes it,
  /// and subscribes to commits. Reads no document text.
  Status Init();

  /// Multi-term AND query (terms are tokenized from `query`).
  Result<std::vector<SearchResult>> Search(
      const std::string& query, Ranking ranking = Ranking::kRelevance,
      const SearchFilter& filter = {}, size_t limit = 10);

  /// Exact phrase query (verified against document text).
  Result<std::vector<SearchResult>> SearchPhrase(
      const std::string& phrase, Ranking ranking = Ranking::kRelevance,
      size_t limit = 10);

  /// Brings one document's index entry up to its latest snapshot now (also
  /// what a query does for every dirty document).
  Status IndexDocument(DocumentId doc);

  size_t IndexedTerms() const;
  size_t IndexedDocuments() const;
  size_t DirtyDocuments() const;

 private:
  struct DocPostings {
    Version version = 0;  // snapshot version the entry reflects
    // The root of the snapshot tree last indexed. Holding it pins every
    // node's address, so an unchanged pointer in a later snapshot is sound
    // proof of an unchanged subtree.
    std::shared_ptr<const SnapNode> root;
    std::string name;
    uint64_t term_count = 0;  // total tokens, content and name
    std::unordered_map<std::string, uint32_t> counts;  // term -> occurrences
  };

  /// Brings every document marked dirty since the last query up to date.
  Status FlushDirty();

  Result<double> RankScore(DocumentId doc, Ranking ranking,
                           const std::vector<std::string>& terms);
  Status ApplyFilter(const SearchFilter& filter,
                     const std::vector<std::string>& terms,
                     std::set<uint64_t>* candidates);
  std::string Snippet(DocumentId doc, const std::string& term);
  double TfIdf(const std::vector<std::string>& terms, uint64_t doc) const;

  Database* const db_;
  TextStore* const text_;
  MetaStore* const meta_;
  DocumentModel* const docs_;
  LineageAnalyzer* const lineage_;

  // Guards the inverted index. Held only to mark a document dirty, to read
  // an entry's base and to apply count deltas — never across a snapshot
  // acquisition, a segment diff or tokenization — so a commit listener
  // marking a document dirty never waits behind a re-index. It may sit
  // alongside (never inside) the document handle lock.
  mutable Mutex mu_{"search.mu", lockorder::kRankDocument};
  // term -> set of docs; doc -> postings.
  std::unordered_map<std::string, std::set<uint64_t>> term_docs_
      TENDAX_GUARDED_BY(mu_);
  std::unordered_map<uint64_t, DocPostings> doc_postings_
      TENDAX_GUARDED_BY(mu_);
  // doc -> highest committed version marked since it was last indexed.
  std::unordered_map<uint64_t, Version> dirty_docs_ TENDAX_GUARDED_BY(mu_);
};

}  // namespace tendax

#endif  // TENDAX_SEARCH_SEARCH_ENGINE_H_
