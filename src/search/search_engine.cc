#include "search/search_engine.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <string_view>

#include "util/deadline.h"
#include "util/logging.h"

namespace tendax {

const char* RankingName(Ranking ranking) {
  switch (ranking) {
    case Ranking::kRelevance:
      return "relevance";
    case Ranking::kNewest:
      return "newest";
    case Ranking::kMostCited:
      return "most-cited";
    case Ranking::kMostRead:
      return "most-read";
  }
  return "?";
}

namespace {

// The tokenizer's word bytes and case folding: ASCII only, which is what
// std::isalnum / std::tolower do in the C locale, minus their per-byte
// locale lookup. Bytes of a multibyte UTF-8 code point are never word
// bytes, so word boundaries fall on code points.
bool IsWordByte(unsigned char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
         (c >= 'A' && c <= 'Z');
}

char AsciiLower(unsigned char c) {
  return static_cast<char>(c >= 'A' && c <= 'Z' ? c + ('a' - 'A') : c);
}

// Calls `emit` with each lowercased token of `text`, in order.
template <typename Emit>
void ForEachToken(std::string_view text, Emit emit) {
  std::string current;
  for (unsigned char c : text) {
    if (IsWordByte(c)) {
      current.push_back(AsciiLower(c));
    } else if (!current.empty()) {
      emit(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) emit(std::move(current));
}

// Tree nodes by address. A diff holds both roots, so no address in it is
// freed or reused while it runs.
using Nodes = std::vector<const SnapNode*>;
using TermDelta = std::unordered_map<std::string, int64_t>;

void AddTokens(std::string_view text, int64_t sign, TermDelta* delta) {
  ForEachToken(text, [&](std::string token) {
    (*delta)[std::move(token)] += sign;
  });
}

// Adds the token changes that turn `old_text` into `new_text`. Their common
// prefix up to its last separator, and their common suffix from its first
// one, tokenize the same on both sides (no token crosses a separator), so
// only the words in between are counted.
void AddTextDelta(std::string_view old_text, std::string_view new_text,
                  TermDelta* delta) {
  size_t head = 0;
  while (head < old_text.size() && head < new_text.size() &&
         old_text[head] == new_text[head]) {
    ++head;
  }
  while (head > 0 && IsWordByte(old_text[head - 1])) --head;
  old_text.remove_prefix(head);
  new_text.remove_prefix(head);
  size_t tail = 0;
  while (tail < old_text.size() && tail < new_text.size() &&
         old_text[old_text.size() - 1 - tail] ==
             new_text[new_text.size() - 1 - tail]) {
    ++tail;
  }
  while (tail > 0 && IsWordByte(old_text[old_text.size() - tail])) --tail;
  old_text.remove_suffix(tail);
  new_text.remove_suffix(tail);
  AddTokens(old_text, -1, delta);
  AddTokens(new_text, +1, delta);
}

void AppendTexts(const Nodes& nodes, size_t begin, size_t end,
                 std::string* out) {
  for (size_t s = begin; s < end; ++s) {
    ForEachTextSegment(*nodes[s], [&](const SnapSegment& seg) {
      *out += seg.text;
      return true;
    });
  }
}

// Appends the text of nodes[begin, end) up to its first separator; returns
// whether there was one (false: the whole run was appended).
bool AppendLeadingWord(const Nodes& nodes, size_t begin, size_t end,
                       std::string* out) {
  bool separated = false;
  for (size_t s = begin; s < end && !separated; ++s) {
    ForEachTextSegment(*nodes[s], [&](const SnapSegment& seg) {
      const std::string& text = seg.text;
      for (size_t i = 0; i < text.size(); ++i) {
        if (!IsWordByte(text[i])) {
          out->append(text, 0, i);
          separated = true;
          return false;
        }
      }
      *out += text;
      return true;
    });
  }
  return separated;
}

// Appends the text of nodes[begin, end) after its last separator (all of
// it if there is none).
void AppendTrailingWord(const Nodes& nodes, size_t begin, size_t end,
                        std::string* out) {
  // Leaf texts after the last separator, nearest to `end` first.
  std::vector<const std::string*> tail;
  bool separated = false;
  for (size_t s = end; s-- > begin && !separated;) {
    ForEachTextSegment(
        *nodes[s],
        [&](const SnapSegment& seg) {
          const std::string& text = seg.text;
          for (size_t i = text.size(); i > 0; --i) {
            if (!IsWordByte(text[i - 1])) {
              out->append(text, i);
              separated = true;
              return false;
            }
          }
          tail.push_back(&text);
          return true;
        },
        /*backward=*/true);
  }
  for (auto it = tail.rbegin(); it != tail.rend(); ++it) *out += **it;
}

// Where two node lists differ: old[old_begin, old_end) was replaced by
// new[new_begin, new_end), between two nodes both lists share.
struct Gap {
  size_t old_begin, old_end;
  size_t new_begin, new_end;
};

// The gaps between the nodes `old_nodes` and `new_nodes` share by pointer.
// Copy-on-write never reorders nodes, so the shared ones must form an
// ordered common subsequence; if they do not, the whole list is one gap.
std::vector<Gap> SharedGaps(const Nodes& old_nodes, const Nodes& new_nodes) {
  // Edits between two refreshes are usually in one place: step over the
  // shared head and tail before indexing what lies between.
  size_t head = 0;
  while (head < old_nodes.size() && head < new_nodes.size() &&
         old_nodes[head] == new_nodes[head]) {
    ++head;
  }
  size_t old_tail = old_nodes.size();
  size_t new_tail = new_nodes.size();
  while (old_tail > head && new_tail > head &&
         old_nodes[old_tail - 1] == new_nodes[new_tail - 1]) {
    --old_tail;
    --new_tail;
  }
  // (address, position) of the old nodes in between, sorted for binary
  // search: one allocation, where a node-based hash map takes one each.
  std::vector<std::pair<const SnapNode*, size_t>> old_index;
  old_index.reserve(old_tail - head);
  for (size_t i = head; i < old_tail; ++i) {
    old_index.emplace_back(old_nodes[i], i);
  }
  std::sort(old_index.begin(), old_index.end());
  std::vector<Gap> gaps;
  size_t old_next = head;  // just past the last shared node
  size_t new_next = head;
  for (size_t j = head; j <= new_tail; ++j) {
    size_t i = old_tail;  // the shared tail acts as a final shared node
    if (j < new_tail) {
      auto it = std::lower_bound(old_index.begin(), old_index.end(),
                                 std::make_pair(new_nodes[j], size_t{0}));
      if (it == old_index.end() || it->first != new_nodes[j]) continue;
      i = it->second;
    }
    if (i < old_next) {
      return {Gap{0, old_nodes.size(), 0, new_nodes.size()}};
    }
    if (i > old_next || j > new_next) {
      gaps.push_back(Gap{old_next, i, new_next, j});
    }
    old_next = i + 1;
    new_next = j + 1;
  }
  return gaps;
}

// The children of nodes[begin, end), in order.
Nodes Children(const Nodes& nodes, size_t begin, size_t end) {
  Nodes out;
  for (size_t i = begin; i < end; ++i) {
    for (const auto& child : AsInterior(*nodes[i]).children) {
      out.push_back(child.get());
    }
  }
  return out;
}

// Lays out the leaf sequences under `old_level` and `new_level` (each a
// list of nodes of one height, or empty) with every subtree the two share
// kept whole: a shared subtree appears as the same pointer in both
// outputs, at the same place in the order, and everything else is
// expanded down to its leaves. Level by level, only the children of the
// gaps between shared nodes are opened, so the walk follows the paths that
// copy-on-write cloned. Appends the gaps between the shared leaves and
// subtrees, in order, to `gaps`.
void LayOut(Nodes old_level, Nodes new_level, Nodes* old_out, Nodes* new_out,
            std::vector<Gap>* gaps) {
  auto height = [](const Nodes& level) {
    return level.empty() ? 0 : level.front()->height;
  };
  // Nodes of different heights are never shared: open the taller side.
  while (height(old_level) != height(new_level)) {
    Nodes& taller =
        height(old_level) > height(new_level) ? old_level : new_level;
    taller = Children(taller, 0, taller.size());
  }
  if (height(new_level) == 0) {
    for (const Gap& gap : SharedGaps(old_level, new_level)) {
      gaps->push_back(Gap{old_out->size() + gap.old_begin,
                          old_out->size() + gap.old_end,
                          new_out->size() + gap.new_begin,
                          new_out->size() + gap.new_end});
    }
    old_out->insert(old_out->end(), old_level.begin(), old_level.end());
    new_out->insert(new_out->end(), new_level.begin(), new_level.end());
    return;
  }
  size_t old_next = 0;
  size_t new_next = 0;
  auto shared_run = [&](size_t old_end, size_t new_end) {
    old_out->insert(old_out->end(), old_level.begin() + old_next,
                    old_level.begin() + old_end);
    new_out->insert(new_out->end(), new_level.begin() + new_next,
                    new_level.begin() + new_end);
  };
  for (const Gap& gap : SharedGaps(old_level, new_level)) {
    shared_run(gap.old_begin, gap.new_begin);
    LayOut(Children(old_level, gap.old_begin, gap.old_end),
           Children(new_level, gap.new_begin, gap.new_end), old_out, new_out,
           gaps);
    old_next = gap.old_end;
    new_next = gap.new_end;
  }
  shared_run(old_level.size(), new_level.size());
}

// Token count changes that turn the content of the tree at `old_root` into
// that of `new_root` (either may be null: empty). The two trees are laid
// out down to the leaves where they differ, and each gap between shared
// leaves or subtrees is widened to word boundaries inside the shared text
// around it, so no token crosses a window's edge; gaps with no separator
// between them (adjacent ones included) share one window. Shared text
// outside the windows tokenizes the same in both and is never read.
TermDelta ContentDelta(const SnapNode* old_root, const SnapNode* new_root) {
  Nodes old_nodes;
  Nodes new_nodes;
  std::vector<Gap> gaps;
  LayOut(old_root ? Nodes{old_root} : Nodes{},
         new_root ? Nodes{new_root} : Nodes{}, &old_nodes, &new_nodes, &gaps);
  TermDelta delta;
  for (size_t g = 0; g < gaps.size();) {
    std::string before;
    AppendTrailingWord(new_nodes, g == 0 ? 0 : gaps[g - 1].new_end,
                       gaps[g].new_begin, &before);
    std::string old_window = before;
    std::string new_window = std::move(before);
    bool separated = false;
    while (!separated && g < gaps.size()) {
      AppendTexts(old_nodes, gaps[g].old_begin, gaps[g].old_end, &old_window);
      AppendTexts(new_nodes, gaps[g].new_begin, gaps[g].new_end, &new_window);
      size_t run_end =
          g + 1 < gaps.size() ? gaps[g + 1].new_begin : new_nodes.size();
      std::string after;
      separated =
          AppendLeadingWord(new_nodes, gaps[g].new_end, run_end, &after);
      old_window += after;
      new_window += after;
      ++g;
    }
    AddTextDelta(old_window, new_window, &delta);
  }
  return delta;
}

// Moves `pos` back to the first byte of the UTF-8 code point it falls in.
size_t CodePointStart(const std::string& text, size_t pos) {
  while (pos > 0 && pos < text.size() &&
         (static_cast<unsigned char>(text[pos]) & 0xC0) == 0x80) {
    --pos;
  }
  return pos;
}

}  // namespace

std::vector<std::string> Tokenize(const std::string& text) {
  std::vector<std::string> out;
  ForEachToken(text, [&](std::string token) {
    out.push_back(std::move(token));
  });
  return out;
}

SearchEngine::SearchEngine(Database* db, TextStore* text, MetaStore* meta,
                           DocumentModel* docs, LineageAnalyzer* lineage)
    : db_(db), text_(text), meta_(meta), docs_(docs), lineage_(lineage) {}

Status SearchEngine::Init() {
  // Index nothing yet: every stored document is dirty at version 0, and the
  // first query builds each one's postings by diffing from empty. So a
  // restart loads no chain on the search index's behalf.
  std::vector<DocumentId> docs = text_->ListDocuments();
  {
    MutexLock lock(mu_);
    for (DocumentId doc : docs) dirty_docs_[doc.value] = 0;
  }
  db_->txns()->AddCommitListener(
      [this](TxnId, UserId, const ChangeBatch& batch) {
        for (const ChangeEvent& ev : batch) {
          if (!ev.doc.valid()) continue;
          switch (ev.kind) {
            case ChangeKind::kTextInserted:
            case ChangeKind::kTextDeleted:
            case ChangeKind::kDocumentCreated:
            case ChangeKind::kDocumentRenamed:
            case ChangeKind::kUndoApplied:
            case ChangeKind::kRedoApplied: {
              MutexLock lock(mu_);
              Version& marked = dirty_docs_[ev.doc.value];
              marked = std::max(marked, ev.version);
              break;
            }
            default:
              break;
          }
        }
      });
  return Status::OK();
}

Status SearchEngine::IndexDocument(DocumentId doc) {
  // One MVCC snapshot gives version, tree and name from the same
  // committed state, so the three can never straddle a concurrent edit.
  auto snap = text_->AcquireSnapshot(doc);
  if (!snap.ok()) return snap.status();
  const CharListSnapshot& now = **snap;
  const std::string& name = now.info().name;
  for (;;) {
    bool indexed = false;
    Version base_version = 0;
    std::shared_ptr<const SnapNode> base;
    std::string base_name;
    {
      MutexLock lock(mu_);
      auto it = doc_postings_.find(doc.value);
      if (it != doc_postings_.end()) {
        indexed = true;
        base_version = it->second.version;
        if (base_version >= now.version()) break;  // already this fresh
        base = it->second.root;
        base_name = it->second.name;
      }
    }

    TermDelta delta = ContentDelta(base.get(), now.root().get());
    if (base_name != name) AddTextDelta(base_name, name, &delta);
    // Declared before the lock so the replaced tree is released after it.
    std::shared_ptr<const SnapNode> pinned = now.root();

    MutexLock lock(mu_);
    auto it = doc_postings_.find(doc.value);
    if ((it != doc_postings_.end()) != indexed ||
        (indexed && it->second.version != base_version)) {
      continue;  // a concurrent refresh moved the base: diff again
    }
    DocPostings& p = doc_postings_[doc.value];
    for (const auto& [term, change] : delta) {
      if (change == 0) continue;
      auto count = p.counts.find(term);
      const int64_t before = count == p.counts.end() ? 0 : count->second;
      const int64_t after = before + change;
      TENDAX_CHECK(after >= 0);  // a delta never removes more than is there
      p.term_count += change;
      if (after <= 0) {
        p.counts.erase(count);
        auto td = term_docs_.find(term);
        td->second.erase(doc.value);
        if (td->second.empty()) term_docs_.erase(td);
      } else if (before == 0) {
        p.counts.emplace(term, static_cast<uint32_t>(after));
        term_docs_[term].insert(doc.value);
      } else {
        count->second = static_cast<uint32_t>(after);
      }
    }
    p.version = now.version();
    p.root.swap(pinned);
    p.name = name;
    break;
  }
  MutexLock lock(mu_);
  auto dirty = dirty_docs_.find(doc.value);
  if (dirty != dirty_docs_.end() && dirty->second <= now.version()) {
    dirty_docs_.erase(dirty);
  }
  return Status::OK();
}

Status SearchEngine::FlushDirty() {
  std::vector<uint64_t> dirty;
  {
    MutexLock lock(mu_);
    dirty.reserve(dirty_docs_.size());
    for (const auto& [doc, version] : dirty_docs_) dirty.push_back(doc);
  }
  for (uint64_t doc : dirty) {
    TENDAX_RETURN_IF_ERROR(IndexDocument(DocumentId(doc)));
  }
  return Status::OK();
}

double SearchEngine::TfIdf(const std::vector<std::string>& terms,
                           uint64_t doc) const {
  auto dp = doc_postings_.find(doc);
  if (dp == doc_postings_.end() || dp->second.term_count == 0) return 0;
  double n_docs = static_cast<double>(doc_postings_.size());
  double score = 0;
  for (const std::string& term : terms) {
    auto count = dp->second.counts.find(term);
    if (count == dp->second.counts.end()) continue;
    double tf = static_cast<double>(count->second) /
                static_cast<double>(dp->second.term_count);
    auto td = term_docs_.find(term);
    double df = td == term_docs_.end()
                    ? 1
                    : static_cast<double>(td->second.size());
    score += tf * std::log(1.0 + n_docs / df);
  }
  return score;
}

Result<double> SearchEngine::RankScore(DocumentId doc, Ranking ranking,
                                       const std::vector<std::string>& terms) {
  switch (ranking) {
    case Ranking::kRelevance: {
      MutexLock lock(mu_);
      return TfIdf(terms, doc.value);
    }
    case Ranking::kNewest: {
      auto meta = meta_->Meta(doc);
      return static_cast<double>(meta.last_edit_at);
    }
    case Ranking::kMostCited: {
      auto cites = lineage_->CitationCount(doc);
      if (!cites.ok()) return cites.status();
      return static_cast<double>(*cites);
    }
    case Ranking::kMostRead: {
      auto meta = meta_->Meta(doc);
      return static_cast<double>(meta.total_reads);
    }
  }
  return Status::InvalidArgument("unknown ranking");
}

Status SearchEngine::ApplyFilter(const SearchFilter& filter,
                                 const std::vector<std::string>& terms,
                                 std::set<uint64_t>* candidates) {
  if (filter.author.has_value() || filter.edited_since != 0) {
    for (auto it = candidates->begin(); it != candidates->end();) {
      auto meta = meta_->Meta(DocumentId(*it));
      bool keep = true;
      if (filter.author.has_value() &&
          !meta.authors.count(*filter.author)) {
        keep = false;
      }
      if (filter.edited_since != 0 &&
          meta.last_edit_at < filter.edited_since) {
        keep = false;
      }
      it = keep ? std::next(it) : candidates->erase(it);
    }
  }
  if (filter.state.has_value()) {
    for (auto it = candidates->begin(); it != candidates->end();) {
      auto info = text_->GetDocumentInfo(DocumentId(*it));
      bool keep = info.ok() && info->state == *filter.state;
      it = keep ? std::next(it) : candidates->erase(it);
    }
  }
  if (filter.element_type.has_value()) {
    // Structure search: at least one query term must occur inside an
    // element of the requested type.
    for (auto it = candidates->begin(); it != candidates->end();) {
      DocumentId doc(*it);
      bool keep = false;
      auto tree = docs_->ElementTree(doc);
      if (tree.ok()) {
        for (const ElementInfo& e : *tree) {
          if (e.type != *filter.element_type) continue;
          if (!e.start_pos || !e.end_pos) continue;
          auto piece =
              text_->TextRange(doc, *e.start_pos,
                               *e.end_pos - *e.start_pos + 1);
          if (!piece.ok()) continue;
          std::vector<std::string> inside = Tokenize(*piece);
          for (const std::string& term : terms) {
            if (std::find(inside.begin(), inside.end(), term) !=
                inside.end()) {
              keep = true;
              break;
            }
          }
          if (keep) break;
        }
      }
      it = keep ? std::next(it) : candidates->erase(it);
    }
  }
  return Status::OK();
}

std::string SearchEngine::Snippet(DocumentId doc, const std::string& term) {
  constexpr size_t kBefore = 20;   // bytes of context before the match
  constexpr size_t kLength = 60;   // bytes of snippet from there
  constexpr size_t kNoMatch = 40;  // bytes shown when the term is absent
  auto snap = text_->AcquireSnapshot(doc);
  if (!snap.ok()) return "";
  // Read text chunks until kLength bytes past the first match: the rest of
  // the document cannot change the snippet.
  std::string text;
  size_t at = std::string::npos;
  const std::shared_ptr<const SnapNode>& root = (*snap)->root();
  if (root != nullptr) ForEachTextChunk(*root, [&](const std::string& chunk) {
    // A match may straddle the boundary: resume just before the new text.
    size_t from =
        text.size() >= term.size() ? text.size() - term.size() + 1 : 0;
    text += chunk;
    if (at == std::string::npos) {
      auto hit = std::search(text.begin() + from, text.end(), term.begin(),
                             term.end(), [](unsigned char c, char t) {
                               return AsciiLower(c) == t;
                             });
      if (hit != text.end()) at = hit - text.begin();
    }
    return at == std::string::npos || text.size() <= at + kLength;
  });
  // Cuts snap back to code-point starts, so no snippet splits a character.
  if (at == std::string::npos) {
    return text.substr(0,
                       CodePointStart(text, std::min(kNoMatch, text.size())));
  }
  size_t start = CodePointStart(text, at > kBefore ? at - kBefore : 0);
  size_t end = CodePointStart(text, std::min(start + kLength, text.size()));
  std::string snip = text.substr(start, end - start);
  for (char& c : snip) {
    if (c == '\n') c = ' ';
  }
  return (start > 0 ? "..." : "") + snip + (end < text.size() ? "..." : "");
}

Result<std::vector<SearchResult>> SearchEngine::Search(
    const std::string& query, Ranking ranking, const SearchFilter& filter,
    size_t limit) {
  std::vector<std::string> terms = Tokenize(query);
  if (terms.empty()) return Status::InvalidArgument("empty query");
  TENDAX_RETURN_IF_ERROR(FlushDirty());

  std::set<uint64_t> candidates;
  {
    MutexLock lock(mu_);
    bool first = true;
    for (const std::string& term : terms) {
      auto it = term_docs_.find(term);
      std::set<uint64_t> docs =
          it == term_docs_.end() ? std::set<uint64_t>() : it->second;
      if (first) {
        candidates = std::move(docs);
        first = false;
      } else {
        std::set<uint64_t> kept;
        std::set_intersection(candidates.begin(), candidates.end(),
                              docs.begin(), docs.end(),
                              std::inserter(kept, kept.begin()));
        candidates = std::move(kept);
      }
      if (candidates.empty()) break;
    }
  }
  TENDAX_RETURN_IF_ERROR(ApplyFilter(filter, terms, &candidates));

  // "Most cited" needs the provenance graph: build it once per query, not
  // once per candidate.
  std::unordered_map<uint64_t, uint64_t> citations;
  if (ranking == Ranking::kMostCited) {
    auto graph = lineage_->BuildGraph();
    if (!graph.ok()) return graph.status();
    std::unordered_map<uint64_t, std::set<uint64_t>> citing;
    for (const auto& [edge, count] : graph->internal_edges) {
      citing[edge.first].insert(edge.second);
    }
    for (const auto& [doc, dsts] : citing) {
      citations[doc] = dsts.size();
    }
  }

  std::vector<SearchResult> results;
  for (uint64_t doc : candidates) {
    // The per-candidate scoring loop is the unbounded part of a query (a
    // broad term can match every document), so it honors the caller's
    // request deadline: better a typed refusal than a result nobody is
    // still waiting for.
    if (RequestDeadline::Expired()) {
      return Status::DeadlineExceeded("request deadline expired mid-scan");
    }
    SearchResult r;
    r.doc = DocumentId(doc);
    if (ranking == Ranking::kMostCited) {
      auto it = citations.find(doc);
      r.score = it == citations.end() ? 0 : static_cast<double>(it->second);
    } else {
      auto score = RankScore(r.doc, ranking, terms);
      if (!score.ok()) return score.status();
      r.score = *score;
    }
    results.push_back(std::move(r));
  }
  std::sort(results.begin(), results.end(),
            [](const SearchResult& a, const SearchResult& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.doc < b.doc;
            });
  if (results.size() > limit) results.resize(limit);
  // Names and snippets are presentation data: only fetch them for the
  // results actually returned.
  for (SearchResult& r : results) {
    auto info = text_->GetDocumentInfo(r.doc);
    if (info.ok()) r.name = info->name;
    r.snippet = Snippet(r.doc, terms.front());
  }
  return results;
}

Result<std::vector<SearchResult>> SearchEngine::SearchPhrase(
    const std::string& phrase, Ranking ranking, size_t limit) {
  auto results = Search(phrase, ranking, {}, SIZE_MAX);
  if (!results.ok()) return results;
  std::string needle = phrase;
  std::transform(needle.begin(), needle.end(), needle.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  std::vector<SearchResult> verified;
  for (SearchResult& r : *results) {
    auto content = text_->Text(r.doc);
    if (!content.ok()) continue;
    std::string lowered = *content;
    std::transform(lowered.begin(), lowered.end(), lowered.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (lowered.find(needle) != std::string::npos) {
      verified.push_back(std::move(r));
    }
  }
  if (verified.size() > limit) verified.resize(limit);
  return verified;
}

size_t SearchEngine::IndexedTerms() const {
  MutexLock lock(mu_);
  return term_docs_.size();
}

size_t SearchEngine::IndexedDocuments() const {
  MutexLock lock(mu_);
  return doc_postings_.size();
}

size_t SearchEngine::DirtyDocuments() const {
  MutexLock lock(mu_);
  return dirty_docs_.size();
}

}  // namespace tendax
