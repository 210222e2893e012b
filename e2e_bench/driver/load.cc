#include "load.h"

#include <algorithm>
#include <set>

#include "search/search_engine.h"

namespace bench {

namespace {
// Gesture mix beside the typing trace (shares of all gestures).
constexpr double kRedoAfterUndo = 0.5;  // an undo is followed by its redo
constexpr double kPasteShare = 0.03;    // copy a range, paste it elsewhere
// Delete share of the typing trace, chosen so live length holds steady.
constexpr double kDeleteRatio = 0.6;

// The next trace gesture for a document `len` characters long.
// TypingTraceGenerator's cursor drifts to the end of the document, where it
// can delete only one character at a time, so documents would grow with every
// run second. Deletes keep the trace's position but draw their own length
// (1-8) and end no later than `len`, like backspacing at the end.
TypingAction NextGesture(TypingTraceGenerator* gen, Random* rng, size_t len) {
  TypingAction a = gen->Next(len);
  if (a.kind == TypingAction::Kind::kDelete) {
    a.len = std::min<size_t>(1 + rng->Uniform(8), len);
    a.pos = std::min(a.pos, len - a.len);
  }
  return a;
}
}  // namespace

void ThreadStats::MergeInto(PassResult* r) const {
  r->ops.Merge(ops);
  r->keystroke.Merge(keystroke);
  r->read.Merge(read);
  r->search.Merge(search);
  r->propagation.Merge(propagation);
  r->lag.Merge(lag);
  r->from_due.Merge(from_due);
}

void RecordKeystroke(ThreadStats* s, bool measured, const Exchange& x,
                     int64_t due_ns) {
  if (x.ok) ++s->load_keystrokes;
  if (!measured) return;
  ++s->ops.attempted;
  if (!x.ok) {
    ++s->ops.failed;
    s->keystroke.Fail();
    if (due_ns != 0) s->from_due.Fail();
    return;
  }
  ++s->ops.keystrokes;
  s->keystroke.Add(x.us());
  if (due_ns != 0) s->from_due.Add(NsToUs(x.end_ns - due_ns));
}

void RecordRead(ThreadStats* s, bool measured, const Exchange& x) {
  if (!measured) return;
  ++s->ops.attempted;
  if (!x.ok) {
    ++s->ops.failed;
    s->read.Fail();
    return;
  }
  ++s->ops.reads;
  s->read.Add(x.us());
}

void RecordUnsampled(ThreadStats* s, bool measured, const Exchange& x) {
  if (!measured) return;
  ++s->ops.attempted;
  if (!x.ok) ++s->ops.failed;
}

uint64_t SubSeed(uint64_t seed, uint64_t component) {
  // splitmix64 of the pair.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + component + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Zipf::Zipf(size_t n, uint64_t seed) : rng_(seed), cdf_(n) {
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / static_cast<double>(i + 1);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Next() {
  const double u = rng_.NextDouble();
  size_t i = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
  return std::min(i, cdf_.size() - 1);
}

QueryGen::QueryGen(uint64_t corpus_seed, uint64_t stream)
    : corpus_(corpus_seed), rng_(SubSeed(corpus_seed, stream)) {
  // Same vocabulary as the corpus, a different position in its sample
  // stream per query stream.
  for (uint64_t i = 0; i < 997 * stream; ++i) corpus_.Word();
}

std::string QueryGen::Next() {
  std::string q = corpus_.Word();
  if (rng_.Uniform(10) < 3) q += " " + corpus_.Word();
  return q;
}

// --- propagation index --------------------------------------------------------

void PropagationIndex::AddTypist(UserId user) {
  typist_of_user_[user.value] = static_cast<int>(typist_users_.size());
  typist_users_.push_back(user.value);
}

void PropagationIndex::AddDocument(DocumentId doc) {
  doc_index_[doc.value] = static_cast<int>(docs_.size());
  docs_.push_back(doc);
}

void PropagationIndex::Seal() {
  logs_.clear();
  for (size_t i = 0; i < typist_users_.size() * docs_.size(); ++i) {
    logs_.push_back(std::make_unique<SendLog>());
  }
}

int PropagationIndex::typist_of(UserId user) const {
  auto it = typist_of_user_.find(user.value);
  return it == typist_of_user_.end() ? -1 : it->second;
}

int PropagationIndex::doc_index(DocumentId doc) const {
  auto it = doc_index_.find(doc.value);
  return it == doc_index_.end() ? -1 : it->second;
}

Exchange SendGesture(Agent* agent, const EditCommand& command, SendLog* log,
                     bool measured) {
  log->Push(NowNs(), measured);
  Exchange x = Call(agent, command);
  if (!x.ok) log->Pop();
  return x;
}

Status ChurnDocuments(TendaxServer* server, Editor* editor,
                      const std::vector<DocumentId>& docs,
                      std::vector<std::string>* texts, int gestures_per_doc,
                      int paste_every, uint64_t seed,
                      std::vector<std::vector<uint64_t>>* versions) {
  auto note_version = [&](size_t i) -> Status {
    if (versions == nullptr) return Status::OK();
    auto v = server->text()->CurrentVersion(docs[i]);
    if (!v.ok()) return v.status();
    std::vector<uint64_t>& fps = (*versions)[i];
    if (fps.size() <= *v) fps.resize(*v + 1, 0);
    fps[*v] = Fingerprint((*texts)[i]);
    return Status::OK();
  };
  const size_t n = docs.size();
  if (versions != nullptr) versions->assign(n, {});
  std::vector<std::unique_ptr<TypingTraceGenerator>> gens;
  for (size_t i = 0; i < n; ++i) {
    gens.push_back(
        std::make_unique<TypingTraceGenerator>(SubSeed(seed, 100 + i),
                                               kDeleteRatio));
    TENDAX_RETURN_IF_ERROR(note_version(i));
  }
  Random rng(seed);
  for (int step = 0; step < gestures_per_doc * static_cast<int>(n); ++step) {
    const size_t i = step % n;
    std::string& text = (*texts)[i];
    if (paste_every > 0 && n > 1 && step % paste_every == paste_every - 1) {
      const size_t src = (i + 1 + rng.Uniform(n - 1)) % n;
      const std::string& from_text = (*texts)[src];
      const size_t len =
          std::min<size_t>(20 + rng.Uniform(180), from_text.size());
      const size_t from = rng.Uniform(from_text.size() - len + 1);
      auto clip = editor->CopyRange(docs[src], from, len);
      if (!clip.ok()) return clip.status();
      const size_t at = rng.Uniform(text.size() + 1);
      TENDAX_RETURN_IF_ERROR(editor->PasteAt(docs[i], at, *clip));
      text.insert(at, from_text.substr(from, len));
    } else {
      TypingAction a = NextGesture(gens[i].get(), &rng, text.size());
      if (a.kind == TypingAction::Kind::kInsert) {
        TENDAX_RETURN_IF_ERROR(editor->Type(docs[i], a.pos, a.text));
        text.insert(a.pos, a.text);
      } else {
        TENDAX_RETURN_IF_ERROR(editor->Erase(docs[i], a.pos, a.len));
        text.erase(a.pos, a.len);
      }
    }
    TENDAX_RETURN_IF_ERROR(note_version(i));
  }
  return Status::OK();
}

// --- single-writer documents ---------------------------------------------------

SingleWriterDoc::SingleWriterDoc(DocumentId id, std::string text,
                                 uint64_t seed, double undo_share)
    : id_(id),
      text_(std::move(text)),
      undo_share_(undo_share),
      gen_(seed, kDeleteRatio),
      rng_(SubSeed(seed, 1)) {}

void SingleWriterDoc::Apply(bool insert, uint64_t pos,
                            const std::string& text) {
  if (insert) {
    text_.insert(pos, text);
  } else {
    text_.erase(pos, text.size());
  }
}

void SingleWriterDoc::Step(Agent* agent, SendLog* log, bool measured,
                           ThreadStats* stats, int64_t due_ns) {
  const double r = rng_.NextDouble();
  if (last_.valid && last_.undone) {
    if (r < kRedoAfterUndo) {
      Exchange x = SendGesture(agent, Command(CommandKind::kRedo, id_), log,
                               measured);
      RecordKeystroke(stats, measured, x, due_ns);
      if (x.ok) Apply(last_.insert, last_.pos, last_.text);
    }
    last_.valid = false;  // the undone gesture stays undone or is redone
    if (r < kRedoAfterUndo) return;
  }
  if (last_.valid && r < undo_share_) {
    Exchange x =
        SendGesture(agent, Command(CommandKind::kUndo, id_), log, measured);
    RecordKeystroke(stats, measured, x, due_ns);
    if (x.ok) {
      Apply(!last_.insert, last_.pos, last_.text);
      last_.undone = true;
    }
    return;
  }
  if (r < undo_share_ + kPasteShare && text_.size() > 16) {
    const uint64_t len = 1 + rng_.Uniform(std::min<uint64_t>(64, text_.size() / 2));
    const uint64_t from = rng_.Uniform(text_.size() - len + 1);
    Exchange copy = Call(agent, Command(CommandKind::kCopy, id_, from, len));
    RecordUnsampled(stats, measured, copy);
    if (!copy.ok) return;
    const uint64_t at = rng_.Uniform(text_.size() + 1);
    Exchange x = SendGesture(
        agent, Command(CommandKind::kPaste, id_, at, 0, copy.response.payload),
        log, measured);
    RecordKeystroke(stats, measured, x, due_ns);
    if (x.ok) {
      const std::string pasted = text_.substr(from, len);
      Apply(true, at, pasted);
      last_ = Gesture{true, true, at, pasted, false};
    }
    return;
  }
  TypingAction a = NextGesture(&gen_, &rng_, text_.size());
  if (a.kind == TypingAction::Kind::kInsert) {
    Exchange x = SendGesture(
        agent, Command(CommandKind::kType, id_, a.pos, 0, a.text), log,
        measured);
    RecordKeystroke(stats, measured, x, due_ns);
    if (x.ok) {
      Apply(true, a.pos, a.text);
      last_ = Gesture{true, true, a.pos, a.text, false};
    }
  } else {
    const std::string erased = text_.substr(a.pos, a.len);
    Exchange x = SendGesture(
        agent, Command(CommandKind::kErase, id_, a.pos, a.len), log, measured);
    RecordKeystroke(stats, measured, x, due_ns);
    if (x.ok) {
      Apply(false, a.pos, erased);
      last_ = Gesture{true, false, a.pos, erased, false};
    }
  }
}

// --- shared documents -------------------------------------------------------------

SharedDoc::SharedDoc(DocumentId id, int64_t initial_len, int64_t floor)
    : id_(id), initial_(initial_len), floor_(floor), reserved_(initial_len) {}

bool SharedDoc::ReserveDelete(int64_t n) {
  int64_t cur = reserved_.load();
  while (cur - n >= floor_) {
    if (reserved_.compare_exchange_weak(cur, cur - n)) return true;
  }
  return false;
}

TypingTraceGenerator* SharedTypist::Gen(size_t doc_slot) {
  if (gens_.size() <= doc_slot) gens_.resize(doc_slot + 1);
  if (gens_[doc_slot] == nullptr) {
    gens_[doc_slot] = std::make_unique<TypingTraceGenerator>(
        SubSeed(seed_, 100 + doc_slot), kDeleteRatio);
  }
  return gens_[doc_slot].get();
}

void SharedTypist::Step(Agent* agent, SharedDoc* doc, size_t doc_slot,
                        SendLog* log, bool measured, ThreadStats* stats) {
  const uint64_t floor = static_cast<uint64_t>(doc->floor());
  if (rng_.NextDouble() < kPasteShare) {
    const uint64_t len = 1 + rng_.Uniform(64);
    const uint64_t from = rng_.Uniform(floor - len + 1);
    Exchange copy =
        Call(agent, Command(CommandKind::kCopy, doc->id(), from, len));
    RecordUnsampled(stats, measured, copy);
    if (!copy.ok) return;
    Exchange x = SendGesture(
        agent,
        Command(CommandKind::kPaste, doc->id(), rng_.Uniform(floor + 1), 0,
                copy.response.payload),
        log, measured);
    RecordKeystroke(stats, measured, x);
    if (x.ok) doc->Inserted(static_cast<int64_t>(len));
    return;
  }
  TypingAction a = NextGesture(Gen(doc_slot), &rng_, floor);
  if (a.kind == TypingAction::Kind::kInsert) {
    Exchange x = SendGesture(
        agent, Command(CommandKind::kType, doc->id(), a.pos, 0, a.text), log,
        measured);
    RecordKeystroke(stats, measured, x);
    if (x.ok) doc->Inserted(static_cast<int64_t>(a.text.size()));
    return;
  }
  const int64_t n = static_cast<int64_t>(a.len);
  // At the floor a delete would risk the bound; the trace moves on instead.
  if (!doc->ReserveDelete(n)) return;
  Exchange x = SendGesture(
      agent, Command(CommandKind::kErase, doc->id(), a.pos, a.len), log,
      measured);
  RecordKeystroke(stats, measured, x);
  if (x.ok) {
    doc->Deleted(n);
  } else {
    doc->ReleaseDelete(n);
  }
}

// --- watchers ---------------------------------------------------------------------

Watcher::Watcher(std::unique_ptr<Agent> agent, PropagationIndex* index)
    : agent_(std::move(agent)),
      index_(index),
      seen_(index->typists() * index->docs(), 0) {}

Status Watcher::Watch(DocumentId doc, Version version) {
  TENDAX_RETURN_IF_ERROR(agent_->client->Open(doc));
  streams_[doc.value].next = version + 1;
  return Status::OK();
}

size_t Watcher::Poll(bool measured, ThreadStats* stats) {
  int64_t t1 = 0;
  auto changes = [&] {
    ScopedSpan span(kSpanWireClient,
                    static_cast<uint8_t>(CommandKind::kResume));
    auto c = agent_->client->PollChanges();
    t1 = NowNs();
    return c;
  }();
  if (measured) ++stats->ops.attempted;
  if (!changes.ok()) {
    if (measured) ++stats->ops.failed;
    return 0;
  }
  if (measured) ++stats->ops.polls;
  for (const ChangeEvent& ev : changes->events) {
    auto it = streams_.find(ev.doc.value);
    if (it == streams_.end()) continue;
    if (!resynced_) {
      Stream& st = it->second;
      if (ev.version == st.next) {
        ++st.next;
        while (!st.ahead.empty() && *st.ahead.begin() == st.next) {
          st.ahead.erase(st.ahead.begin());
          ++st.next;
        }
      } else if (ev.version > st.next && st.ahead.insert(ev.version).second) {
        ++out_of_order_;
      } else if (error_.empty()) {
        error_ = "watcher saw " + ev.doc.ToString() + " version " +
                 std::to_string(ev.version) + " twice";
      }
      const int t = index_->typist_of(ev.user);
      const int d = index_->doc_index(ev.doc);
      if (t >= 0 && d >= 0) {
        const size_t slot = static_cast<size_t>(t) * index_->docs() + d;
        const int64_t sent = index_->log(t, d)->MeasuredAt(seen_[slot]++);
        if (sent >= 0) stats->propagation.Add(NsToUs(t1 - sent));
      }
    }
  }
  if (changes->resync_required) resynced_ = true;  // counted by the server
  return changes->events.size();
}

void Watcher::Drain(ThreadStats* stats) {
  int empty = 0;
  while (empty < 2) empty = Poll(false, stats) == 0 ? empty + 1 : 0;
}

void Watcher::CheckFinal(TendaxServer* server, PassResult* r) const {
  r->Check(error_.empty(), error_);
  if (resynced_) return;  // counted; per-event delivery no longer promised
  for (const auto& [doc, st] : streams_) {
    auto v = server->text()->CurrentVersion(DocumentId(doc));
    r->Check(v.ok() && *v + 1 == st.next && st.ahead.empty(),
             "watcher missed version " + std::to_string(st.next) +
                 " of doc:" + std::to_string(doc) + ", committed " +
                 (v.ok() ? std::to_string(*v) : v.status().ToString()));
  }
}

// --- search -----------------------------------------------------------------------

bool TimedSearch(TendaxServer* server, const std::string& query,
                 bool measured, ThreadStats* stats) {
  constexpr size_t kLimit = 10;
  const size_t dirty = server->search()->DirtyDocuments();
  int64_t t0 = 0, t1 = 0;
  auto results = [&] {
    ScopedSpan span(kSpanSearch);
    t0 = NowNs();
    auto found =
        server->search()->Search(query, Ranking::kRelevance, {}, kLimit);
    t1 = NowNs();
    return found;
  }();
  if (measured) ++stats->ops.attempted;
  if (!results.ok()) {
    if (measured) {
      ++stats->ops.failed;
      stats->search.Fail();
    }
    return true;
  }
  if (measured) {
    ++stats->ops.searches;
    stats->ops.dirty_docs_at_search += dirty;
    stats->search.Add(NsToUs(t1 - t0));
  }
  if (results->size() > kLimit) return false;
  for (size_t i = 1; i < results->size(); ++i) {
    if ((*results)[i - 1].score < (*results)[i].score) return false;
  }
  return true;
}

void CheckSearchIndex(
    TendaxServer* server,
    const std::vector<std::pair<DocumentId, std::string>>& docs_with_names,
    const std::vector<std::string>& terms, PassResult* r) {
  for (const std::string& term : terms) {
    std::set<uint64_t> expected;
    for (const auto& [doc, name] : docs_with_names) {
      auto text = server->text()->Text(doc);
      if (!text.ok()) {
        r->Fail("search check: " + text.status().ToString());
        return;
      }
      for (const std::string& token : Tokenize(*text + " " + name)) {
        if (token == term) {
          expected.insert(doc.value);
          break;
        }
      }
    }
    auto results = server->search()->Search(term, Ranking::kRelevance, {},
                                            docs_with_names.size() + 1);
    if (!results.ok()) {
      r->Fail("search check: " + results.status().ToString());
      return;
    }
    std::set<uint64_t> got;
    for (const SearchResult& hit : *results) got.insert(hit.doc.value);
    r->Check(got == expected, "search for '" + term + "' returned " +
                                  std::to_string(got.size()) +
                                  " documents, text holds it in " +
                                  std::to_string(expected.size()));
  }
}

void ChainShape(TendaxServer* server, const std::vector<DocumentId>& docs,
                LayerInputs* in) {
  for (DocumentId doc : docs) {
    auto chain = server->text()->FullChain(doc);
    auto len = server->text()->Length(doc);
    if (!chain.ok() || !len.ok()) continue;
    in->chain_records += chain->size();
    in->live_chars += *len;
  }
}

}  // namespace bench
