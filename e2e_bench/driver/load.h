// Load-generation pieces the three workloads share: per-thread tallies,
// typists over single-writer and shared documents, change-stream watchers,
// timed searches and the end-of-run checks that go with them.
#ifndef TENDAX_E2E_BENCH_LOAD_H_
#define TENDAX_E2E_BENCH_LOAD_H_

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness.h"
#include "workload/generators.h"

namespace bench {

/// Samples and tallies of one load thread; merged into the pass at the end.
struct ThreadStats {
  OpTally ops;                  // inside the measured window
  uint64_t load_keystrokes = 0;  // acknowledged gestures, warm-up included
  Samples keystroke, read, search, propagation, lag, from_due;
  void MergeInto(PassResult* r) const;
};

/// Records a mutating gesture, timed from when it was sent; with `due_ns`
/// (open loop) also from when it was due.
void RecordKeystroke(ThreadStats* s, bool measured, const Exchange& x,
                     int64_t due_ns = 0);
void RecordRead(ThreadStats* s, bool measured, const Exchange& x);
/// Counts an operation that is part of a gesture (a typist's kCopy before
/// its kPaste) without adding it to any latency sample.
void RecordUnsampled(ThreadStats* s, bool measured, const Exchange& x);

/// Mixes a run seed with a component number into an independent seed.
uint64_t SubSeed(uint64_t seed, uint64_t component);

/// Zipf(s = 1) choice of an index in [0, n).
class Zipf {
 public:
  Zipf(size_t n, uint64_t seed);
  size_t Next();

 private:
  Random rng_;
  std::vector<double> cdf_;
};

/// Query words drawn from the corpus vocabulary with its Zipf skew.
class QueryGen {
 public:
  QueryGen(uint64_t corpus_seed, uint64_t stream);
  /// One or two words (AND query).
  std::string Next();
  const std::string& Word() { return corpus_.Word(); }

 private:
  CorpusGenerator corpus_;
  Random rng_;
};

// ---------------------------------------------------------------------------
// Propagation index: which typist a change event belongs to and where that
// typist logged its sends. Built at set-up, read-only during the run apart
// from the SendLogs themselves.

class PropagationIndex {
 public:
  void AddTypist(UserId user);
  void AddDocument(DocumentId doc);
  /// Call once every typist and document is added.
  void Seal();
  int typist_of(UserId user) const;
  int doc_index(DocumentId doc) const;
  size_t typists() const { return typist_users_.size(); }
  size_t docs() const { return docs_.size(); }
  SendLog* log(int typist, int doc) {
    return logs_[static_cast<size_t>(typist) * docs_.size() + doc].get();
  }

 private:
  std::vector<uint64_t> typist_users_;
  std::vector<DocumentId> docs_;
  std::unordered_map<uint64_t, int> typist_of_user_;
  std::unordered_map<uint64_t, int> doc_index_;
  std::vector<std::unique_ptr<SendLog>> logs_;
};

/// Sends one mutating gesture and keeps its send in the typist's log, so the
/// watcher can time its propagation. Returns the exchange.
Exchange SendGesture(Agent* agent, const EditCommand& command,
                     SendLog* log, bool measured);

/// Set-up history: `gestures_per_doc` trace gestures (60 % deletes) round
/// robin over `docs`, sent straight to `editor`, with a paste from another
/// document every `paste_every`-th gesture (0 = never). `texts` holds each
/// document's text and is kept in step. With `versions` set, (*versions)[i]
/// [v] receives the fingerprint of document i's text at version v (0 where
/// no gesture ended at v).
Status ChurnDocuments(TendaxServer* server, Editor* editor,
                      const std::vector<DocumentId>& docs,
                      std::vector<std::string>* texts, int gestures_per_doc,
                      int paste_every, uint64_t seed,
                      std::vector<std::vector<uint64_t>>* versions);

// ---------------------------------------------------------------------------
// Typists.

/// Share of a single writer's gestures that undo the gesture before them
/// (half of those are redone at once). Kept well under 1 % of all
/// keystrokes: an undo or redo that revives characters reloads the whole
/// chain, tens of milliseconds, and must not decide keystroke_p99_us.
inline constexpr double kUndoShare = 0.005;

/// A document only one typist edits: the driver keeps its exact text. Undo
/// and redo target only the gesture immediately before them, so the shadow
/// can apply their inverse without modelling character identity.
class SingleWriterDoc {
 public:
  SingleWriterDoc(DocumentId id, std::string text, uint64_t seed,
                  double undo_share);
  DocumentId id() const { return id_; }
  const std::string& text() const { return text_; }

  /// Sends the next gesture (undo, redo, copy->paste within the document, or
  /// a trace insert or delete) and updates the shadow on success.
  void Step(Agent* agent, SendLog* log, bool measured, ThreadStats* stats,
            int64_t due_ns = 0);

 private:
  struct Gesture {
    bool valid = false;
    bool insert = false;
    uint64_t pos = 0;
    std::string text;
    bool undone = false;
  };
  void Apply(bool insert, uint64_t pos, const std::string& text);

  DocumentId id_;
  std::string text_;
  const double undo_share_;
  TypingTraceGenerator gen_;
  Random rng_;
  Gesture last_;
};

/// A document several typists edit at once. Every gesture stays inside
/// [0, floor]; deletes first reserve their length against a lower bound of
/// the live length, which keeps the live length >= floor at all times, so
/// no gesture can fall outside the document whatever the interleaving.
class SharedDoc {
 public:
  SharedDoc(DocumentId id, int64_t initial_len, int64_t floor);
  DocumentId id() const { return id_; }
  int64_t floor() const { return floor_; }
  int64_t expected_len() const {
    return initial_ + inserted_.load() - deleted_.load();
  }

  bool ReserveDelete(int64_t n);
  void ReleaseDelete(int64_t n) { reserved_ += n; }
  void Inserted(int64_t n) {
    inserted_ += n;
    reserved_ += n;
  }
  void Deleted(int64_t n) { deleted_ += n; }

 private:
  const DocumentId id_;
  const int64_t initial_;
  const int64_t floor_;
  std::atomic<int64_t> reserved_;
  std::atomic<int64_t> inserted_{0};
  std::atomic<int64_t> deleted_{0};
};

/// One typist's gestures on shared documents: trace inserts and deletes
/// plus a small share of copy->paste, no undo.
class SharedTypist {
 public:
  explicit SharedTypist(uint64_t seed) : seed_(seed), rng_(seed) {}
  void Step(Agent* agent, SharedDoc* doc, size_t doc_slot, SendLog* log,
            bool measured, ThreadStats* stats);

 private:
  TypingTraceGenerator* Gen(size_t doc_slot);

  const uint64_t seed_;
  Random rng_;
  std::vector<std::unique_ptr<TypingTraceGenerator>> gens_;
};

// ---------------------------------------------------------------------------
// Watchers.

/// One watcher session: polls kResume, matches each change event to the
/// typist send it answers (propagation), and checks that every committed
/// version of each watched document arrives exactly once. Commit listeners
/// run after the document lock is released, so two commits on one document
/// may be delivered in either order; a typist's own gestures never are.
class Watcher {
 public:
  Watcher(std::unique_ptr<Agent> agent, PropagationIndex* index);
  Agent* agent() { return agent_.get(); }

  /// Opens `doc` over the wire; `version` is its committed version now.
  Status Watch(DocumentId doc, Version version);

  /// One kResume exchange. Returns the number of events delivered.
  size_t Poll(bool measured, ThreadStats* stats);
  /// Polls until the stream is empty (end of run, no writers left).
  void Drain(ThreadStats* stats);

  /// Checks every watched document reached `final_version(doc)`; adds a
  /// failure to `r` otherwise. Skipped for a stream that was resynced.
  void CheckFinal(TendaxServer* server, PassResult* r) const;
  uint64_t out_of_order() const { return out_of_order_; }

 private:
  std::unique_ptr<Agent> agent_;
  PropagationIndex* const index_;
  struct Stream {
    Version next = 0;               // lowest version not yet delivered
    std::set<Version> ahead;        // delivered early, above `next`
  };
  std::unordered_map<uint64_t, Stream> streams_;  // by document
  uint64_t out_of_order_ = 0;
  std::vector<size_t> seen_;  // [typist * docs + doc] events matched
  bool resynced_ = false;
  std::string error_;
};

// ---------------------------------------------------------------------------
// Search.

/// Times one SearchEngine::Search call and checks its result list is ranked
/// and bounded. Returns false on a malformed answer.
bool TimedSearch(TendaxServer* server, const std::string& query,
                 bool measured, ThreadStats* stats);

/// End-of-run check: for `terms`, the index returns exactly the documents
/// whose text or name contains the term.
void CheckSearchIndex(TendaxServer* server,
                      const std::vector<std::pair<DocumentId, std::string>>&
                          docs_with_names,
                      const std::vector<std::string>& terms, PassResult* r);

/// Σ FullChain / Σ Length over `docs` (chain records incl. tombstones).
void ChainShape(TendaxServer* server, const std::vector<DocumentId>& docs,
                LayerInputs* in);

}  // namespace bench

#endif  // TENDAX_E2E_BENCH_LOAD_H_
