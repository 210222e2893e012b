#ifndef TENDAX_CORE_TENDAX_H_
#define TENDAX_CORE_TENDAX_H_

#include <memory>
#include <string>

#include "collab/admission.h"
#include "collab/editor.h"
#include "collab/session_manager.h"
#include "collab/undo_manager.h"
#include "db/database.h"
#include "document/document_model.h"
#include "document/templates.h"
#include "folders/folders.h"
#include "lineage/lineage.h"
#include "meta/meta_store.h"
#include "mining/mining.h"
#include "search/search_engine.h"
#include "security/access_control.h"
#include "text/diff.h"
#include "text/text_store.h"
#include "workflow/workflow_engine.h"

namespace tendax {

/// Server configuration.
struct TendaxOptions {
  /// Storage/transaction options (path empty = in-memory database).
  /// `db.disk` and `db.log_storage` accept pre-built backends — fault
  /// injection tests plug `FaultInjecting{DiskManager,LogStorage}` wrappers
  /// in here and reopen over the inner backends to model a crash+restart.
  ///
  /// Commit durability has no knob: each commit flushes the WAL inline,
  /// and because one flush runs at a time and takes everything buffered,
  /// keystroke commits that arrive during an fsync share the next one.
  ///
  /// `db.checkpoint_interval_micros` / `db.checkpoint_dirty_page_threshold`
  /// arm the background fuzzy checkpointer (either trigger suffices): it
  /// periodically writes back pre-checkpoint dirty pages, logs an ARIES
  /// begin/end pair, and — over the segmented WAL, in memory and on disk
  /// alike, rotating every `db.wal_segment_bytes` — deletes log segments
  /// recovery can no longer need. Editing continues throughout;
  /// the checkpointer thread stops with the server. Neither trigger is set
  /// by default: a clean close already leaves an empty log, so a restart
  /// replays only what a crash left, and no checkpoint I/O runs beside
  /// keystroke commits. Between restarts the log grows with the typing;
  /// arm the checkpointer to bound it over a long uptime.
  DatabaseOptions db;
  /// Whether documents without explicit grants are open to every user
  /// (the demo's LAN-party default) or restricted to their creator.
  bool default_open_access = true;
  /// Session-resilience knobs: lease TTL (0 = immortal sessions) and the
  /// per-session change-stream cap before coalescing into a resync marker.
  SessionOptions session;
  /// Observability. Counters and gauges are always live (their cost is a
  /// relaxed atomic add); turning this off additionally disables latency
  /// histograms, so instrumented paths skip their clock reads — the
  /// near-zero-cost configuration benchmarked by BM_MetricsOverhead.
  /// Ignored when `db.metrics` is already set.
  bool metrics_enabled = true;
  /// Overload protection. `admission.max_inflight = 0` (the default) turns
  /// admission control off entirely; nonzero bounds concurrent wire
  /// requests, queues the overflow in priority order (heartbeats/resumes >
  /// edits > stats), and sheds the rest with typed kUnavailable + a
  /// retry-after hint. The degradation probe is wired automatically: when
  /// `db.checkpoint_dirty_page_threshold` is set and the buffer pool's
  /// dirty-page count reaches it, background traffic is shed outright and
  /// new sessions are refused until pressure clears.
  AdmissionOptions admission;
};

/// The TeNDaX server: one embedded database plus every subsystem of the
/// paper wired together — native text storage, automatic metadata capture,
/// access control, collaborative sessions with awareness and undo/redo,
/// in-document workflows, dynamic folders, data lineage, search, and
/// text/visual mining.
///
/// Typical use:
///
///   auto server = TendaxServer::Open({});
///   auto alice  = (*server)->accounts()->CreateUser("alice");
///   auto editor = (*server)->AttachEditor(*alice, "editor-linux");
///   auto doc    = (*editor)->CreateDocument("notes.txt");
///   (*editor)->Type(*doc, 0, "hello, tendax");
class TendaxServer {
 public:
  static Result<std::unique_ptr<TendaxServer>> Open(TendaxOptions options);

  TendaxServer(const TendaxServer&) = delete;
  TendaxServer& operator=(const TendaxServer&) = delete;

  /// Connects a new editor client for `user`.
  Result<std::unique_ptr<Editor>> AttachEditor(UserId user,
                                               const std::string& client);

  Database* db() { return db_.get(); }
  MetricsRegistry* metrics() { return db_->metrics(); }
  TextStore* text() { return text_.get(); }
  MetaStore* meta() { return meta_.get(); }
  AccessControl* accounts() { return acl_.get(); }
  DocumentModel* documents() { return docs_.get(); }
  SessionManager* sessions() { return sessions_.get(); }
  AdmissionController* admission() { return admission_.get(); }
  UndoManager* undo() { return undo_.get(); }
  WorkflowEngine* workflows() { return workflows_.get(); }
  LineageAnalyzer* lineage() { return lineage_.get(); }
  FolderManager* folders() { return folders_.get(); }
  SearchEngine* search() { return search_.get(); }
  TextMiner* text_miner() { return text_miner_.get(); }
  VisualMiner* visual_miner() { return visual_miner_.get(); }
  VersionDiff* diff() { return diff_.get(); }
  TemplateStore* templates() { return templates_.get(); }

  /// Quiescent checkpoint of the underlying database. Fails with
  /// FailedPrecondition while any transaction is active — prefer
  /// `CheckpointNow()` on a live server.
  Status Checkpoint() { return db_->Checkpoint(); }

  /// Fuzzy checkpoint: runs concurrently with active editor sessions.
  Status CheckpointNow() { return db_->CheckpointNow(); }

  /// Full structural integrity sweep of the underlying database (pages,
  /// tables). See `Database::CheckIntegrity`.
  Status CheckIntegrity() const { return db_->CheckIntegrity(); }

 private:
  TendaxServer() = default;

  std::unique_ptr<Database> db_;
  std::unique_ptr<TextStore> text_;
  std::unique_ptr<MetaStore> meta_;
  std::unique_ptr<AccessControl> acl_;
  std::unique_ptr<DocumentModel> docs_;
  std::unique_ptr<SessionManager> sessions_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<UndoManager> undo_;
  std::unique_ptr<WorkflowEngine> workflows_;
  std::unique_ptr<LineageAnalyzer> lineage_;
  std::unique_ptr<FolderManager> folders_;
  std::unique_ptr<SearchEngine> search_;
  std::unique_ptr<TextMiner> text_miner_;
  std::unique_ptr<VisualMiner> visual_miner_;
  std::unique_ptr<VersionDiff> diff_;
  std::unique_ptr<TemplateStore> templates_;
};

}  // namespace tendax

#endif  // TENDAX_CORE_TENDAX_H_
