#include "txn/txn_manager.h"

#include "util/logging.h"

namespace tendax {

TxnManager::TxnManager(Wal* wal, LockManager* locks, Clock* clock,
                       bool sync_commit, MetricsRegistry* metrics)
    : wal_(wal), locks_(locks), clock_(clock), sync_commit_(sync_commit) {
  if (metrics != nullptr) {
    m_begun_ = metrics->counter("txn.begun");
    m_committed_ = metrics->counter("txn.committed");
    m_aborted_ = metrics->counter("txn.aborted");
    m_snapshot_reads_ = metrics->counter("txn.snapshot_reads");
    m_commit_micros_ = metrics->histogram("txn.commit_micros");
  }
}

Transaction* TxnManager::Begin(UserId user, TxnMode mode) {
  TxnId id(next_txn_id_.fetch_add(1, std::memory_order_relaxed));
  auto txn = std::make_unique<Transaction>(id, user, clock_->NowMicros(), mode);
  Transaction* raw = txn.get();
  // Snapshot-read transactions never log, so a begin record would only be
  // dead weight in the log (and would pin WAL truncation via the ATT).
  if (wal_ != nullptr && mode == TxnMode::kReadWrite) {
    LogRecord rec;
    rec.type = LogType::kBegin;
    rec.txn = id;
    const Lsn lsn = wal_->Append(&rec);
    raw->set_prev_lsn(lsn);
    raw->first_lsn_ = lsn;
  }
  {
    MutexLock lock(mu_);
    active_[id.value] = std::move(txn);
    ++stats_.begun;
    MetricAdd(m_begun_);
  }
  if (mode == TxnMode::kSnapshotRead) MetricAdd(m_snapshot_reads_);
  return raw;
}

Status TxnManager::Commit(Transaction* txn) {
  TENDAX_CHECK(txn->state() == TxnState::kActive);
  // First statement after the precondition so every exit — flush failure
  // and success — records commit latency via RAII.
  ScopedTimer commit_timer(m_commit_micros_);
  // Every logged begin ends in a commit record, or recovery would count a
  // transaction that wrote nothing as a loser. Only one that wrote waits
  // for the flush: losing an empty transaction's commit undoes nothing.
  if (txn->first_lsn() != kInvalidLsn) {
    LogRecord rec;
    rec.type = LogType::kCommit;
    rec.txn = txn->id();
    rec.prev_lsn = txn->prev_lsn();
    const Lsn lsn = wal_->Append(&rec);
    if (sync_commit_ && !txn->read_only()) {
      // Strict 2PL: locks are held through the flush, so a failed flush
      // can roll back in place — effects undone, locks released, no
      // listeners run. Whether the commit record reached durable storage
      // is ambiguous; recovery resolves it from the surviving log.
      Status flushed = wal_->CommitFlush(lsn);
      if (!flushed.ok()) {
        (void)Abort(txn);
        return flushed;
      }
    }
  }
  // Copy what listeners need before the transaction object is destroyed.
  TxnId id = txn->id();
  UserId user = txn->user();
  ChangeBatch events = txn->events();

  Finalize(txn, TxnState::kCommitted);

  {
    MutexLock lock(mu_);
    ++stats_.committed;
    MetricAdd(m_committed_);
  }
  for (const auto& listener : listeners_) {
    listener(id, user, events);
  }
  return Status::OK();
}

Status TxnManager::Abort(Transaction* txn) {
  TENDAX_CHECK(txn->state() == TxnState::kActive);
  // Undo the write set in reverse order, logging a compensation record per
  // undone change so that a crash mid-abort recovers correctly. A failed
  // undo step (a page read error) degrades to best-effort undo: the
  // transaction is always finalized so locks never leak, and crash recovery
  // re-runs any missed undo from the surviving log suffix.
  Status first_error = Status::OK();
  const auto& writes = txn->write_set();
  for (auto it = writes.rbegin(); it != writes.rend(); ++it) {
    UpdateOp inverse;
    const std::string* image;
    switch (it->op) {
      case UpdateOp::kInsert:
        inverse = UpdateOp::kDelete;
        image = &it->before;  // empty
        break;
      case UpdateOp::kDelete:
        inverse = UpdateOp::kInsert;
        image = &it->before;
        break;
      case UpdateOp::kUpdate:
        inverse = UpdateOp::kUpdate;
        image = &it->before;
        break;
      default:
        return Status::Internal("unknown op in write set");
    }
    Lsn clr_lsn = kInvalidLsn;
    if (wal_ != nullptr) {
      LogRecord clr;
      clr.type = LogType::kCompensation;
      clr.txn = txn->id();
      clr.prev_lsn = txn->prev_lsn();
      clr.op = inverse;
      clr.table_id = it->table_id;
      clr.rid = it->rid;
      clr.after = *image;
      clr.undo_next_lsn = it->lsn;
      clr_lsn = wal_->Append(&clr);
      txn->set_prev_lsn(clr_lsn);
    }
    if (applier_ != nullptr) {
      Status applied = applier_->ApplyChange(it->table_id, inverse, it->rid,
                                             *image, clr_lsn);
      if (!applied.ok() && first_error.ok()) first_error = applied;
    }
  }
  if (txn->first_lsn() != kInvalidLsn) {
    LogRecord rec;
    rec.type = LogType::kAbort;
    rec.txn = txn->id();
    rec.prev_lsn = txn->prev_lsn();
    wal_->Append(&rec);
  }
  // Undo non-logged side effects (index entries etc.) in reverse order.
  const auto& actions = txn->rollback_actions();
  for (auto it = actions.rbegin(); it != actions.rend(); ++it) {
    (*it)();
  }
  Finalize(txn, TxnState::kAborted);
  {
    MutexLock lock(mu_);
    ++stats_.aborted;
    MetricAdd(m_aborted_);
  }
  return first_error;
}

Status TxnManager::RunInTxn(UserId user,
                            const std::function<Status(Transaction*)>& body,
                            int max_retries) {
  Status last = Status::OK();
  for (int attempt = 0; attempt <= max_retries; ++attempt) {
    Transaction* txn = Begin(user);
    Status st = body(txn);
    if (st.ok()) {
      // Commit rolls the transaction back itself on a failed append/flush,
      // so there is nothing left to abort here.
      return Commit(txn);
    }
    Status aborted = Abort(txn);
    if (!aborted.ok()) return aborted;
    if (!st.IsRetryable()) return st;
    last = st;
  }
  return last;
}

Status TxnManager::RunSnapshotRead(
    UserId user, const std::function<Status(Transaction*)>& body) {
  // Snapshot reads hold no locks, never log, and have nothing to undo, so
  // the registry round-trip (two global-mutex crossings per read) would be
  // pure overhead on the lock-free read path. Run on a stack transaction
  // that never enters `active_`: it is invisible to ActiveCount, the
  // checkpoint ATT, and the begun/committed accounting — consistent with
  // the WAL records it never writes.
  Transaction txn(TxnId(next_txn_id_.fetch_add(1, std::memory_order_relaxed)),
                  user, clock_->NowMicros(), TxnMode::kSnapshotRead);
  MetricAdd(m_snapshot_reads_);
  Status st = body(&txn);
  txn.state_ = st.ok() ? TxnState::kCommitted : TxnState::kAborted;
  return st;
}

void TxnManager::AddCommitListener(CommitListener listener) {
  // Commit reads listeners_ without a lock, so registration must not race
  // a commit: it is legal only while no transaction is in flight.
  TENDAX_CHECK(ActiveCount() == 0);
  listeners_.push_back(std::move(listener));
}

Result<Lsn> TxnManager::LogUpdate(Transaction* txn, UpdateOp op,
                                  uint64_t table_id, uint64_t rid,
                                  std::string before, std::string after) {
  if (txn->is_snapshot_read()) {
    return Status::FailedPrecondition(
        "snapshot-read transaction cannot log updates");
  }
  Lsn lsn = kInvalidLsn;
  if (wal_ != nullptr) {
    LogRecord rec;
    rec.type = LogType::kUpdate;
    rec.txn = txn->id();
    rec.prev_lsn = txn->prev_lsn();
    rec.op = op;
    rec.table_id = table_id;
    rec.rid = rid;
    rec.before = before;
    rec.after = after;
    lsn = wal_->Append(&rec);
    txn->set_prev_lsn(lsn);
  }
  txn->AddWrite(WriteEntry{op, table_id, rid, std::move(before),
                           std::move(after), lsn});
  return lsn;
}

size_t TxnManager::ActiveCount() const {
  MutexLock lock(mu_);
  return active_.size();
}

std::vector<CheckpointTxnEntry> TxnManager::ActiveTxnTable() const {
  MutexLock lock(mu_);
  std::vector<CheckpointTxnEntry> att;
  att.reserve(active_.size());
  for (const auto& [id, txn] : active_) {
    // Snapshot-read transactions have no log records for recovery to walk:
    // including them (first_lsn = kInvalidLsn) would only pin truncation.
    if (txn->is_snapshot_read()) continue;
    CheckpointTxnEntry e;
    e.txn = id;
    e.first_lsn = txn->first_lsn();
    e.last_lsn = txn->prev_lsn();
    att.push_back(e);
  }
  return att;
}

TxnManagerStats TxnManager::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void TxnManager::Finalize(Transaction* txn, TxnState state) {
  txn->state_ = state;
  locks_->ReleaseAll(txn->id());
  MutexLock lock(mu_);
  active_.erase(txn->id().value);  // destroys *txn
}

}  // namespace tendax
