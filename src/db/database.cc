#include "db/database.h"

#include <algorithm>

#include "db/slotted_page.h"
#include "util/logging.h"

namespace tendax {

Result<std::unique_ptr<Database>> Database::Open(DatabaseOptions options) {
  auto db = std::unique_ptr<Database>(new Database());
  db->clock_ =
      options.clock ? options.clock : std::make_shared<SystemClock>();

  if (options.disk) {
    db->disk_ = options.disk;
  } else if (options.path.empty()) {
    db->disk_ = std::make_shared<InMemoryDiskManager>();
  } else {
    auto disk = FileDiskManager::Open(options.path);
    if (!disk.ok()) return disk.status();
    db->disk_ = std::shared_ptr<DiskManager>(std::move(*disk));
  }

  if (options.log_storage) {
    db->log_storage_ = options.log_storage;
  } else if (options.path.empty()) {
    db->log_storage_ = std::make_shared<InMemoryLogStorage>();
  } else {
    auto log = SegmentedLogStorage::OpenFiles(options.path + ".wal");
    if (!log.ok()) return log.status();
    db->log_storage_ = std::move(*log);
  }

  db->metrics_ = options.metrics ? options.metrics
                                 : std::make_shared<MetricsRegistry>();
  db->wal_ = std::make_unique<Wal>(db->log_storage_, db->metrics_.get(),
                                   options.wal_segment_bytes);
  db->buffer_pool_ = std::make_unique<BufferPool>(
      options.buffer_pool_pages, db->disk_.get(), db->wal_.get(),
      db->metrics_.get());
  db->lock_manager_ =
      std::make_unique<LockManager>(options.lock_timeout, db->metrics_.get());
  db->txn_manager_ = std::make_unique<TxnManager>(
      db->wal_.get(), db->lock_manager_.get(), db->clock_.get(),
      options.sync_commit, db->metrics_.get());
  db->txn_manager_->SetChangeApplier(db.get());
  db->catalog_ =
      std::make_unique<Catalog>(db->buffer_pool_.get(), db->txn_manager_.get());

  TENDAX_RETURN_IF_ERROR(db->RecoverAndLoad());
  db->clean_ = true;

  // The checkpointer exists even without a background trigger so
  // CheckpointNow() always has a pipeline to run; Start() is a no-op then.
  CheckpointOptions ckpt;
  ckpt.interval_micros = options.checkpoint_interval_micros;
  ckpt.dirty_page_threshold = options.checkpoint_dirty_page_threshold;
  ckpt.hooks = options.checkpoint_hooks;
  db->checkpointer_ = std::make_unique<Checkpointer>(
      db->wal_.get(), db->buffer_pool_.get(), db->txn_manager_.get(),
      db->metrics_.get(), std::move(ckpt));
  db->checkpointer_->Start();
  return db;
}

Database::~Database() {
  // Stop the checkpointer before tearing anything down: its thread reaches
  // into the WAL, buffer pool, and txn manager.
  if (checkpointer_ != nullptr) {
    checkpointer_->Stop();
  }
  if (buffer_pool_ == nullptr) return;  // Open failed before the pool
  // A clean close leaves an empty log, so the next open has nothing to
  // replay. A transaction still active needs its records for undo, and an
  // open that failed or a simulated crash left pages the log must still
  // repair; those closes only flush. Shutdown flushes are best-effort: there
  // is no caller left to act on a failure, and recovery rebuilds anything
  // that failed to reach disk.
  if (clean_ && txn_manager_->ActiveCount() == 0) {
    (void)FlushAndResetLog();
    return;
  }
  (void)wal_->FlushAll();
  (void)buffer_pool_->FlushAll();
}

Status Database::FlushAndResetLog() {
  // Log first (WAL before data), then every page, synced; only then is no
  // record needed any more.
  TENDAX_RETURN_IF_ERROR(wal_->FlushAll());
  TENDAX_RETURN_IF_ERROR(buffer_pool_->FlushAll());
  return wal_->Reset();
}

Status Database::RecoverAndLoad() {
  std::vector<LogRecord> log;
  TENDAX_RETURN_IF_ERROR(wal_->ReadAll(&log));

  if (!log.empty()) {
    // Recovery works on schema-less stub tables: redo/undo is bytes-level.
    std::unordered_map<uint64_t, std::unique_ptr<HeapTable>> stubs;
    auto table_for = [&](uint64_t table_id) -> HeapTable* {
      auto it = stubs.find(table_id);
      if (it == stubs.end()) {
        auto stub = std::make_unique<HeapTable>(
            static_cast<uint32_t>(table_id), "__recovery_stub", Schema(),
            buffer_pool_.get(), txn_manager_.get());
        it = stubs.emplace(table_id, std::move(stub)).first;
      }
      return it->second.get();
    };
    RecoveryManager recovery(table_for, wal_.get());
    TENDAX_RETURN_IF_ERROR(recovery.Run(log));
    recovery_stats_ = recovery.stats();
    // State is now the committed history; make it durable and restart the
    // log so replay never sees the old records again.
    TENDAX_RETURN_IF_ERROR(FlushAndResetLog());
  }

  auto pages = DiscoverPages();
  if (!pages.ok()) return pages.status();
  return catalog_->LoadFromStorage(*pages);
}

Result<std::unordered_map<uint32_t, std::vector<PageId>>>
Database::DiscoverPages() {
  std::unordered_map<uint32_t, std::vector<PageId>> by_table;
  Lsn max_page_lsn = kInvalidLsn;
  const uint32_t n = disk_->NumPages();
  for (PageId pid = 0; pid < n; ++pid) {
    auto page = buffer_pool_->FetchPage(pid);
    if (!page.ok()) return page.status();
    PageGuard guard(buffer_pool_.get(), *page);
    max_page_lsn = std::max(max_page_lsn, guard->lsn());
    SlottedPage sp(guard.get());
    uint32_t table_id = sp.table_id();
    if (!sp.IsInitialized()) continue;       // free/unused page
    // A high-bit table id marks a B+tree index page. Indexes are gone, but
    // files written before they went still hold the pages they leaked.
    if (table_id & 0x80000000u) continue;
    by_table[table_id].push_back(pid);
  }
  // An emptied log restarts numbering at 1, but the pages keep their LSNs,
  // and redo skips any record numbered at or below its page's LSN. So new
  // records must number past every page; this also repairs a file whose
  // log was emptied before this rule existed.
  wal_->AdvancePast(max_page_lsn);
  return by_table;
}

Result<HeapTable*> Database::CreateTable(const std::string& name,
                                         const Schema& schema) {
  HeapTable* created = nullptr;
  Status st = txn_manager_->RunInTxn(
      UserId(0), [&](Transaction* txn) -> Status {
        TENDAX_RETURN_IF_ERROR(lock_manager_->Acquire(
            txn->id(), MakeResource(ResourceKind::kCatalog, 0), LockMode::kX));
        auto table = catalog_->CreateTable(txn, name, schema);
        if (!table.ok()) return table.status();
        created = *table;
        return Status::OK();
      });
  if (!st.ok()) return st;
  return created;
}

Result<HeapTable*> Database::EnsureTable(const std::string& name,
                                         const Schema& schema) {
  auto existing = catalog_->GetTable(name);
  if (existing.ok()) return existing;
  auto created = CreateTable(name, schema);
  if (created.ok()) return created;
  if (created.status().IsAlreadyExists()) return catalog_->GetTable(name);
  return created;
}

Result<HeapTable*> Database::GetTable(const std::string& name) const {
  return catalog_->GetTable(name);
}

Status Database::Checkpoint() {
  if (txn_manager_->ActiveCount() > 0) {
    return Status::FailedPrecondition(
        "checkpoint requires a quiescent database; use CheckpointNow() for "
        "a fuzzy checkpoint under load");
  }
  // With nobody active the fuzzy pipeline degenerates to the quiescent
  // one: empty ATT, every flushable page flushed.
  return CheckpointNow();
}

Status Database::CheckpointNow() { return checkpointer_->CheckpointNow(); }

void Database::SimulateCrash() {
  clean_ = false;
  buffer_pool_->DropAllForCrashTest();
}

Status Database::CheckIntegrity() const {
  // 1. Page level: fetching verifies the stored checksum; initialized data
  //    pages must also have a sound slot directory.
  const uint32_t n = disk_->NumPages();
  for (PageId pid = 0; pid < n; ++pid) {
    auto page = buffer_pool_->FetchPage(pid);
    if (!page.ok()) {
      return Status::Corruption("page " + std::to_string(pid) + ": " +
                                page.status().ToString());
    }
    PageGuard guard(buffer_pool_.get(), *page);
    SlottedPage sp(guard.get());
    if (!sp.IsInitialized()) continue;
    // A leaked index page from an older file: no slot directory to check.
    if (sp.table_id() & 0x80000000u) continue;
    Status st = sp.Validate();
    if (!st.ok()) {
      return Status::Corruption("page " + std::to_string(pid) + ": " +
                                st.ToString());
    }
  }
  // 2. Table level: every record must decode against its schema.
  for (const std::string& name : catalog_->TableNames()) {
    auto table = catalog_->GetTable(name);
    if (!table.ok()) return table.status();
    Status st = (*table)->Scan([](RecordId, const Record&) { return true; });
    if (!st.ok()) {
      return Status::Corruption("table " + name + ": " + st.ToString());
    }
  }
  return Status::OK();
}

Status Database::ApplyChange(uint64_t table_id, UpdateOp op, uint64_t rid,
                             const std::string& image, Lsn lsn) {
  auto table = catalog_->GetTableById(table_id);
  if (!table.ok()) return table.status();
  return (*table)->ApplyChange(op, RecordId::Unpack(rid), image, lsn);
}

}  // namespace tendax
