#include "text/text_store.h"

#include "text/utf8.h"
#include "util/logging.h"

namespace tendax {

namespace {

// Column positions in the characters table.
enum CharCol : size_t {
  kCcId = 0,
  kCcDoc,
  kCcCp,
  kCcPrev,
  kCcNext,
  kCcAuthor,
  kCcCreated,
  kCcInsVer,
  kCcDelVer,
  kCcDeletedBy,
  kCcSrcDoc,
  kCcSrcChar,
  kCcSrcExt,
  kCharColumns,
};

// Column positions in the documents table.
enum DocCol : size_t {
  kDcId = 0,
  kDcName,
  kDcCreator,
  kDcCreated,
  kDcState,
  kDcVersion,
  kDcHead,
  kDcTail,
  kDcLive,
  kDcPurgeFloor,
};

Schema CharsSchema() {
  return Schema({{"char_id", ColumnType::kUint64},
                 {"doc_id", ColumnType::kUint64},
                 {"codepoint", ColumnType::kUint64},
                 {"prev", ColumnType::kUint64},
                 {"next", ColumnType::kUint64},
                 {"author", ColumnType::kUint64},
                 {"created_at", ColumnType::kUint64},
                 {"inserted_version", ColumnType::kUint64},
                 {"deleted_version", ColumnType::kUint64},
                 {"deleted_by", ColumnType::kUint64},
                 {"src_doc", ColumnType::kUint64},
                 {"src_char", ColumnType::kUint64},
                 {"src_external", ColumnType::kString}});
}

Schema TextMetaSchema() {
  return Schema({{"purged_char_high", ColumnType::kUint64}});
}

Schema DocsSchema() {
  return Schema({{"doc_id", ColumnType::kUint64},
                 {"name", ColumnType::kString},
                 {"creator", ColumnType::kUint64},
                 {"created_at", ColumnType::kUint64},
                 {"state", ColumnType::kString},
                 {"version", ColumnType::kUint64},
                 {"head", ColumnType::kUint64},
                 {"tail", ColumnType::kUint64},
                 {"live_count", ColumnType::kUint64},
                 {"purge_floor", ColumnType::kUint64}});
}

CharInfo CharInfoFromRecord(const Record& rec) {
  CharInfo info;
  info.id = CharId(rec.GetUint(kCcId));
  info.doc = DocumentId(rec.GetUint(kCcDoc));
  info.cp = static_cast<uint32_t>(rec.GetUint(kCcCp));
  info.author = UserId(rec.GetUint(kCcAuthor));
  info.created = rec.GetUint(kCcCreated);
  info.inserted_version = rec.GetUint(kCcInsVer);
  info.deleted_version = rec.GetUint(kCcDelVer);
  info.deleted_by = UserId(rec.GetUint(kCcDeletedBy));
  info.src_doc = DocumentId(rec.GetUint(kCcSrcDoc));
  info.src_char = CharId(rec.GetUint(kCcSrcChar));
  info.src_external = rec.GetString(kCcSrcExt);
  return info;
}

// The char table's projections read records column by column, so a record
// of the wrong shape fails here as Corruption, never as a crash.
Status BadCharRecord(RecordId rid, const RecordReader& reader) {
  std::string why = reader.status().ok()
                        ? std::to_string(reader.arity()) + " columns, want " +
                              std::to_string(kCharColumns)
                        : reader.status().ToString();
  return Status::Corruption("char record " + rid.ToString() + ": " + why);
}

// The restart's projection of a char record: its id alone.
Status DecodeCharId(RecordId rid, Slice bytes, uint64_t* id) {
  RecordReader reader(bytes);
  if (reader.arity() == kCharColumns && reader.NextUint(id)) {
    return Status::OK();
  }
  return BadCharRecord(rid, reader);
}

// Decodes a char record straight into the chain's form, plus its `next`
// link. Columns come in kCc order.
Status DecodeChainChar(RecordId rid, Slice bytes, SnapChar* sc,
                       uint64_t* next) {
  RecordReader reader(bytes);
  uint64_t cp = 0;
  Slice external;
  if (reader.arity() == kCharColumns && reader.NextUint(&sc->id) &&
      reader.Skip() /* doc */ && reader.NextUint(&cp) &&
      reader.Skip() /* prev */ && reader.NextUint(next) &&
      reader.Skip() /* author */ && reader.Skip() /* created */ &&
      reader.NextUint(&sc->inserted) && reader.NextUint(&sc->deleted) &&
      reader.Skip() /* deleted_by */ && reader.NextUint(&sc->src_doc) &&
      reader.NextUint(&sc->src_char) && reader.NextString(&external)) {
    sc->cp = static_cast<uint32_t>(cp);
    sc->src_external.assign(external.data(), external.size());
    return Status::OK();
  }
  return BadCharRecord(rid, reader);
}

std::vector<uint64_t> CharIdValues(const std::vector<CharId>& ids) {
  std::vector<uint64_t> out;
  out.reserve(ids.size());
  for (CharId id : ids) out.push_back(id.value);
  return out;
}

}  // namespace

TextStore::TextStore(Database* db)
    : db_(db),
      tracker_(std::make_shared<SnapshotTracker>(db->clock_shared(),
                                                 db->metrics_shared())) {
  if (db_->metrics() != nullptr) {
    m_evictions_ = db_->metrics()->counter("mvcc.evictions");
    m_loads_ = db_->metrics()->counter("text.handle_loads");
  }
}

Status TextStore::Init() {
  auto chars = db_->EnsureTable("tendax_chars", CharsSchema());
  if (!chars.ok()) return chars.status();
  chars_table_ = *chars;
  auto docs = db_->EnsureTable("tendax_docs", DocsSchema());
  if (!docs.ok()) return docs.status();
  docs_table_ = *docs;

  auto meta = db_->EnsureTable("tendax_text_meta", TextMetaSchema());
  if (!meta.ok()) return meta.status();
  meta_table_ = *meta;

  // Rebuild derived state: the rid maps and the id counters. Of a char
  // record only its id is read. A purged char is gone from the table, so
  // its id only survives in the meta row. No chain is loaded here: a
  // document's first read, edit or search does that.
  uint64_t max_char = 0, max_doc = 0;
  std::unordered_map<uint64_t, RecordId> by_char, by_doc;
  Status decoded = Status::OK();
  TENDAX_RETURN_IF_ERROR(
      chars_table_->ScanBytes([&](RecordId rid, Slice bytes) {
        uint64_t id = 0;
        decoded = DecodeCharId(rid, bytes, &id);
        if (!decoded.ok()) return false;
        max_char = std::max(max_char, id);
        by_char[id] = rid;
        return true;
      }));
  TENDAX_RETURN_IF_ERROR(decoded);
  TENDAX_RETURN_IF_ERROR(
      docs_table_->Scan([&](RecordId rid, const Record& rec) {
        uint64_t id = rec.GetUint(kDcId);
        max_doc = std::max(max_doc, id);
        by_doc[id] = rid;
        return true;
      }));
  TENDAX_RETURN_IF_ERROR(meta_table_->Scan([&](RecordId, const Record& rec) {
    max_char = std::max(max_char, rec.GetUint(0));
    return true;
  }));
  {
    MutexLock lock(rids_mu_);
    rids_[kCharRids] = std::move(by_char);
    rids_[kDocRids] = std::move(by_doc);
  }
  next_char_id_ = max_char + 1;
  next_doc_id_ = max_doc + 1;

  // Snapshot publication rides the commit: this listener runs before any
  // listener registered later (sessions, search), so those observe the
  // fresh snapshot of every document the transaction edited.
  db_->txns()->AddCommitListener(
      [this](TxnId, UserId, const ChangeBatch& events) {
        OnCommitted(events);
      });
  return Status::OK();
}

Result<DocumentId> TextStore::CreateDocument(UserId user,
                                             const std::string& name) {
  DocumentId doc(next_doc_id_.fetch_add(1));
  Timestamp now = db_->clock()->NowMicros();
  Status st = db_->txns()->RunInTxn(user, [&](Transaction* txn) -> Status {
    TENDAX_RETURN_IF_ERROR(db_->locks()->Acquire(
        txn->id(), MakeResource(ResourceKind::kDocument, doc.value),
        LockMode::kX));
    Record rec({doc.value, name, user.value, uint64_t{now},
                std::string("draft"), uint64_t{0}, uint64_t{0}, uint64_t{0},
                uint64_t{0}, uint64_t{0}});
    auto rid = docs_table_->Insert(txn, rec);
    if (!rid.ok()) return rid.status();
    SetRid(txn, kDocRids, doc.value, *rid);
    ChangeEvent ev;
    ev.kind = ChangeKind::kDocumentCreated;
    ev.doc = doc;
    ev.user = user;
    ev.at = now;
    ev.detail = name;
    txn->AddEvent(ev);
    return Status::OK();
  });
  if (!st.ok()) return st;
  return doc;
}

std::shared_ptr<TextStore::DocHandle> TextStore::HandleSlot(DocumentId doc) {
  MutexLock lock(handles_mu_);
  auto& slot = handles_[doc.value];
  if (!slot) slot = std::make_shared<DocHandle>();
  return slot;
}

Result<std::shared_ptr<TextStore::DocHandle>> TextStore::Handle(
    DocumentId doc) {
  std::shared_ptr<DocHandle> handle = HandleSlot(doc);
  MutexLock lock(handle->mu);
  if (!handle->loaded) {
    TENDAX_RETURN_IF_ERROR(LoadHandle(handle.get(), doc));
  }
  return handle;
}

std::optional<RecordId> TextStore::FindRid(RidMap map, uint64_t id) const {
  MutexLock lock(rids_mu_);
  auto it = rids_[map].find(id);
  if (it == rids_[map].end()) return std::nullopt;
  return it->second;
}

void TextStore::SetRid(Transaction* txn, RidMap map, uint64_t id,
                       std::optional<RecordId> rid) {
  std::optional<RecordId> prev;
  {
    MutexLock lock(rids_mu_);
    auto it = rids_[map].find(id);
    if (it != rids_[map].end()) {
      prev = it->second;
      rids_[map].erase(it);
    }
    if (rid) rids_[map].emplace(id, *rid);
  }
  txn->AddRollbackAction([this, map, id, prev] {
    MutexLock lock(rids_mu_);
    rids_[map].erase(id);
    if (prev) rids_[map].emplace(id, *prev);
  });
}

Status TextStore::LoadHandle(DocHandle* handle, DocumentId doc) {
  std::optional<RecordId> doc_rid = FindRid(kDocRids, doc.value);
  if (!doc_rid) {
    return Status::NotFound("document " + doc.ToString() + " does not exist");
  }
  auto rec = docs_table_->Get(*doc_rid);
  if (!rec.ok()) return rec.status();

  handle->doc_rid = *doc_rid;
  handle->id = doc;
  handle->name = rec->GetString(kDcName);
  handle->creator = UserId(rec->GetUint(kDcCreator));
  handle->created = rec->GetUint(kDcCreated);
  handle->state = rec->GetString(kDcState);
  handle->version = rec->GetUint(kDcVersion);
  handle->purge_floor = rec->GetUint(kDcPurgeFloor);
  handle->head = rec->GetUint(kDcHead);
  handle->tail = rec->GetUint(kDcTail);
  handle->chain.Clear();

  // Walk the linked character records (including tombstones) to rebuild the
  // in-memory chain cache, decoding each straight into its chain form.
  std::vector<SnapChar> chain;
  chain.reserve(rec->GetUint(kDcLive));  // tombstones may add more
  HeapTable::Cursor cursor(chars_table_);
  std::string bytes;
  uint64_t current = handle->head;
  while (current != 0) {
    std::optional<RecordId> rid = FindRid(kCharRids, current);
    if (!rid) {
      return Status::Corruption("char chain references unknown char " +
                                std::to_string(current));
    }
    TENDAX_RETURN_IF_ERROR(cursor.Read(*rid, &bytes));
    SnapChar& sc = chain.emplace_back();
    TENDAX_RETURN_IF_ERROR(DecodeChainChar(*rid, bytes, &sc, &current));
  }
  handle->chain.Rebuild(std::move(chain));
  handle->loaded = true;
  MetricAdd(m_loads_);
  return Status::OK();
}

Status TextStore::EnsureFreshBase(DocHandle* handle, DocumentId doc) {
  std::optional<RecordId> doc_rid = FindRid(kDocRids, doc.value);
  if (!doc_rid) {
    return Status::NotFound("document " + doc.ToString() + " does not exist");
  }
  auto rec = docs_table_->Get(*doc_rid);
  if (!rec.ok()) return rec.status();
  if (handle->loaded && handle->doc_rid == *doc_rid &&
      handle->version == rec->GetUint(kDcVersion)) {
    return Status::OK();
  }
  return LoadHandle(handle, doc);
}

void TextStore::InvalidateHandle(DocumentId doc) {
  MutexLock lock(handles_mu_);
  handles_.erase(doc.value);
}

bool TextStore::EvictDocument(DocumentId doc) {
  std::shared_ptr<DocHandle> handle;
  {
    MutexLock lock(handles_mu_);
    auto it = handles_.find(doc.value);
    if (it == handles_.end()) return false;
    handle = std::move(it->second);
    handles_.erase(it);
  }
  {
    MutexLock lock(handle->mu);
    handle->loaded = false;
    handle->pending_snapshots.clear();
    // Readers that already acquired the snapshot keep it alive by
    // refcount; this only drops the store's own reference.
    {
      MutexLock slot(handle->snapshot_mu);
      handle->snapshot = nullptr;
    }
    handle->chain.Clear();
  }
  MetricAdd(m_evictions_);
  return true;
}

void TextStore::RefreshMvccGauges() { tracker_->RefreshGauges(); }

SnapshotRef TextStore::PrepareLockedSnapshot(DocHandle* handle) {
  DocumentInfo info;
  info.id = handle->id;
  info.name = handle->name;
  info.creator = handle->creator;
  info.created = handle->created;
  info.state = handle->state;
  info.version = handle->version;
  info.length = handle->chain.live_size();
  return std::make_shared<CharListSnapshot>(
      std::move(info), handle->purge_floor, handle->chain.Freeze(), tracker_);
}

void TextStore::OnCommitted(const ChangeBatch& events) {
  for (const ChangeEvent& ev : events) {
    if (!ev.doc.valid() || ev.version == 0) continue;
    std::shared_ptr<DocHandle> handle;
    {
      MutexLock lock(handles_mu_);
      auto it = handles_.find(ev.doc.value);
      if (it == handles_.end()) continue;
      handle = it->second;
    }
    MutexLock lock(handle->mu);
    // Take this commit's snapshot out of the pending list, and drop every
    // older one with it: a commit at or below ev.version that has not
    // published yet is superseded, and publishing it later would move the
    // slot backwards.
    SnapshotRef committed;
    std::vector<SnapshotRef>& pending = handle->pending_snapshots;
    for (const SnapshotRef& p : pending) {
      if (p->version() == ev.version) committed = p;
    }
    std::erase_if(pending, [&](const SnapshotRef& p) {
      return p->version() <= ev.version;
    });
    MutexLock slot(handle->snapshot_mu);
    if (committed == nullptr) {
      // No matching pending edit: the commit went through a detached
      // handle object (eviction raced the edit). Drop whatever this —
      // the current — handle has cached so the next read or edit
      // re-materializes the committed state instead of serving a base
      // the commit already superseded.
      if (handle->loaded && handle->version < ev.version) {
        handle->loaded = false;
      }
      if (handle->snapshot != nullptr &&
          handle->snapshot->version() < ev.version) {
        handle->snapshot = nullptr;
      }
    } else if (handle->snapshot == nullptr ||
               handle->snapshot->version() < ev.version) {
      handle->snapshot = std::move(committed);
    }
  }
}

Result<SnapshotRef> TextStore::AcquireSnapshot(DocumentId doc) {
  std::shared_ptr<DocHandle> handle = HandleSlot(doc);
  SnapshotRef snap;
  {
    // Fast path: a refcount bump under the leaf slot mutex — no
    // LockManager, no handle mutex, no materialization.
    MutexLock slot(handle->snapshot_mu);
    snap = handle->snapshot;
  }
  while (snap == nullptr) {
    // Cold cache (first read after open / invalidation / eviction):
    // materialize under a shared document lock, once. The S lock is what
    // makes the rebuild read *committed* state: a writer applies its char
    // records before its durable commit releases the X lock, so a lock-free
    // reload here could capture a chain newer than the document header it
    // came with (or worse, a state that later aborts). This is the one
    // place the snapshot path touches the LockManager; every subsequent
    // read hits the published slot above.
    Status st = db_->txns()->RunInTxn(
        UserId(0), [&](Transaction* txn) -> Status {
          TENDAX_RETURN_IF_ERROR(db_->locks()->Acquire(
              txn->id(), MakeResource(ResourceKind::kDocument, doc.value),
              LockMode::kS));
          // Only the registered handle may be filled: commit listeners
          // publish into it alone, so a version seen through an evicted
          // handle could later be undercut there. Retry on the current one.
          std::shared_ptr<DocHandle> current = HandleSlot(doc);
          if (current != handle) {
            handle = std::move(current);
            return Status::OK();
          }
          MutexLock lock(handle->mu);
          // A loaded handle is no proof of committed state either:
          // `Handle()` loads without the document lock, and a commit
          // through an evicted handle leaves this one behind. Re-pin it to
          // the committed header.
          TENDAX_RETURN_IF_ERROR(EnsureFreshBase(handle.get(), doc));
          MutexLock slot(handle->snapshot_mu);
          if (handle->snapshot == nullptr) {
            handle->snapshot = PrepareLockedSnapshot(handle.get());
          }
          snap = handle->snapshot;
          return Status::OK();
        });
    if (!st.ok()) return st;
  }
  tracker_->OnAcquire();
  return snap;
}

Result<Record> TextStore::ReadCharRecord(DocHandle* handle,
                                         uint64_t char_id) {
  // The map spans every document: the record's own doc id is what keeps
  // an id from another document out of this one's edits and reads.
  std::optional<RecordId> rid = FindRid(kCharRids, char_id);
  if (rid) {
    auto rec = chars_table_->Get(*rid);
    if (!rec.ok() || rec->GetUint(kCcDoc) == handle->id.value) return rec;
  }
  return Status::NotFound("char " + std::to_string(char_id) +
                          " not in document");
}

Status TextStore::UpdateCharRecord(Transaction* txn, DocHandle* handle,
                                   uint64_t char_id, const Record& record) {
  std::optional<RecordId> old_rid = FindRid(kCharRids, char_id);
  if (!old_rid || record.GetUint(kCcDoc) != handle->id.value) {
    return Status::NotFound("char " + std::to_string(char_id) +
                            " not in document");
  }
  auto new_rid = chars_table_->Update(txn, *old_rid, record);
  if (!new_rid.ok()) return new_rid.status();
  if (*new_rid != *old_rid) SetRid(txn, kCharRids, char_id, *new_rid);
  return Status::OK();
}

Status TextStore::WriteDocRecord(Transaction* txn, DocHandle* handle) {
  Record rec({handle->id.value, handle->name, handle->creator.value,
              uint64_t{handle->created}, handle->state,
              uint64_t{handle->version}, uint64_t{handle->head},
              uint64_t{handle->tail}, uint64_t{handle->chain.live_size()},
              uint64_t{handle->purge_floor}});
  auto new_rid = docs_table_->Update(txn, handle->doc_rid, rec);
  if (!new_rid.ok()) return new_rid.status();
  if (*new_rid != handle->doc_rid) {
    SetRid(txn, kDocRids, handle->id.value, *new_rid);
    handle->doc_rid = *new_rid;
  }
  return Status::OK();
}

Result<EditResult> TextStore::RunEdit(UserId user, DocumentId doc,
                                      ChangeKind kind, const EditBody& body) {
  auto handle = Handle(doc);
  if (!handle.ok()) return handle.status();
  DocHandle* h = handle->get();

  EditResult result;
  bool cache_mutated = false;
  Status st = db_->txns()->RunInTxn(user, [&](Transaction* txn) -> Status {
    TENDAX_RETURN_IF_ERROR(db_->locks()->Acquire(
        txn->id(), MakeResource(ResourceKind::kDocument, doc.value),
        LockMode::kX));
    MutexLock lock(h->mu);
    TENDAX_RETURN_IF_ERROR(EnsureFreshBase(h, doc));
    result = EditResult{};
    Version new_version = h->version + 1;
    result.version = new_version;
    cache_mutated = true;  // the body may mutate the cache at any point
    Status body_status = body(txn, h, &result);
    if (!body_status.ok()) {
      // The DB side is rolled back by the abort; the cache may have been
      // mutated by the body — drop it so it reloads from the database.
      h->loaded = false;
      return body_status;
    }
    h->version = new_version;
    TENDAX_RETURN_IF_ERROR(WriteDocRecord(txn, h));

    ChangeEvent ev;
    ev.kind = kind;
    ev.doc = doc;
    ev.user = user;
    ev.version = new_version;
    ev.at = db_->clock()->NowMicros();
    if (!result.chars.empty()) ev.anchor = result.chars.front();
    ev.count = result.chars.size();
    txn->AddEvent(ev);

    // Prepare — but do not publish — the post-edit snapshot. The commit
    // listener installs it the instant the transaction durably commits;
    // an abort discards it with the invalidated handle. There is no
    // install after the commit returns: the listener is the one publisher,
    // so a late install can never refill a slot that eviction emptied.
    h->pending_snapshots.push_back(PrepareLockedSnapshot(h));
    return Status::OK();
  });
  if (!st.ok()) {
    if (cache_mutated) InvalidateHandle(doc);
    return st;
  }
  return result;
}

Status TextStore::InsertCharsAt(Transaction* txn, DocHandle* handle,
                                UserId user, size_t pos,
                                const std::vector<PasteChar>& chars,
                                Version new_version, EditResult* result) {
  if (pos > handle->chain.live_size()) {
    return Status::OutOfRange("insert position " + std::to_string(pos) +
                              " beyond document length " +
                              std::to_string(handle->chain.live_size()));
  }
  if (chars.empty()) return Status::OK();
  const Timestamp now = db_->clock()->NowMicros();

  // Physical neighbors: insert directly after the live char at pos-1 (or at
  // the physical head for pos == 0).
  uint64_t left_id = pos > 0 ? handle->chain.LiveAt(pos - 1).id : 0;
  uint64_t right_id;
  Record left_rec;
  if (left_id != 0) {
    auto rec = ReadCharRecord(handle, left_id);
    if (!rec.ok()) return rec.status();
    left_rec = *rec;
    right_id = left_rec.GetUint(kCcNext);
  } else {
    right_id = handle->head;
  }

  // Allocate ids and insert the new char records, chained together.
  std::vector<uint64_t> ids(chars.size());
  for (size_t i = 0; i < chars.size(); ++i) {
    ids[i] = next_char_id_.fetch_add(1);
  }
  std::vector<SnapChar> run;
  run.reserve(chars.size());
  for (size_t i = 0; i < chars.size(); ++i) {
    uint64_t prev = i == 0 ? left_id : ids[i - 1];
    uint64_t next = i + 1 < chars.size() ? ids[i + 1] : right_id;
    Record rec({ids[i], handle->id.value, uint64_t{chars[i].cp}, prev, next,
                user.value, uint64_t{now}, uint64_t{new_version}, uint64_t{0},
                uint64_t{0}, chars[i].src_doc.value, chars[i].src_char.value,
                chars[i].src_external});
    auto rid = chars_table_->Insert(txn, rec);
    if (!rid.ok()) return rid.status();
    SetRid(txn, kCharRids, ids[i], *rid);
    SnapChar sc;
    sc.id = ids[i];
    sc.cp = chars[i].cp;
    sc.inserted = new_version;
    sc.src_doc = chars[i].src_doc.value;
    sc.src_char = chars[i].src_char.value;
    sc.src_external = chars[i].src_external;
    run.push_back(std::move(sc));
    result->chars.push_back(CharId(ids[i]));
  }

  // Fix the neighbors' links (and the document head/tail).
  if (left_id != 0) {
    left_rec.value(kCcNext) = ids.front();
    TENDAX_RETURN_IF_ERROR(UpdateCharRecord(txn, handle, left_id, left_rec));
  } else {
    handle->head = ids.front();
  }
  if (right_id != 0) {
    auto rec = ReadCharRecord(handle, right_id);
    if (!rec.ok()) return rec.status();
    rec->value(kCcPrev) = ids.back();
    TENDAX_RETURN_IF_ERROR(UpdateCharRecord(txn, handle, right_id, *rec));
  } else {
    handle->tail = ids.back();
  }

  handle->chain.InsertRun(pos, run);
  return Status::OK();
}

Result<EditResult> TextStore::InsertText(UserId user, DocumentId doc,
                                         size_t pos, const std::string& utf8,
                                         const std::string& external_source) {
  std::vector<uint32_t> cps = DecodeUtf8(utf8);
  std::vector<PasteChar> chars(cps.size());
  for (size_t i = 0; i < cps.size(); ++i) {
    chars[i].cp = cps[i];
    chars[i].src_external = external_source;
  }
  auto result = RunEdit(
      user, doc, ChangeKind::kTextInserted,
      [&](Transaction* txn, DocHandle* h, EditResult* out) {
        return InsertCharsAt(txn, h, user, pos, chars, out->version, out);
      });
  return result;
}

Result<std::vector<PasteChar>> TextStore::Copy(UserId user, DocumentId doc,
                                               size_t pos, size_t len) {
  auto acquired = AcquireSnapshot(doc);
  if (!acquired.ok()) return acquired.status();
  SnapshotRef snap = *acquired;
  std::vector<PasteChar> out;
  // The snapshot is immutable, so no locks are needed for stability; the
  // snapshot-read transaction keeps the op inside the txn framework
  // (accounting, uniform call shape) without ever blocking on a writer.
  Status st = db_->txns()->RunSnapshotRead(user, [&](Transaction*) -> Status {
    if (pos + len > snap->length()) {
      return Status::OutOfRange("copy range beyond document length");
    }
    auto range = snap->LiveRange(pos, len);
    if (!range.ok()) return range.status();
    out.reserve(range->size());
    for (const SnapChar& c : *range) {
      PasteChar pc;
      pc.cp = c.cp;
      // Provenance points at the *original* character: if this char was
      // itself pasted, keep its source; otherwise this char is the source.
      if (c.src_doc != 0) {
        pc.src_doc = DocumentId(c.src_doc);
        pc.src_char = CharId(c.src_char);
      } else {
        pc.src_doc = doc;
        pc.src_char = CharId(c.id);
      }
      pc.src_external = c.src_external;
      out.push_back(std::move(pc));
    }
    return Status::OK();
  });
  if (!st.ok()) return st;
  return out;
}

Result<EditResult> TextStore::Paste(UserId user, DocumentId doc, size_t pos,
                                    const std::vector<PasteChar>& chars) {
  return RunEdit(user, doc, ChangeKind::kTextInserted,
                 [&](Transaction* txn, DocHandle* h, EditResult* out) {
                   return InsertCharsAt(txn, h, user, pos, chars,
                                        out->version, out);
                 });
}

Result<EditResult> TextStore::DeleteRange(UserId user, DocumentId doc,
                                          size_t pos, size_t len) {
  return RunEdit(
      user, doc, ChangeKind::kTextDeleted,
      [&](Transaction* txn, DocHandle* h, EditResult* out) -> Status {
        if (pos + len > h->chain.live_size()) {
          return Status::OutOfRange("delete range beyond document length");
        }
        // One descent tombstones the range in the cache and names its
        // chars; a failed record update drops the cache with the txn.
        for (uint64_t id : h->chain.TombstoneRange(pos, len, out->version)) {
          auto rec = ReadCharRecord(h, id);
          if (!rec.ok()) return rec.status();
          rec->value(kCcDelVer) = uint64_t{out->version};
          rec->value(kCcDeletedBy) = user.value;
          TENDAX_RETURN_IF_ERROR(UpdateCharRecord(txn, h, id, *rec));
          out->chars.push_back(CharId(id));
        }
        return Status::OK();
      });
}

Result<EditResult> TextStore::DeleteChars(UserId user, DocumentId doc,
                                          const std::vector<CharId>& ids) {
  return RunEdit(
      user, doc, ChangeKind::kTextDeleted,
      [&](Transaction* txn, DocHandle* h, EditResult* out) -> Status {
        for (CharId id : ids) {
          auto rec = ReadCharRecord(h, id.value);
          if (!rec.ok()) return rec.status();
          if (rec->GetUint(kCcDelVer) != 0) continue;  // already gone
          rec->value(kCcDelVer) = uint64_t{out->version};
          rec->value(kCcDeletedBy) = user.value;
          TENDAX_RETURN_IF_ERROR(UpdateCharRecord(txn, h, id.value, *rec));
          out->chars.push_back(id);
        }
        // The records name the chars to flip; the cache follows in one
        // pass over the leaves holding them.
        TENDAX_CHECK(h->chain.SetDeleted(CharIdValues(out->chars),
                                         out->version) == out->chars.size());
        return Status::OK();
      });
}

Result<EditResult> TextStore::ResurrectChars(UserId user, DocumentId doc,
                                             const std::vector<CharId>& ids) {
  return RunEdit(
      user, doc, ChangeKind::kTextInserted,
      [&](Transaction* txn, DocHandle* h, EditResult* out) -> Status {
        for (CharId id : ids) {
          auto rec = ReadCharRecord(h, id.value);
          if (!rec.ok()) return rec.status();
          if (rec->GetUint(kCcDelVer) == 0) continue;  // already live
          rec->value(kCcDelVer) = uint64_t{0};
          rec->value(kCcDeletedBy) = uint64_t{0};
          TENDAX_RETURN_IF_ERROR(UpdateCharRecord(txn, h, id.value, *rec));
          out->chars.push_back(id);
        }
        TENDAX_CHECK(h->chain.SetDeleted(CharIdValues(out->chars), 0) ==
                     out->chars.size());
        return Status::OK();
      });
}

Result<std::string> TextStore::Text(DocumentId doc) {
  auto snap = AcquireSnapshot(doc);
  if (!snap.ok()) return snap.status();
  return (*snap)->Text();
}

Result<std::string> TextStore::TextRange(DocumentId doc, size_t pos,
                                         size_t len) {
  auto snap = AcquireSnapshot(doc);
  if (!snap.ok()) return snap.status();
  return (*snap)->TextRange(pos, len);
}

Result<std::string> TextStore::TextAtVersion(DocumentId doc,
                                             Version version) {
  auto snap = AcquireSnapshot(doc);
  if (!snap.ok()) return snap.status();
  return (*snap)->TextAtVersion(version);
}

Result<uint64_t> TextStore::Length(DocumentId doc) {
  auto snap = AcquireSnapshot(doc);
  if (!snap.ok()) return snap.status();
  return (*snap)->length();
}

Result<Version> TextStore::CurrentVersion(DocumentId doc) {
  auto snap = AcquireSnapshot(doc);
  if (!snap.ok()) return snap.status();
  return (*snap)->version();
}

Result<CharInfo> TextStore::CharAt(DocumentId doc, size_t pos) {
  auto handle = Handle(doc);
  if (!handle.ok()) return handle.status();
  DocHandle* h = handle->get();
  MutexLock lock(h->mu);
  if (pos >= h->chain.live_size()) {
    return Status::OutOfRange("position beyond document length");
  }
  auto rec = ReadCharRecord(h, h->chain.LiveAt(pos).id);
  if (!rec.ok()) return rec.status();
  return CharInfoFromRecord(*rec);
}

Result<CharInfo> TextStore::GetChar(DocumentId doc, CharId id) {
  auto handle = Handle(doc);
  if (!handle.ok()) return handle.status();
  DocHandle* h = handle->get();
  MutexLock lock(h->mu);
  auto rec = ReadCharRecord(h, id.value);
  if (!rec.ok()) return rec.status();
  return CharInfoFromRecord(*rec);
}

Result<std::vector<CharInfo>> TextStore::RangeInfo(DocumentId doc, size_t pos,
                                                   size_t len) {
  auto handle = Handle(doc);
  if (!handle.ok()) return handle.status();
  DocHandle* h = handle->get();
  MutexLock lock(h->mu);
  if (pos + len > h->chain.live_size()) {
    return Status::OutOfRange("range beyond document length");
  }
  std::vector<CharInfo> out;
  out.reserve(len);
  for (size_t i = pos; i < pos + len; ++i) {
    auto rec = ReadCharRecord(h, h->chain.LiveAt(i).id);
    if (!rec.ok()) return rec.status();
    out.push_back(CharInfoFromRecord(*rec));
  }
  return out;
}

Result<std::vector<CharInfo>> TextStore::FullChain(DocumentId doc) {
  auto handle = Handle(doc);
  if (!handle.ok()) return handle.status();
  DocHandle* h = handle->get();
  MutexLock lock(h->mu);
  std::vector<CharInfo> out;
  uint64_t current = h->head;
  while (current != 0) {
    auto rec = ReadCharRecord(h, current);
    if (!rec.ok()) return rec.status();
    out.push_back(CharInfoFromRecord(*rec));
    current = rec->GetUint(kCcNext);
  }
  return out;
}

Result<uint64_t> TextStore::PurgeHistory(UserId user, DocumentId doc,
                                         Version before) {
  uint64_t purged = 0;
  auto result = RunEdit(
      user, doc, ChangeKind::kMetadataChanged,
      [&](Transaction* txn, DocHandle* h, EditResult*) -> Status {
        purged = 0;
        // Snapshot the chain: id, next, deletion version.
        struct Node {
          uint64_t id;
          uint64_t next;
          Version del_ver;
        };
        std::vector<Node> chain;
        uint64_t current = h->head;
        while (current != 0) {
          auto rec = ReadCharRecord(h, current);
          if (!rec.ok()) return rec.status();
          chain.push_back(Node{current, rec->GetUint(kCcNext),
                               rec->GetUint(kCcDelVer)});
          current = rec->GetUint(kCcNext);
        }
        auto purgeable = [&](const Node& n) {
          return n.del_ver != 0 && n.del_ver <= before;
        };
        // Relink the survivors sequentially around the purged runs.
        std::vector<uint64_t> survivors;
        survivors.reserve(chain.size());
        for (const Node& node : chain) {
          if (!purgeable(node)) survivors.push_back(node.id);
        }
        for (size_t i = 0; i < survivors.size(); ++i) {
          uint64_t prev = i > 0 ? survivors[i - 1] : 0;
          uint64_t next = i + 1 < survivors.size() ? survivors[i + 1] : 0;
          auto rec = ReadCharRecord(h, survivors[i]);
          if (!rec.ok()) return rec.status();
          if (rec->GetUint(kCcPrev) != prev ||
              rec->GetUint(kCcNext) != next) {
            rec->value(kCcPrev) = prev;
            rec->value(kCcNext) = next;
            TENDAX_RETURN_IF_ERROR(
                UpdateCharRecord(txn, h, survivors[i], *rec));
          }
        }
        h->head = survivors.empty() ? 0 : survivors.front();
        h->tail = survivors.empty() ? 0 : survivors.back();

        // Physically delete the purged records, tracking the highest
        // deletion version removed: that becomes the new purge floor (any
        // version >= it already saw all purged characters as dead, so
        // reads at or above the floor stay exact).
        Version max_del = 0;
        uint64_t max_id = 0;
        for (const Node& node : chain) {
          if (!purgeable(node)) continue;
          std::optional<RecordId> rid = FindRid(kCharRids, node.id);
          if (!rid) continue;
          TENDAX_RETURN_IF_ERROR(chars_table_->Delete(txn, *rid));
          SetRid(txn, kCharRids, node.id, std::nullopt);
          max_del = std::max(max_del, node.del_ver);
          max_id = std::max(max_id, node.id);
          ++purged;
        }
        if (max_id != 0) {
          TENDAX_RETURN_IF_ERROR(RaisePurgedCharHigh(txn, max_id));
        }
        uint64_t chain_purged = h->chain.PurgeBelow(before);
        TENDAX_CHECK(chain_purged == purged);
        if (purged > 0 && max_del > h->purge_floor) {
          h->purge_floor = max_del;  // persisted by WriteDocRecord
        }
        return Status::OK();
      });
  if (!result.ok()) return result.status();
  return purged;
}

Status TextStore::RaisePurgedCharHigh(Transaction* txn, uint64_t id) {
  // Purges of different documents serialize on the row's table lock.
  TENDAX_RETURN_IF_ERROR(db_->locks()->Acquire(
      txn->id(), MakeResource(ResourceKind::kTable, meta_table_->table_id()),
      LockMode::kX));
  std::optional<RecordId> row;
  uint64_t high = 0;
  TENDAX_RETURN_IF_ERROR(meta_table_->Scan([&](RecordId rid, const Record& rec) {
    row = rid;
    high = rec.GetUint(0);
    return false;
  }));
  if (!row) return meta_table_->Insert(txn, Record({id})).status();
  if (high >= id) return Status::OK();
  return meta_table_->Update(txn, *row, Record({id})).status();
}

Result<DocumentInfo> TextStore::GetDocumentInfo(DocumentId doc) {
  auto snap = AcquireSnapshot(doc);
  if (!snap.ok()) return snap.status();
  return (*snap)->info();
}

Result<DocumentId> TextStore::FindDocumentByName(const std::string& name) {
  DocumentId found;
  TENDAX_RETURN_IF_ERROR(docs_table_->Scan([&](RecordId, const Record& rec) {
    if (rec.GetString(kDcName) == name) {
      found = DocumentId(rec.GetUint(kDcId));
      return false;
    }
    return true;
  }));
  if (!found.valid()) {
    return Status::NotFound("no document named '" + name + "'");
  }
  return found;
}

std::vector<DocumentId> TextStore::ListDocuments() {
  std::vector<DocumentId> out;
  // A partial scan yields a partial listing; the signature has no error
  // channel and callers treat the result as a best-effort directory.
  (void)docs_table_->Scan([&](RecordId, const Record& rec) {
    out.push_back(DocumentId(rec.GetUint(kDcId)));
    return true;
  });
  std::sort(out.begin(), out.end());
  return out;
}

Status TextStore::RenameDocument(UserId user, DocumentId doc,
                                 const std::string& name) {
  auto result = RunEdit(user, doc, ChangeKind::kDocumentRenamed,
                        [&](Transaction*, DocHandle* h, EditResult* out) {
                          h->name = name;
                          out->chars.clear();
                          return Status::OK();
                        });
  return result.ok() ? Status::OK() : result.status();
}

Status TextStore::SetDocumentState(UserId user, DocumentId doc,
                                   const std::string& state) {
  auto result = RunEdit(user, doc, ChangeKind::kDocumentStateChanged,
                        [&](Transaction*, DocHandle* h, EditResult* out) {
                          h->state = state;
                          out->chars.clear();
                          return Status::OK();
                        });
  return result.ok() ? Status::OK() : result.status();
}

}  // namespace tendax
