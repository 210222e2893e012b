#include "db/heap_table.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "util/logging.h"

namespace tendax {

HeapTable::HeapTable(uint32_t table_id, std::string name, Schema schema,
                     BufferPool* pool, TxnManager* txns)
    : table_id_(table_id),
      name_(std::move(name)),
      schema_(std::move(schema)),
      pool_(pool),
      txns_(txns) {}

Result<RecordId> HeapTable::Insert(Transaction* txn, const Record& record) {
  TENDAX_RETURN_IF_ERROR(record.ConformsTo(schema_));
  return InsertBytes(txn, record.Encode());
}

Result<RecordId> HeapTable::InsertBytes(Transaction* txn,
                                        const std::string& bytes) {
  if (bytes.size() > SlottedPage::kMaxRecordSize) {
    return Status::InvalidArgument("record too large (" +
                                   std::to_string(bytes.size()) + " bytes)");
  }
  for (int attempt = 0; attempt < 16; ++attempt) {
    auto page_id = FindPageWithSpace(bytes.size() + 8);
    if (!page_id.ok()) return page_id.status();
    auto page = pool_->FetchPage(*page_id);
    if (!page.ok()) return page.status();
    bool lost_race = false;
    {
      // Latch first, so the guard unpins while the latch is still held:
      // the unpin stamps a newly dirty page's recLSN from its LSN, which
      // the next writer's set_lsn must not race.
      MutexLock latch((*page)->latch());
      PageGuard guard(pool_, *page);
      SlottedPage sp(guard.get());
      auto slot = sp.Insert(bytes);
      if (slot.status().IsOutOfRange()) {
        lost_race = true;  // page filled concurrently; look elsewhere
      } else {
        if (!slot.ok()) return slot.status();
        RecordId rid{*page_id, *slot};
        auto lsn = txns_->LogUpdate(txn, UpdateOp::kInsert, table_id_,
                                    rid.Pack(), "", bytes);
        if (!lsn.ok()) return lsn.status();
        if (*lsn != kInvalidLsn) guard->set_lsn(*lsn);
        guard.MarkDirty();
        return rid;
      }
    }
    if (lost_race) {
      // Latch released above: safe to take the table mutex (the opposite
      // order — table mutex then latch — is used by FindPageWithSpace).
      MutexLock lock(mu_);
      if (last_insert_page_ == *page_id) last_insert_page_ = kInvalidPageId;
    }
  }
  return Status::Internal("could not place record after repeated attempts");
}

Result<Record> HeapTable::Get(RecordId rid) const {
  std::string bytes;
  TENDAX_RETURN_IF_ERROR(ReadBytes(rid, &bytes));
  return Record::Decode(bytes);
}

Status HeapTable::ReadBytes(RecordId rid, std::string* out) const {
  return Cursor(this).Read(rid, out);
}

Status HeapTable::Cursor::Read(RecordId rid, std::string* out) {
  if (!page_ || page_->id() != rid.page) {
    page_.Release();
    auto page = table_->pool_->FetchPage(rid.page);
    if (!page.ok()) return page.status();
    page_ = PageGuard(table_->pool_, *page);
  }
  MutexLock latch(page_->latch());
  SlottedPage sp(page_.get());
  if (sp.table_id() != table_->table_id_) {
    return Status::NotFound("rid " + rid.ToString() +
                            " does not belong to table " + table_->name_);
  }
  auto data = sp.Get(rid.slot);
  if (!data.ok()) return data.status();
  out->assign(data->data(), data->size());
  return Status::OK();
}

Result<RecordId> HeapTable::Update(Transaction* txn, RecordId rid,
                                   const Record& record) {
  TENDAX_RETURN_IF_ERROR(record.ConformsTo(schema_));
  std::string after = record.Encode();
  std::string before;
  TENDAX_RETURN_IF_ERROR(ReadBytes(rid, &before));

  auto page = pool_->FetchPage(rid.page);
  if (!page.ok()) return page.status();
  {
    MutexLock latch((*page)->latch());  // before the guard, as in InsertBytes
    PageGuard guard(pool_, *page);
    SlottedPage sp(guard.get());
    Status st = sp.Update(rid.slot, after);
    if (st.ok()) {
      auto lsn = txns_->LogUpdate(txn, UpdateOp::kUpdate, table_id_,
                                  rid.Pack(), std::move(before), after);
      if (!lsn.ok()) return lsn.status();
      if (*lsn != kInvalidLsn) guard->set_lsn(*lsn);
      guard.MarkDirty();
      return rid;
    }
    if (!st.IsOutOfRange()) return st;

    // Record no longer fits in its page: SlottedPage::Update already freed
    // the slot, so log the move as delete + insert elsewhere.
    auto del_lsn = txns_->LogUpdate(txn, UpdateOp::kDelete, table_id_,
                                    rid.Pack(), std::move(before), "");
    if (!del_lsn.ok()) return del_lsn.status();
    if (*del_lsn != kInvalidLsn) guard->set_lsn(*del_lsn);
    guard.MarkDirty();
  }
  return InsertBytes(txn, after);
}

Status HeapTable::Delete(Transaction* txn, RecordId rid) {
  std::string before;
  TENDAX_RETURN_IF_ERROR(ReadBytes(rid, &before));
  auto page = pool_->FetchPage(rid.page);
  if (!page.ok()) return page.status();
  PageGuard guard(pool_, *page);
  MutexLock latch(guard->latch());
  SlottedPage sp(guard.get());
  TENDAX_RETURN_IF_ERROR(sp.Delete(rid.slot));
  auto lsn = txns_->LogUpdate(txn, UpdateOp::kDelete, table_id_, rid.Pack(),
                              std::move(before), "");
  if (!lsn.ok()) return lsn.status();
  if (*lsn != kInvalidLsn) guard->set_lsn(*lsn);
  guard.MarkDirty();
  return Status::OK();
}

Status HeapTable::Scan(
    const std::function<bool(RecordId, const Record&)>& fn) const {
  Status decoded = Status::OK();
  TENDAX_RETURN_IF_ERROR(ScanBytes([&](RecordId rid, Slice bytes) {
    auto record = Record::Decode(bytes);
    if (!record.ok()) {
      decoded = record.status();
      return false;
    }
    return fn(rid, *record);
  }));
  return decoded;
}

Status HeapTable::ScanBytes(
    const std::function<bool(RecordId, Slice)>& fn) const {
  std::vector<PageId> pages;
  {
    MutexLock lock(mu_);
    pages = pages_;
  }
  // One private copy per page: the latch is held for a memcpy only, and
  // the walk below reads the copy.
  auto copy = std::make_unique<Page>();
  for (PageId pid : pages) {
    {
      auto page = pool_->FetchPage(pid);
      if (!page.ok()) return page.status();
      PageGuard guard(pool_, *page);
      MutexLock latch(guard->latch());
      memcpy(copy->data(), guard->data(), kPageSize);
    }
    SlottedPage sp(copy.get());
    if (!sp.IsInitialized()) continue;
    for (SlotId s = 0; s < sp.num_slots(); ++s) {
      if (!sp.IsLive(s)) continue;
      auto data = sp.Get(s);
      if (!data.ok()) return data.status();
      if (!fn(RecordId{pid, s}, *data)) return Status::OK();
    }
  }
  return Status::OK();
}

Result<uint64_t> HeapTable::Count() const {
  uint64_t n = 0;
  TENDAX_RETURN_IF_ERROR(Scan([&](RecordId, const Record&) {
    ++n;
    return true;
  }));
  return n;
}

Status HeapTable::ApplyChange(UpdateOp op, RecordId rid,
                              const std::string& image, Lsn lsn) {
  TENDAX_RETURN_IF_ERROR(EnsurePage(rid.page));
  auto page = pool_->FetchPage(rid.page);
  if (!page.ok()) return page.status();
  PageGuard guard(pool_, *page);
  MutexLock latch(guard->latch());
  SlottedPage sp(guard.get());
  if (!sp.IsInitialized()) sp.Init(table_id_);
  if (lsn != kInvalidLsn && guard->lsn() >= lsn) {
    return Status::OK();  // already reflected on this page
  }
  switch (op) {
    case UpdateOp::kInsert:
      TENDAX_RETURN_IF_ERROR(sp.InsertAt(rid.slot, image));
      break;
    case UpdateOp::kUpdate: {
      Status st = sp.Update(rid.slot, image);
      if (st.IsOutOfRange()) {
        // The original execution kept the record in place (it logged an
        // in-place update), so after compaction it must fit; failure here
        // means corruption.
        return Status::Corruption("replayed update does not fit");
      }
      TENDAX_RETURN_IF_ERROR(st);
      break;
    }
    case UpdateOp::kDelete:
      TENDAX_RETURN_IF_ERROR(sp.Delete(rid.slot));
      break;
  }
  if (lsn != kInvalidLsn) guard->set_lsn(lsn);
  guard.MarkDirty();
  return Status::OK();
}

void HeapTable::AdoptPage(PageId page) {
  MutexLock lock(mu_);
  auto it = std::lower_bound(pages_.begin(), pages_.end(), page);
  if (it == pages_.end() || *it != page) pages_.insert(it, page);
}

std::vector<PageId> HeapTable::pages() const {
  MutexLock lock(mu_);
  return pages_;
}

Result<PageId> HeapTable::FindPageWithSpace(size_t need) {
  MutexLock lock(mu_);
  if (last_insert_page_ != kInvalidPageId) {
    auto page = pool_->FetchPage(last_insert_page_);
    if (page.ok()) {
      PageGuard guard(pool_, *page);
      MutexLock latch(guard->latch());
      SlottedPage sp(guard.get());
      if (sp.IsInitialized() && sp.FreeSpace() >= need) {
        return last_insert_page_;
      }
    }
  }
  // Check a bounded number of recent pages (older pages are likelier full);
  // an unbounded scan would make a long sequence of inserts quadratic.
  int checked = 0;
  for (auto it = pages_.rbegin(); it != pages_.rend() && checked < 8;
       ++it, ++checked) {
    auto page = pool_->FetchPage(*it);
    if (!page.ok()) return page.status();
    PageGuard guard(pool_, *page);
    MutexLock latch(guard->latch());
    SlottedPage sp(guard.get());
    if (sp.IsInitialized() && sp.FreeSpace() >= need) {
      last_insert_page_ = *it;
      return *it;
    }
  }
  auto page = pool_->NewPage();
  if (!page.ok()) return page.status();
  PageGuard guard(pool_, *page);
  MutexLock latch(guard->latch());
  SlottedPage sp(guard.get());
  sp.Init(table_id_);
  guard.MarkDirty();
  PageId pid = guard->id();
  auto pos = std::lower_bound(pages_.begin(), pages_.end(), pid);
  pages_.insert(pos, pid);
  last_insert_page_ = pid;
  return pid;
}

Status HeapTable::EnsurePage(PageId page) {
  {
    MutexLock lock(mu_);
    if (std::binary_search(pages_.begin(), pages_.end(), page)) {
      return Status::OK();
    }
  }
  // Replay may reference a page that is not yet adopted, or whose
  // allocation (file growth) was lost in the crash — re-extend the file.
  TENDAX_RETURN_IF_ERROR(pool_->EnsureAllocatedUpTo(page));
  AdoptPage(page);
  return Status::OK();
}

}  // namespace tendax
