#ifndef TENDAX_DB_HEAP_TABLE_H_
#define TENDAX_DB_HEAP_TABLE_H_

#include <functional>
#include <string>
#include <vector>

#include "db/record.h"
#include "db/schema.h"
#include "db/slotted_page.h"
#include "storage/buffer_pool.h"
#include "txn/txn_manager.h"
#include "util/mutex.h"
#include "util/result.h"

namespace tendax {

/// A heap file of slotted pages holding one table's records.
///
/// Every mutation is WAL-logged through the owning transaction *before* it
/// is applied, and the touched page is stamped with the record's LSN, which
/// makes redo idempotent and replay deterministic (inserts are replayed into
/// the exact rid they got originally).
///
/// Pages self-describe their table via the slotted-page header, so the page
/// chain is discovered by scanning the database file at open — a broken
/// next-pointer can never orphan records after a crash.
class HeapTable {
 public:
  HeapTable(uint32_t table_id, std::string name, Schema schema,
            BufferPool* pool, TxnManager* txns);

  uint32_t table_id() const { return table_id_; }
  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// Validates against the schema, logs, and stores the record.
  Result<RecordId> Insert(Transaction* txn, const Record& record);

  /// Reads a record.
  Result<Record> Get(RecordId rid) const;

  /// Reads records' encoded bytes, for a walk over many records that
  /// decodes them with a `RecordReader` and builds no `Record`. Keeps the
  /// last record's page pinned, so records that share a page fetch it
  /// once; each read still takes the page latch. One thread's; holds one
  /// pin until destroyed.
  class Cursor {
   public:
    explicit Cursor(const HeapTable* table) : table_(table) {}
    /// Copies the record's bytes into `*out`, reusing its capacity.
    Status Read(RecordId rid, std::string* out);

   private:
    const HeapTable* const table_;
    PageGuard page_;
  };

  /// Replaces a record. If the new version no longer fits in its page the
  /// record moves; the (possibly new) rid is returned and the move is logged
  /// as delete+insert.
  Result<RecordId> Update(Transaction* txn, RecordId rid,
                          const Record& record);

  Status Delete(Transaction* txn, RecordId rid);

  /// Visits every live record in (page, slot) order. Return false from the
  /// callback to stop early.
  Status Scan(
      const std::function<bool(RecordId, const Record&)>& fn) const;

  /// Scan without the decode: visits every live record's encoded bytes,
  /// which stay valid only during the call. Each page is copied under its
  /// latch and walked after the latch drops, so the callback may touch
  /// other pages of this table. A projection (say, one column of every
  /// row) reads the bytes with a `RecordReader`.
  Status ScanBytes(const std::function<bool(RecordId, Slice)>& fn) const;

  /// Number of live records (O(pages)).
  Result<uint64_t> Count() const;

  // --- recovery/undo interface (no logging; page-LSN guarded) ---

  /// Applies a change directly: insert `image` at exactly `rid`, update the
  /// record at `rid` to `image`, or delete it. When `lsn` is valid the
  /// change is skipped if the page already carries a newer LSN and the page
  /// is stamped after applying.
  Status ApplyChange(UpdateOp op, RecordId rid, const std::string& image,
                     Lsn lsn);

  /// Registers a page discovered at open time as belonging to this table.
  void AdoptPage(PageId page) TENDAX_EXCLUDES(mu_);

  /// Pages currently making up the heap file (ascending).
  std::vector<PageId> pages() const TENDAX_EXCLUDES(mu_);

 private:
  /// A one-record Cursor read.
  Status ReadBytes(RecordId rid, std::string* out) const;
  /// Finds (or allocates) a page with room for `need` bytes. Returns it
  /// pinned via the guard. Takes page latches while holding mu_ — the
  /// reverse order is never used (InsertBytes drops the latch first).
  Result<PageId> FindPageWithSpace(size_t need) TENDAX_EXCLUDES(mu_);
  /// Makes sure `page` exists on disk (used by replay) and is adopted.
  Status EnsurePage(PageId page) TENDAX_EXCLUDES(mu_);
  Result<RecordId> InsertBytes(Transaction* txn, const std::string& bytes)
      TENDAX_EXCLUDES(mu_);

  const uint32_t table_id_;
  const std::string name_;
  const Schema schema_;
  BufferPool* const pool_;
  TxnManager* const txns_;

  // Guards pages_ and insert placement.
  mutable Mutex mu_{"heaptable.mu", lockorder::kRankTable};
  std::vector<PageId> pages_ TENDAX_GUARDED_BY(mu_);  // ascending
  PageId last_insert_page_ TENDAX_GUARDED_BY(mu_) = kInvalidPageId;
};

}  // namespace tendax

#endif  // TENDAX_DB_HEAP_TABLE_H_
