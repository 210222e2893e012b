#ifndef TENDAX_STORAGE_PAGE_H_
#define TENDAX_STORAGE_PAGE_H_

#include <cstdint>
#include <cstring>

#include "util/checksum.h"
#include "util/coding.h"
#include "util/mutex.h"

namespace tendax {

/// Physical page number within a database file.
using PageId = uint32_t;
constexpr PageId kInvalidPageId = UINT32_MAX;

/// Size of every database page in bytes.
constexpr size_t kPageSize = 4096;

/// Byte offset where page-owner data begins. The header holds the page LSN
/// (8 bytes, recovery) and a payload checksum (4 bytes of `Fnv1a32`, written
/// at flush time and verified when the page is read back — integrity
/// enforcement); 4 bytes are reserved.
constexpr size_t kPageHeaderSize = 16;
constexpr size_t kPageChecksumOffset = 8;

/// A buffer-pool frame: one page worth of bytes plus bookkeeping. Pages are
/// pinned while in use; the buffer pool may evict only unpinned frames.
///
/// The first 8 bytes of the payload hold the page LSN — the LSN of the last
/// log record applied to this page — which makes redo idempotent.
class Page {
 public:
  Page() { Reset(); }

  Page(const Page&) = delete;
  Page& operator=(const Page&) = delete;

  char* data() { return data_; }
  const char* data() const { return data_; }

  /// Owner-usable region (after the LSN header).
  char* payload() { return data_ + kPageHeaderSize; }
  const char* payload() const { return data_ + kPageHeaderSize; }
  static constexpr size_t payload_size() {
    return kPageSize - kPageHeaderSize;
  }

  PageId id() const { return id_; }
  void set_id(PageId id) { id_ = id; }

  uint64_t lsn() const { return DecodeFixed64(data_); }
  void set_lsn(uint64_t lsn) { EncodeFixed64(data_, lsn); }

  /// On-disk payload checksum; 0 means "not yet checksummed" (fresh page).
  uint32_t stored_checksum() const {
    return DecodeFixed32(data_ + kPageChecksumOffset);
  }
  void StampChecksum() {
    EncodeFixed32(data_ + kPageChecksumOffset,
                  Fnv1a32(payload(), payload_size()));
  }
  /// True if the payload matches the stored checksum (or none is stored).
  bool ChecksumValid() const {
    uint32_t stored = stored_checksum();
    return stored == 0 || stored == Fnv1a32(payload(), payload_size());
  }

  int pin_count() const { return pin_count_; }
  bool is_dirty() const { return dirty_; }

  /// Recovery LSN: the page LSN recorded when this frame last went from
  /// clean to dirty — the earliest log record whose effect might not be on
  /// disk. 0 while the page is clean. Maintained by the buffer pool (under
  /// its mutex, like pin_count_/dirty_) for the fuzzy checkpointer's
  /// dirty-page table.
  uint64_t rec_lsn() const { return rec_lsn_; }

  /// Content latch: holders may read/modify the payload. Callers must hold
  /// a pin while latched (a pinned page is never evicted or recycled).
  Mutex& latch() TENDAX_RETURN_CAPABILITY(latch_) { return latch_; }

  void Reset() {
    memset(data_, 0, kPageSize);
    id_ = kInvalidPageId;
    pin_count_ = 0;
    dirty_ = false;
    rec_lsn_ = 0;
  }

 private:
  friend class BufferPool;

  char data_[kPageSize];
  PageId id_ = kInvalidPageId;
  int pin_count_ = 0;
  bool dirty_ = false;
  uint64_t rec_lsn_ = 0;
  // Taken after the owning table's mutex (FindPageWithSpace) and held
  // across WAL logging of the change (heap_table), so it ranks between
  // kRankTable and kRankTxn. Never taken by the buffer pool itself.
  Mutex latch_{"page.latch", lockorder::kRankPageLatch};
};

}  // namespace tendax

#endif  // TENDAX_STORAGE_PAGE_H_
