#ifndef TENDAX_DB_SLOTTED_PAGE_H_
#define TENDAX_DB_SLOTTED_PAGE_H_

#include <cstdint>

#include "storage/page.h"
#include "util/result.h"
#include "util/slice.h"

namespace tendax {

/// Slot number within a slotted page.
using SlotId = uint16_t;

/// A record id: page number plus slot, packed for WAL records.
struct RecordId {
  PageId page = kInvalidPageId;
  SlotId slot = 0;

  constexpr auto operator<=>(const RecordId&) const = default;

  uint64_t Pack() const {
    return (static_cast<uint64_t>(page) << 16) | slot;
  }
  static RecordId Unpack(uint64_t packed) {
    return RecordId{static_cast<PageId>(packed >> 16),
                    static_cast<SlotId>(packed & 0xFFFF)};
  }
  bool valid() const { return page != kInvalidPageId; }
  std::string ToString() const {
    return "(" + std::to_string(page) + "," + std::to_string(slot) + ")";
  }
};

/// Non-owning view implementing the classic slotted-page layout inside a
/// buffer-pool page's payload:
///
///   [table_id u32][next_page u32][num_slots u16][free_ptr u16]
///   [slot 0: offset u16, len u16][slot 1]...          (grows upward)
///   ... free space ...
///   [record data]                                      (grows downward)
///
/// `free_ptr` is the payload offset where the used data region begins. A
/// zeroed page (free_ptr == 0) is detected as uninitialized. Slot offsets of
/// 0xFFFF mark deleted slots (slot ids stay stable; data space is reclaimed
/// by compaction).
class SlottedPage {
 public:
  explicit SlottedPage(Page* page) : page_(page) {}

  /// Largest record that can ever be stored in a page (payload minus the
  /// 12-byte page header and one 4-byte slot entry).
  static constexpr size_t kMaxRecordSize = Page::payload_size() - 16;

  bool IsInitialized() const;
  void Init(uint32_t table_id);

  uint32_t table_id() const;
  PageId next_page() const;
  void set_next_page(PageId next);

  uint16_t num_slots() const;
  /// Bytes available for a new record, assuming one new slot entry and
  /// counting reclaimable (deleted) space.
  size_t FreeSpace() const;

  /// Stores `data` in a free slot; compacts if fragmented. Returns the slot.
  Result<SlotId> Insert(const Slice& data);

  /// Deterministic-replay variant: stores `data` in exactly `slot`,
  /// extending the slot directory if needed. Fails if the slot is occupied.
  Status InsertAt(SlotId slot, const Slice& data);

  /// Returns the record bytes (pointing into the page).
  Result<Slice> Get(SlotId slot) const;

  Status Delete(SlotId slot);

  /// Replaces the record in `slot`. Fails with kOutOfRange if the new data
  /// cannot fit even after compaction (caller then relocates the record).
  Status Update(SlotId slot, const Slice& data);

  /// True if the slot holds a live record.
  bool IsLive(SlotId slot) const;

  /// Structural integrity check: the slot directory and data region stay
  /// inside the payload, no live slot escapes the data region, and no two
  /// live records overlap. Uninitialized pages are vacuously valid. Used by
  /// `Database::CheckIntegrity` after crash recovery.
  Status Validate() const;

 private:
  static constexpr size_t kHeaderSize() { return 12; }
  static constexpr size_t kSlotSize = 4;

  char* payload() { return page_->payload(); }
  const char* payload() const { return page_->payload(); }

  uint16_t slot_offset(SlotId slot) const;
  uint16_t slot_len(SlotId slot) const;
  void set_slot(SlotId slot, uint16_t offset, uint16_t len);
  uint16_t free_ptr() const;
  void set_free_ptr(uint16_t v);
  void set_num_slots(uint16_t v);
  /// Contiguous gap between slot directory end and data region start.
  size_t ContiguousFree() const;
  /// Rewrites the data region to remove holes left by deletes/updates.
  void Compact();
  /// Writes record bytes into the data region; requires contiguous room.
  uint16_t EmplaceData(const Slice& data);

  static constexpr uint16_t kDeletedOffset = 0xFFFF;

  Page* page_;
};

}  // namespace tendax

#endif  // TENDAX_DB_SLOTTED_PAGE_H_
