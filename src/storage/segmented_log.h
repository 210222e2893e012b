#ifndef TENDAX_STORAGE_SEGMENTED_LOG_H_
#define TENDAX_STORAGE_SEGMENTED_LOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "storage/wal.h"
#include "util/mutex.h"

namespace tendax {

/// Log storage that keeps the WAL as a sequence of numbered segments
/// (`<prefix>.000001`, `<prefix>.000002`, ...) instead of one growing file.
/// Appends go to the current (highest-numbered) segment; `RotateSegment`
/// durably seals it and opens the next; `DropSegment` deletes a sealed
/// segment once the checkpointer has proven its records redundant. Segment
/// ids are monotonic and never reused, even across Truncate().
///
/// Two modes share the class:
///  - in-memory (`InMemoryLogStorage` below): segments live in a map. The
///    object survives a simulated crash (the test keeps the shared_ptr and
///    reopens a new Wal over it), which is what the recovery and
///    checkpoint crash sweeps exercise.
///  - file-backed (`OpenFiles(prefix)`): one file per segment next to the
///    database file. Open scans the directory for surviving segments; a
///    gap in the id sequence (possible only if a past crash interrupted an
///    out-of-order manual delete) keeps just the contiguous suffix, which
///    is the only part recovery could trust anyway.
class SegmentedLogStorage : public LogStorage {
 public:
  /// Opens (or creates) a file-backed segmented log. `prefix` is the path
  /// stem: segments are `<prefix>.NNNNNN`.
  static Result<std::shared_ptr<SegmentedLogStorage>> OpenFiles(
      const std::string& prefix);

  ~SegmentedLogStorage() override;

  // LogStorage:
  Status Append(const Slice& data) override;
  Status Sync() override;
  Status ReadAll(std::string* out) override;
  Status Truncate() override;

  uint64_t current_segment() const override;
  std::vector<uint64_t> SegmentIds() const override;
  uint64_t SegmentBytes(uint64_t id) const override;
  Status ReadSegment(uint64_t id, std::string* out) override;
  Status RotateSegment(uint64_t* new_id) override;
  Status DropSegment(uint64_t id, uint64_t* bytes_freed) override;

  /// Total bytes across all live segments.
  uint64_t TotalBytes() const;

  /// Chops the *current* segment to its first `n` bytes, simulating a torn
  /// tail write (in-memory mode only).
  void CorruptTail(size_t n);

 protected:
  /// In-memory mode starts with one empty segment; file mode is filled in
  /// by OpenFiles.
  SegmentedLogStorage(bool file_backed, std::string prefix);

 private:
  std::string SegmentPath(uint64_t id) const;
  Status OpenCurrentFileLocked() TENDAX_REQUIRES(mu_);
  Status CloseCurrentFileLocked(bool sync) TENDAX_REQUIRES(mu_);
  Status SyncDirLocked() TENDAX_REQUIRES(mu_);

  const bool file_backed_;
  const std::string prefix_;

  mutable Mutex mu_{"log.segmented", lockorder::kRankDisk};
  // Segment id -> byte size. In-memory mode additionally keeps contents.
  std::map<uint64_t, uint64_t> sizes_ TENDAX_GUARDED_BY(mu_);
  std::map<uint64_t, std::string> mem_ TENDAX_GUARDED_BY(mu_);
  uint64_t current_ TENDAX_GUARDED_BY(mu_) = 1;
  int fd_ TENDAX_GUARDED_BY(mu_) = -1;  // file mode: current segment fd
};

/// The in-memory mode: the log of a database opened without a path, and
/// the storage tests keep across a simulated crash.
class InMemoryLogStorage : public SegmentedLogStorage {
 public:
  InMemoryLogStorage() : SegmentedLogStorage(/*file_backed=*/false, "") {}
};

}  // namespace tendax

#endif  // TENDAX_STORAGE_SEGMENTED_LOG_H_
