#ifndef TENDAX_TESTING_FAULT_INJECTION_H_
#define TENDAX_TESTING_FAULT_INJECTION_H_

#include <memory>
#include <string>

#include "storage/disk_manager.h"
#include "storage/wal.h"
#include "testing/fault_plan.h"

namespace tendax {

/// A `DiskManager` decorator that consults a shared `FaultPlan` before every
/// call. Injected failures return `Status::IOError`; torn writes persist a
/// prefix of the new page image over the old bytes (exactly what a power
/// cut mid-sector-write leaves behind) and then put the plan into the
/// crashed state. Plug it into `DatabaseOptions::disk` (and therefore
/// `TendaxOptions::db.disk`) to torture a full server; after the simulated
/// crash, reopen over the inner manager to model a restart.
class FaultInjectingDiskManager : public DiskManager {
 public:
  FaultInjectingDiskManager(std::shared_ptr<DiskManager> inner,
                            std::shared_ptr<FaultPlan> plan)
      : inner_(std::move(inner)), plan_(std::move(plan)) {}

  Result<PageId> AllocatePage() override;
  Status ReadPage(PageId id, char* out) override;
  Status WritePage(PageId id, const char* data) override;
  uint32_t NumPages() const override { return inner_->NumPages(); }
  Status Sync() override;

  DiskManager* inner() { return inner_.get(); }
  FaultPlan* plan() { return plan_.get(); }

 private:
  std::shared_ptr<DiskManager> inner_;
  std::shared_ptr<FaultPlan> plan_;
};

/// A `LogStorage` decorator driven by the same `FaultPlan`: appends can
/// fail, tear (persist a prefix of the record bytes, then crash), or be
/// swallowed by a crashed plan; `Sync` failures model an fsync error at
/// commit time. Plug it into `DatabaseOptions::log_storage`.
///
/// Segment operations pass through the plan as well, so checkpoint crash
/// sweeps can fault rotation (kLogRotate) and segment deletion
/// (kLogDropSegment) too. Tear faults on these ops degrade to plain
/// failures — there is no partial rotate/unlink to model; the plan still
/// enters the crashed state.
class FaultInjectingLogStorage : public LogStorage {
 public:
  FaultInjectingLogStorage(std::shared_ptr<LogStorage> inner,
                           std::shared_ptr<FaultPlan> plan)
      : inner_(std::move(inner)), plan_(std::move(plan)) {}

  Status Append(const Slice& data) override;
  Status Sync() override;
  Status ReadAll(std::string* out) override;
  Status Truncate() override;

  uint64_t current_segment() const override {
    return inner_->current_segment();
  }
  std::vector<uint64_t> SegmentIds() const override {
    return inner_->SegmentIds();
  }
  uint64_t SegmentBytes(uint64_t id) const override {
    return inner_->SegmentBytes(id);
  }
  Status ReadSegment(uint64_t id, std::string* out) override;
  Status RotateSegment(uint64_t* new_id) override;
  Status DropSegment(uint64_t id, uint64_t* bytes_freed) override;

  LogStorage* inner() { return inner_.get(); }
  FaultPlan* plan() { return plan_.get(); }

 private:
  std::shared_ptr<LogStorage> inner_;
  std::shared_ptr<FaultPlan> plan_;
};

}  // namespace tendax

#endif  // TENDAX_TESTING_FAULT_INJECTION_H_
