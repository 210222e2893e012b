#include "testing/schedule_controller.h"

#include <sstream>

#include "util/logging.h"

namespace tendax {

/// The decorator behind `ScheduleController::GateLog`: every Append passes
/// the controller's flush gate, everything else forwards unchanged.
class GatedLogStorage : public LogStorage {
 public:
  GatedLogStorage(std::shared_ptr<LogStorage> inner, ScheduleController* sched)
      : inner_(std::move(inner)), sched_(sched) {}

  Status Append(const Slice& data) override {
    sched_->OnFlush();
    return inner_->Append(data);
  }
  Status Sync() override { return inner_->Sync(); }
  Status ReadAll(std::string* out) override { return inner_->ReadAll(out); }
  Status Truncate() override { return inner_->Truncate(); }
  uint64_t current_segment() const override {
    return inner_->current_segment();
  }
  std::vector<uint64_t> SegmentIds() const override {
    return inner_->SegmentIds();
  }
  uint64_t SegmentBytes(uint64_t id) const override {
    return inner_->SegmentBytes(id);
  }
  Status ReadSegment(uint64_t id, std::string* out) override {
    return inner_->ReadSegment(id, out);
  }
  Status RotateSegment(uint64_t* new_id) override {
    return inner_->RotateSegment(new_id);
  }
  Status DropSegment(uint64_t id, uint64_t* bytes_freed) override {
    return inner_->DropSegment(id, bytes_freed);
  }

 private:
  std::shared_ptr<LogStorage> inner_;
  ScheduleController* const sched_;
};

std::shared_ptr<LogStorage> ScheduleController::GateLog(
    std::shared_ptr<LogStorage> inner,
    std::shared_ptr<MetricsRegistry> metrics) {
  Counter* commits = metrics->counter("wal.commits");
  MutexLock lock(mu_);
  commits_ = commits;
  metrics_ = std::move(metrics);
  return std::make_shared<GatedLogStorage>(std::move(inner), this);
}

void ScheduleController::PauseAtFlush(uint64_t n) {
  MutexLock lock(mu_);
  TENDAX_CHECK(commits_ != nullptr);  // GateLog comes first
  pause_at_.insert(n);
  commits_at_pause_ = commits_->Value();
}

uint64_t ScheduleController::PickFlush(uint64_t lo, uint64_t hi) {
  MutexLock lock(mu_);
  if (hi <= lo) return lo;
  return lo + rng_.Uniform(hi - lo + 1);
}

bool ScheduleController::WaitUntilPaused(std::chrono::milliseconds timeout) {
  MutexLock lock(mu_);
  return cv_.WaitFor(lock, timeout, [&] { return paused_; });
}

bool ScheduleController::WaitForWaiters(size_t k,
                                        std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  MutexLock lock(mu_);
  // Nothing signals a commit, so poll the counter.
  while (commits_->Value() < commits_at_pause_ + k) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    (void)cv_.WaitFor(lock, std::chrono::milliseconds(1));
  }
  return true;
}

void ScheduleController::ReleaseFlush() {
  MutexLock lock(mu_);
  pause_at_.clear();
  cv_.NotifyAll();
}

uint64_t ScheduleController::flushes_seen() const {
  MutexLock lock(mu_);
  return started_;
}

std::string ScheduleController::Describe() const {
  MutexLock lock(mu_);
  std::ostringstream out;
  out << "ScheduleController{seed=" << seed_ << ", flushes=" << started_;
  if (!pause_at_.empty()) {
    out << ", pause_at=";
    bool first = true;
    for (uint64_t n : pause_at_) {
      out << (first ? "" : ",") << n;
      first = false;
    }
  }
  out << "}";
  return out.str();
}

void ScheduleController::OnFlush() {
  MutexLock lock(mu_);
  const uint64_t index = ++started_;
  if (pause_at_.count(index) == 0) return;
  paused_ = true;
  cv_.NotifyAll();
  cv_.Wait(lock, [&] { return pause_at_.count(index) == 0; });
  paused_ = false;
}

void ScheduleController::PauseAtCheckpoint(uint64_t checkpoint_index,
                                           CheckpointPhase phase) {
  MutexLock lock(mu_);
  ckpt_pause_at_.emplace(checkpoint_index, static_cast<uint8_t>(phase));
}

bool ScheduleController::WaitUntilCheckpointPaused(
    std::chrono::milliseconds timeout) {
  MutexLock lock(mu_);
  return cv_.WaitFor(lock, timeout, [&] { return ckpt_paused_; });
}

void ScheduleController::ReleaseCheckpoint() {
  MutexLock lock(mu_);
  ckpt_release_ = true;
  cv_.NotifyAll();
}

void ScheduleController::OnCheckpointPhase(uint64_t checkpoint_index,
                                           CheckpointPhase phase) {
  MutexLock lock(mu_);
  auto key = std::make_pair(checkpoint_index, static_cast<uint8_t>(phase));
  auto it = ckpt_pause_at_.find(key);
  if (it == ckpt_pause_at_.end()) return;
  ckpt_pause_at_.erase(it);
  ckpt_paused_ = true;
  cv_.NotifyAll();
  cv_.Wait(lock, [&] { return ckpt_release_; });
  ckpt_release_ = false;
  ckpt_paused_ = false;
  cv_.NotifyAll();
}

}  // namespace tendax
