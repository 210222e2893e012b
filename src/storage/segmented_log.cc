#include "storage/segmented_log.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace tendax {

namespace {

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + strerror(errno));
}

// Splits `prefix` into (directory, basename) for directory scans/fsyncs.
void SplitPath(const std::string& prefix, std::string* dir,
               std::string* base) {
  size_t slash = prefix.find_last_of('/');
  if (slash == std::string::npos) {
    *dir = ".";
    *base = prefix;
  } else {
    *dir = prefix.substr(0, slash == 0 ? 1 : slash);
    *base = prefix.substr(slash + 1);
  }
}

Status ReadWholeFile(const std::string& path, std::string* out) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Errno("open " + path);
  out->clear();
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      Status st = Errno("read " + path);
      ::close(fd);
      return st;
    }
    if (n == 0) break;
    out->append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return Status::OK();
}

}  // namespace

SegmentedLogStorage::SegmentedLogStorage(bool file_backed, std::string prefix)
    : file_backed_(file_backed), prefix_(std::move(prefix)) {
  if (!file_backed_) {
    MutexLock lock(mu_);
    sizes_[current_] = 0;
    mem_[current_] = "";
  }
}

SegmentedLogStorage::~SegmentedLogStorage() {
  MutexLock lock(mu_);
  if (fd_ >= 0) ::close(fd_);
}

Result<std::shared_ptr<SegmentedLogStorage>> SegmentedLogStorage::OpenFiles(
    const std::string& prefix) {
  auto log = std::shared_ptr<SegmentedLogStorage>(
      new SegmentedLogStorage(/*file_backed=*/true, prefix));

  std::string dir, base;
  SplitPath(prefix, &dir, &base);
  std::vector<uint64_t> ids;
  DIR* d = ::opendir(dir.c_str());
  if (d != nullptr) {
    const std::string stem = base + ".";
    while (struct dirent* e = ::readdir(d)) {
      std::string name = e->d_name;
      if (name.size() <= stem.size() || name.compare(0, stem.size(), stem)) {
        continue;
      }
      std::string tail = name.substr(stem.size());
      if (tail.empty() ||
          tail.find_first_not_of("0123456789") != std::string::npos) {
        continue;
      }
      ids.push_back(strtoull(tail.c_str(), nullptr, 10));
    }
    ::closedir(d);
  }
  std::sort(ids.begin(), ids.end());
  // Only the contiguous suffix of the id sequence is trustworthy history:
  // the checkpointer deletes oldest-first, so a crash can only remove a
  // prefix. Anything before a gap is an orphan and is ignored.
  size_t start = 0;
  for (size_t i = ids.size(); i-- > 1;) {
    if (ids[i - 1] + 1 != ids[i]) {
      start = i;
      break;
    }
  }

  MutexLock lock(log->mu_);
  for (size_t i = start; i < ids.size(); ++i) {
    struct stat st;
    std::string path = log->SegmentPath(ids[i]);
    if (::stat(path.c_str(), &st) != 0) return Errno("stat " + path);
    log->sizes_[ids[i]] = static_cast<uint64_t>(st.st_size);
  }
  log->current_ = log->sizes_.empty() ? 1 : log->sizes_.rbegin()->first;
  log->sizes_.try_emplace(log->current_, 0);
  TENDAX_RETURN_IF_ERROR(log->OpenCurrentFileLocked());
  return log;
}

std::string SegmentedLogStorage::SegmentPath(uint64_t id) const {
  char buf[32];
  snprintf(buf, sizeof(buf), ".%06" PRIu64, id);
  return prefix_ + buf;
}

Status SegmentedLogStorage::OpenCurrentFileLocked() {
  std::string path = SegmentPath(current_);
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) return Errno("open " + path);
  return Status::OK();
}

Status SegmentedLogStorage::CloseCurrentFileLocked(bool sync) {
  if (fd_ < 0) return Status::OK();
  Status st = Status::OK();
  if (sync && ::fsync(fd_) != 0) st = Errno("fsync segment");
  if (::close(fd_) != 0 && st.ok()) st = Errno("close segment");
  fd_ = -1;
  return st;
}

Status SegmentedLogStorage::SyncDirLocked() {
  std::string dir, base;
  SplitPath(prefix_, &dir, &base);
  int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd < 0) return Errno("open dir " + dir);
  Status st = Status::OK();
  if (::fsync(dfd) != 0) st = Errno("fsync dir " + dir);
  ::close(dfd);
  return st;
}

Status SegmentedLogStorage::Append(const Slice& data) {
  MutexLock lock(mu_);
  if (!file_backed_) {
    mem_[current_].append(data.data(), data.size());
    sizes_[current_] += data.size();
    return Status::OK();
  }
  const char* p = data.data();
  size_t left = data.size();
  while (left > 0) {
    ssize_t n = ::write(fd_, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("write segment");
    }
    p += n;
    left -= static_cast<size_t>(n);
  }
  sizes_[current_] += data.size();
  return Status::OK();
}

Status SegmentedLogStorage::Sync() {
  MutexLock lock(mu_);
  if (!file_backed_) return Status::OK();
  if (::fsync(fd_) != 0) return Errno("fsync segment");
  return Status::OK();
}

Status SegmentedLogStorage::ReadAll(std::string* out) {
  out->clear();
  for (uint64_t id : SegmentIds()) {
    std::string part;
    TENDAX_RETURN_IF_ERROR(ReadSegment(id, &part));
    out->append(part);
  }
  return Status::OK();
}

Status SegmentedLogStorage::Truncate() {
  MutexLock lock(mu_);
  if (file_backed_) {
    TENDAX_RETURN_IF_ERROR(CloseCurrentFileLocked(/*sync=*/false));
    for (const auto& [id, size] : sizes_) {
      (void)size;
      std::string path = SegmentPath(id);
      if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
        return Errno("unlink " + path);
      }
    }
  }
  uint64_t next = current_ + 1;  // ids stay monotonic across Truncate
  sizes_.clear();
  mem_.clear();
  current_ = next;
  sizes_[current_] = 0;
  if (!file_backed_) {
    mem_[current_] = "";
    return Status::OK();
  }
  TENDAX_RETURN_IF_ERROR(OpenCurrentFileLocked());
  return SyncDirLocked();
}

uint64_t SegmentedLogStorage::current_segment() const {
  MutexLock lock(mu_);
  return current_;
}

std::vector<uint64_t> SegmentedLogStorage::SegmentIds() const {
  MutexLock lock(mu_);
  std::vector<uint64_t> ids;
  ids.reserve(sizes_.size());
  for (const auto& [id, size] : sizes_) {
    (void)size;
    ids.push_back(id);
  }
  return ids;
}

uint64_t SegmentedLogStorage::SegmentBytes(uint64_t id) const {
  MutexLock lock(mu_);
  auto it = sizes_.find(id);
  return it == sizes_.end() ? 0 : it->second;
}

uint64_t SegmentedLogStorage::TotalBytes() const {
  MutexLock lock(mu_);
  uint64_t total = 0;
  for (const auto& [id, size] : sizes_) {
    (void)id;
    total += size;
  }
  return total;
}

Status SegmentedLogStorage::ReadSegment(uint64_t id, std::string* out) {
  {
    MutexLock lock(mu_);
    if (!sizes_.count(id)) {
      return Status::NotFound("no log segment " + std::to_string(id));
    }
    if (!file_backed_) {
      *out = mem_[id];
      return Status::OK();
    }
  }
  return ReadWholeFile(SegmentPath(id), out);
}

Status SegmentedLogStorage::RotateSegment(uint64_t* new_id) {
  MutexLock lock(mu_);
  if (file_backed_) {
    // Seal durably before switching so the old segment's tail can never be
    // lost once records land in the new one.
    TENDAX_RETURN_IF_ERROR(CloseCurrentFileLocked(/*sync=*/true));
  }
  ++current_;
  sizes_[current_] = 0;
  if (!file_backed_) {
    mem_[current_] = "";
  } else {
    TENDAX_RETURN_IF_ERROR(OpenCurrentFileLocked());
    TENDAX_RETURN_IF_ERROR(SyncDirLocked());
  }
  if (new_id != nullptr) *new_id = current_;
  return Status::OK();
}

Status SegmentedLogStorage::DropSegment(uint64_t id, uint64_t* bytes_freed) {
  MutexLock lock(mu_);
  if (id == current_) {
    return Status::InvalidArgument("cannot drop the current log segment");
  }
  auto it = sizes_.find(id);
  if (it == sizes_.end()) {
    return Status::NotFound("no log segment " + std::to_string(id));
  }
  if (file_backed_) {
    std::string path = SegmentPath(id);
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      return Errno("unlink " + path);
    }
    TENDAX_RETURN_IF_ERROR(SyncDirLocked());
  }
  if (bytes_freed != nullptr) *bytes_freed = it->second;
  sizes_.erase(it);
  mem_.erase(id);
  return Status::OK();
}

void SegmentedLogStorage::CorruptTail(size_t n) {
  MutexLock lock(mu_);
  if (file_backed_) return;
  std::string& cur = mem_[current_];
  if (n < cur.size()) {
    cur.resize(n);
    sizes_[current_] = n;
  }
}

}  // namespace tendax
