// Shared helper for the benches that open file-backed databases.

#ifndef TENDAX_BENCH_BENCH_FILES_H_
#define TENDAX_BENCH_BENCH_FILES_H_

#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

namespace tendax {

/// Deletes what an earlier run left at `path`: the page file `<path>` and
/// every WAL segment `<path>.wal.NNNNNN`, so the bench starts from an empty
/// database instead of tripping over the previous run's users.
inline void RemoveDatabaseFiles(const std::string& path) {
  namespace fs = std::filesystem;
  const fs::path db(path);
  const fs::path dir = db.has_parent_path() ? db.parent_path() : fs::path(".");
  const std::string segment_prefix = db.filename().string() + ".wal.";
  std::error_code ec;
  std::vector<fs::path> doomed = {db};
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().filename().string().rfind(segment_prefix, 0) == 0) {
      doomed.push_back(entry.path());
    }
  }
  for (const fs::path& p : doomed) fs::remove(p, ec);
}

}  // namespace tendax

#endif  // TENDAX_BENCH_BENCH_FILES_H_
