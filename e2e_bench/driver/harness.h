// Shared machinery of the outside-in TeNDaX benchmark: timing, latency
// samples, spans, wire clients, storage wrappers, registry deltas and the
// result record every workload fills in.
//
// Everything here measures the engine from outside: the driver times its own
// calls into public functions, substitutes its own implementations of the
// public extension interfaces (WireTransport, LogStorage, DiskManager), and
// reads MetricsRegistry snapshots. Nothing inside src/ is instrumented.
#ifndef TENDAX_E2E_BENCH_HARNESS_H_
#define TENDAX_E2E_BENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "collab/retrying_client.h"
#include "collab/wire.h"
#include "core/tendax.h"
#include "storage/disk_manager.h"
#include "storage/wal.h"

namespace bench {

using namespace tendax;

int64_t NowNs();
inline double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }
inline double NsToS(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Stable 64-bit FNV-1a over a string (shadow-text fingerprints).
uint64_t Fingerprint(const std::string& s);

// ---------------------------------------------------------------------------
// Run configuration and phases.

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;          // this pass uses the tracing stack
  int setup_repeats = 1;        // set-ups timed; the last one is measured
  double warmup_seconds = 1.0;  // load runs unmeasured before the window
  std::filesystem::path scratch;  // private directory of this pass
};

/// Load phases. Workers read the phase at the start of each operation and
/// only record operations that started inside the measured window.
enum Phase : int { kWarmup = 0, kMeasure = 1, kStop = 2 };

class PhaseClock {
 public:
  Phase get() const { return static_cast<Phase>(phase_.load()); }
  void set(Phase p) { phase_.store(p); }
  bool measuring() const { return get() == kMeasure; }
  bool stopped() const { return get() == kStop; }

 private:
  std::atomic<int> phase_{kWarmup};
};

// ---------------------------------------------------------------------------
// Latency samples over the whole window. A failed operation counts as
// missing every percentile: it is kept as kMissedUs, which sorts after every
// success.

inline constexpr double kMissedUs = 1e9;

class Samples {
 public:
  void Add(double us) { v_.push_back(us); }
  void Fail() { v_.push_back(kMissedUs); }
  void Merge(const Samples& other);
  size_t total() const { return v_.size(); }
  /// `p` in [0, 100], nearest rank.
  double Percentile(double p) const;

 private:
  std::vector<double> v_;
};

/// Operation tallies of one thread (merged at the end of a pass).
struct OpTally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t keystrokes = 0;  // acknowledged mutating gestures
  uint64_t reads = 0;       // acknowledged text reads (GetText/GetTextAt/Copy)
  uint64_t searches = 0;    // completed SearchEngine::Search calls
  uint64_t polls = 0;       // acknowledged kResume exchanges
  uint64_t dirty_docs_at_search = 0;  // SearchEngine::DirtyDocuments() summed
  void Merge(const OpTally& o);
};

// ---------------------------------------------------------------------------
// Spans. The driver opens one around each of its calls into a layer (client
// Call, transport Handle, Search, storage I/O inside the wrappers).
// Recording is armed only in a traced pass and only inside the window.
// Per-(kind, command) aggregates are exact; raw spans are kept up to a cap
// per thread and written out at exit.

enum SpanKind : uint8_t {
  kSpanWireClient = 0,  // RetryingClient::Call (request root)
  kSpanWireHandle,      // transport -> RemoteEditorEndpoint::HandleFrame
  kSpanSearch,          // SearchEngine::Search (request root)
  kSpanWalAppend,       // LogStorage::Append
  kSpanWalSync,         // LogStorage::Sync
  kSpanDiskRead,        // DiskManager::ReadPage
  kSpanDiskWrite,       // DiskManager::WritePage
  kNumSpanKinds,
};
const char* SpanKindName(SpanKind kind);

/// Detail byte of a span: the command kind for wire spans, 0 otherwise.
inline constexpr int kNumSpanDetails = kCommandKindMax + 1;
/// Passed as `detail` to inherit the enclosing span's detail.
inline constexpr uint8_t kInheritDetail = 0xFF;

struct SpanAggregate {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;  // total minus time covered by child spans
};

class Tracer {
 public:
  /// Arms span recording (traced pass, measured window only).
  static void SetRecording(bool on);
  /// Drops every recorded span and aggregate.
  static void Reset();
  /// Aggregates over all threads, indexed [kind][detail].
  static std::vector<std::vector<SpanAggregate>> Aggregate();
  /// Sum of aggregates over the details accepted by `pick`.
  static SpanAggregate Sum(SpanKind kind, bool (*pick)(uint8_t detail));
  /// Writes the kept raw spans as TSV; returns how many were written.
  static size_t WriteTsv(const std::filesystem::path& path);
};

class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind, uint8_t detail = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  struct ThreadSpans* buf_ = nullptr;
};

// ---------------------------------------------------------------------------
// Wire clients: one editor session plus endpoint, transport and retrying
// client, used by exactly one thread. In a traced pass the transport is a
// timing transport that opens a span around HandleFrame; otherwise it is the
// stock DirectTransport.

class TimingTransport : public WireTransport {
 public:
  explicit TimingTransport(RemoteEditorEndpoint* endpoint)
      : endpoint_(endpoint) {}
  Result<std::string> RoundTrip(const std::string& request) override;

 private:
  RemoteEditorEndpoint* const endpoint_;
};

// Members are destroyed bottom-up: the client first, the editor (which
// disconnects its session) last.
struct Agent {
  UserId user;
  std::unique_ptr<Editor> editor;
  std::unique_ptr<RemoteEditorEndpoint> endpoint;
  std::unique_ptr<WireTransport> transport;
  std::unique_ptr<RetryingClient> client;
};

Result<std::unique_ptr<Agent>> MakeAgent(TendaxServer* server, UserId user,
                                 const std::string& name, bool traced,
                                 uint64_t seed);

/// One timed wire exchange. `ok` is true only for a delivered response with
/// code kOk; transport loss, exhausted retries, shed, deadline and conflict
/// replies are all failures.
struct Exchange {
  bool ok = false;
  WireResponse response;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double us() const { return NsToUs(end_ns - start_ns); }
};
Exchange Call(Agent* agent, const EditCommand& command);

EditCommand Command(CommandKind kind, DocumentId doc, uint64_t pos = 0,
                    uint64_t len = 0, std::string text = "");

inline bool IsMutating(uint8_t kind) {
  switch (static_cast<CommandKind>(kind)) {
    case CommandKind::kType:
    case CommandKind::kErase:
    case CommandKind::kPaste:
    case CommandKind::kUndo:
    case CommandKind::kRedo:
      return true;
    default:
      return false;
  }
}
inline bool IsTextRead(uint8_t kind) {
  auto k = static_cast<CommandKind>(kind);
  return k == CommandKind::kGetText || k == CommandKind::kGetTextAt ||
         k == CommandKind::kCopy;
}

// ---------------------------------------------------------------------------
// Storage wrappers for the traced pass: pass-through implementations of the
// public storage interfaces that count and time every call.

struct IoCounters {
  std::atomic<uint64_t> log_appends{0};
  std::atomic<uint64_t> log_bytes{0};
  std::atomic<int64_t> log_append_ns{0};
  std::atomic<uint64_t> log_syncs{0};
  std::atomic<int64_t> log_sync_ns{0};
  std::atomic<uint64_t> page_reads{0};
  std::atomic<int64_t> page_read_ns{0};
  std::atomic<uint64_t> page_writes{0};
};

/// Plain copy of IoCounters at one instant.
struct IoSnapshot {
  uint64_t log_appends = 0, log_bytes = 0, log_syncs = 0;
  int64_t log_append_ns = 0, log_sync_ns = 0;
  uint64_t page_reads = 0, page_writes = 0;
  int64_t page_read_ns = 0;
  static IoSnapshot Of(const IoCounters& c);
  IoSnapshot Minus(const IoSnapshot& o) const;
};

class CountingLogStorage : public LogStorage {
 public:
  CountingLogStorage(std::shared_ptr<LogStorage> inner, IoCounters* io)
      : inner_(std::move(inner)), io_(io) {}
  Status Append(const Slice& data) override;
  Status Sync() override;
  Status ReadAll(std::string* out) override { return inner_->ReadAll(out); }
  Status Truncate() override { return inner_->Truncate(); }
  bool segmented() const override { return inner_->segmented(); }
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
  IoCounters* const io_;
};

class CountingDiskManager : public DiskManager {
 public:
  CountingDiskManager(std::shared_ptr<DiskManager> inner, IoCounters* io)
      : inner_(std::move(inner)), io_(io) {}
  Result<PageId> AllocatePage() override { return inner_->AllocatePage(); }
  Status ReadPage(PageId id, char* out) override;
  Status WritePage(PageId id, const char* data) override;
  uint32_t NumPages() const override { return inner_->NumPages(); }
  Status Sync() override { return inner_->Sync(); }

 private:
  std::shared_ptr<DiskManager> inner_;
  IoCounters* const io_;
};

// ---------------------------------------------------------------------------
// Where a database lives. File-backed: `<dir>/db` plus `<dir>/db.wal.NNNNNN`
// segments. In-memory: the stock in-memory backends, held here so a closed
// server can be reopened over them (that is the restart of an in-memory
// server). A traced pass wraps both in the counting wrappers.

class Storage {
 public:
  static Storage File(std::filesystem::path dir);
  static Storage Memory();

  bool file_backed() const { return !dir_.empty(); }

  /// Production-default options over this storage; `io` non-null installs
  /// the counting wrappers.
  Result<TendaxOptions> Options(IoCounters* io) const;

  /// Bytes the database occupies: data pages plus every WAL segment.
  uint64_t Bytes() const;

  /// An independent copy of the current bytes (the server must be closed).
  Result<Storage> Copy(const std::filesystem::path& to) const;

 private:
  std::filesystem::path dir_;
  std::shared_ptr<InMemoryDiskManager> mem_disk_;
  std::shared_ptr<InMemoryLogStorage> mem_log_;
};

/// Timed restart over closed storage. With `db_open_copy` set (traced pass),
/// Database::Open alone is first timed on a copy placed there.
struct Reopen {
  std::unique_ptr<TendaxServer> server;
  double server_open_s = 0;
  double db_open_s = 0;
  uint64_t recovery_records_scanned = 0;
};
Result<Reopen> TimedReopen(const Storage& storage, IoCounters* io,
                           const std::filesystem::path* db_open_copy);

// ---------------------------------------------------------------------------
// Registry deltas over the measured window.

struct MetricWindow {
  MetricsSnapshot begin, end;
  uint64_t Counter(const std::string& name) const;
  /// {count, sum} of histogram `name` recorded inside the window.
  std::pair<uint64_t, uint64_t> Hist(const std::string& name) const;
  double HistMean(const std::string& name) const;
};

// ---------------------------------------------------------------------------
// Propagation bookkeeping. Each typist logs the send time of every mutating
// gesture per document; a watcher matches the k-th change event of (user,
// doc) to the k-th acknowledged gesture of that typist on that document.

class SendLog {
 public:
  /// Appends a send; returns its ordinal.
  size_t Push(int64_t send_ns, bool measured);
  /// Removes the last send (its gesture failed, so no event will follow).
  void Pop();
  /// Send time of ordinal `k` if it was measured, else -1.
  int64_t MeasuredAt(size_t k) const;

 private:
  mutable std::mutex mu_;
  std::vector<int64_t> sends_;  // negative = outside the window
};

// ---------------------------------------------------------------------------
// Result record.

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// False for a per-layer time that reads 0 on every run of a workload
  /// where its layer idles (no undo, no pool misses, closed loop): printed
  /// in the table, left out of the JSON result and of BENCHMARK.json.
  bool in_result = true;
};

struct PassResult {
  bool correct = true;
  std::string error;  // first correctness failure
  OpTally ops;
  double window_s = 0;
  double setup_s = 0;
  double reopen_s = 0;
  double peak_rss_mb = 0;   // high-water mark when the window opens
  double primary_rate = 0;  // ops/s the trace overhead is judged on
  Samples keystroke, propagation, read, search;
  Samples lag, from_due;  // open loop: lateness, and keystrokes from due
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;  // human-readable lines (ratios with bases)

  void Fail(const std::string& why) {
    if (correct) error = why;
    correct = false;
  }
  void Check(bool ok, const std::string& why) {
    if (!ok) Fail(why);
  }
};

/// Everything a workload hands the shared reporting code besides samples.
struct LayerInputs {
  MetricWindow window;
  IoSnapshot io;                 // wrapper deltas over the window
  uint64_t disk_bytes_delta = 0; // storage growth over the whole load
  uint64_t load_keystrokes = 0;  // acknowledged gestures over the same span
  uint64_t client_calls = 0, client_attempts = 0;
  uint64_t chain_records = 0, live_chars = 0;
  double db_open_s = 0;
  uint64_t recovery_records_scanned = 0;
};

/// Fills `r->end_to_end` and (traced pass) `r->per_layer` with every metric
/// named in BENCHMARK.json, plus the human-readable ratio notes.
void Report(const RunConfig& config, const LayerInputs& in, PassResult* r);

/// Peak resident set size of this process, MiB.
double PeakRssMb();

/// Runs the load's warm-up and measured window from the calling thread while
/// the load threads run: moves the phase along, takes the registry and
/// wrapper snapshots at the window edges (into `in`), and records the window
/// length and the peak resident set at the window's start (into `r`).
void RunWindow(const RunConfig& config, PhaseClock* phase,
               MetricsRegistry* metrics, IoCounters* io, LayerInputs* in,
               PassResult* r);

/// Median of a small sample.
double Median(std::vector<double> v);

}  // namespace bench

#endif  // TENDAX_E2E_BENCH_HARNESS_H_
