#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "storage/segmented_log.h"

namespace bench {

namespace fs = std::filesystem;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t Fingerprint(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// --- samples ---------------------------------------------------------------

void Samples::Merge(const Samples& other) {
  v_.insert(v_.end(), other.v_.begin(), other.v_.end());
}

double Samples::Percentile(double p) const {
  if (v_.empty()) return 0;
  const size_t n = v_.size();
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, n) - 1;
  std::vector<double> values = v_;
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

void OpTally::Merge(const OpTally& o) {
  attempted += o.attempted;
  failed += o.failed;
  keystrokes += o.keystrokes;
  reads += o.reads;
  searches += o.searches;
  polls += o.polls;
  dirty_docs_at_search += o.dirty_docs_at_search;
}

// --- spans -----------------------------------------------------------------

namespace {

constexpr size_t kKeptSpansPerThread = 50'000;

struct OpenSpan {
  int64_t start = 0;
  int64_t child_ns = 0;
  int32_t kept = -1;  // index into ThreadSpans::kept, -1 beyond the cap
  uint8_t kind = 0;
  uint8_t detail = 0;
};

struct RawSpan {
  uint64_t request = 0;
  int32_t parent = -1;
  uint8_t kind = 0;
  uint8_t detail = 0;
  int64_t start = 0;
  int64_t end = 0;
};

std::atomic<bool> g_recording{false};
std::atomic<uint64_t> g_next_request{1};

}  // namespace

struct ThreadSpans {
  size_t index = 0;
  uint64_t request = 0;
  std::vector<OpenSpan> open;
  std::vector<RawSpan> kept;
  SpanAggregate agg[kNumSpanKinds][kNumSpanDetails] = {};
};

namespace {

std::mutex g_threads_mu;
std::vector<std::unique_ptr<ThreadSpans>> g_threads;  // never shrinks
thread_local ThreadSpans* t_spans = nullptr;

ThreadSpans* LocalSpans() {
  if (t_spans == nullptr) {
    std::lock_guard<std::mutex> lock(g_threads_mu);
    g_threads.push_back(std::make_unique<ThreadSpans>());
    g_threads.back()->index = g_threads.size() - 1;
    t_spans = g_threads.back().get();
  }
  return t_spans;
}

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case kSpanWireClient: return "wire.client";
    case kSpanWireHandle: return "wire.handle";
    case kSpanSearch: return "search.query";
    case kSpanWalAppend: return "wal.append";
    case kSpanWalSync: return "wal.sync";
    case kSpanDiskRead: return "disk.read";
    case kSpanDiskWrite: return "disk.write";
    default: return "?";
  }
}

void Tracer::SetRecording(bool on) { g_recording.store(on); }

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(g_threads_mu);
  for (auto& t : g_threads) {
    t->open.clear();
    t->kept.clear();
    for (auto& row : t->agg) {
      for (auto& a : row) a = SpanAggregate{};
    }
  }
}

std::vector<std::vector<SpanAggregate>> Tracer::Aggregate() {
  std::vector<std::vector<SpanAggregate>> out(
      kNumSpanKinds, std::vector<SpanAggregate>(kNumSpanDetails));
  std::lock_guard<std::mutex> lock(g_threads_mu);
  for (const auto& t : g_threads) {
    for (int k = 0; k < kNumSpanKinds; ++k) {
      for (int d = 0; d < kNumSpanDetails; ++d) {
        out[k][d].count += t->agg[k][d].count;
        out[k][d].total_ns += t->agg[k][d].total_ns;
        out[k][d].self_ns += t->agg[k][d].self_ns;
      }
    }
  }
  return out;
}

SpanAggregate Tracer::Sum(SpanKind kind, bool (*pick)(uint8_t detail)) {
  auto all = Aggregate();
  SpanAggregate s;
  for (int d = 0; d < kNumSpanDetails; ++d) {
    if (pick != nullptr && !pick(static_cast<uint8_t>(d))) continue;
    s.count += all[kind][d].count;
    s.total_ns += all[kind][d].total_ns;
    s.self_ns += all[kind][d].self_ns;
  }
  return s;
}

size_t Tracer::WriteTsv(const fs::path& path) {
  std::ofstream out(path);
  if (!out) return 0;
  out << "thread\tspan\tparent\trequest\tkind\tcommand\tstart_ns\tend_ns\n";
  size_t written = 0;
  std::lock_guard<std::mutex> lock(g_threads_mu);
  for (const auto& t : g_threads) {
    for (size_t i = 0; i < t->kept.size(); ++i) {
      const RawSpan& s = t->kept[i];
      if (s.end == 0) continue;  // still open when the window closed
      out << t->index << '\t' << i << '\t' << s.parent << '\t' << s.request
          << '\t' << SpanKindName(static_cast<SpanKind>(s.kind)) << '\t'
          << (s.kind <= kSpanWireHandle
                  ? CommandKindName(static_cast<CommandKind>(s.detail))
                  : "-")
          << '\t' << s.start << '\t' << s.end << '\n';
      ++written;
    }
  }
  return written;
}

ScopedSpan::ScopedSpan(SpanKind kind, uint8_t detail) {
  if (!g_recording.load(std::memory_order_relaxed)) return;
  ThreadSpans* t = LocalSpans();
  OpenSpan o;
  o.kind = kind;
  o.detail = detail == kInheritDetail
                 ? (t->open.empty() ? 0 : t->open.back().detail)
                 : detail;
  const int32_t parent = t->open.empty() ? -1 : t->open.back().kept;
  if (t->open.empty()) t->request = g_next_request.fetch_add(1);
  o.start = NowNs();
  if (t->kept.size() < kKeptSpansPerThread) {
    o.kept = static_cast<int32_t>(t->kept.size());
    t->kept.push_back(RawSpan{t->request, parent, o.kind, o.detail, o.start, 0});
  }
  t->open.push_back(o);
  buf_ = t;
}

ScopedSpan::~ScopedSpan() {
  if (buf_ == nullptr || buf_->open.empty()) return;
  const int64_t end = NowNs();
  const OpenSpan o = buf_->open.back();
  buf_->open.pop_back();
  const int64_t dur = end - o.start;
  SpanAggregate& a = buf_->agg[o.kind][o.detail];
  ++a.count;
  a.total_ns += dur;
  a.self_ns += dur - o.child_ns;
  if (!buf_->open.empty()) buf_->open.back().child_ns += dur;
  if (o.kept >= 0) buf_->kept[o.kept].end = end;
}

// --- wire --------------------------------------------------------------------

Result<std::string> TimingTransport::RoundTrip(const std::string& request) {
  ScopedSpan span(kSpanWireHandle, kInheritDetail);
  return endpoint_->HandleFrame(request);
}

Result<std::unique_ptr<Agent>> MakeAgent(TendaxServer* server, UserId user,
                                         const std::string& name, bool traced,
                                         uint64_t seed) {
  auto agent = std::make_unique<Agent>();
  agent->user = user;
  auto editor = server->AttachEditor(user, name);
  if (!editor.ok()) return editor.status();
  agent->editor = std::move(*editor);
  agent->endpoint = std::make_unique<RemoteEditorEndpoint>(agent->editor.get());
  if (traced) {
    agent->transport = std::make_unique<TimingTransport>(agent->endpoint.get());
  } else {
    agent->transport = std::make_unique<DirectTransport>(agent->endpoint.get());
  }
  RetryOptions options;
  options.seed = seed;
  agent->client =
      std::make_unique<RetryingClient>(agent->transport.get(), options);
  return agent;
}

Exchange Call(Agent* agent, const EditCommand& command) {
  Exchange x;
  ScopedSpan span(kSpanWireClient, static_cast<uint8_t>(command.kind));
  x.start_ns = NowNs();
  auto r = agent->client->Call(command);
  x.end_ns = NowNs();
  if (r.ok()) {
    x.response = std::move(*r);
    x.ok = x.response.code == StatusCode::kOk;
  }
  return x;
}

EditCommand Command(CommandKind kind, DocumentId doc, uint64_t pos,
                    uint64_t len, std::string text) {
  EditCommand c;
  c.kind = kind;
  c.doc = doc;
  c.pos = pos;
  c.len = len;
  c.text = std::move(text);
  return c;
}

// --- storage wrappers --------------------------------------------------------

IoSnapshot IoSnapshot::Of(const IoCounters& c) {
  IoSnapshot s;
  s.log_appends = c.log_appends.load();
  s.log_bytes = c.log_bytes.load();
  s.log_append_ns = c.log_append_ns.load();
  s.log_syncs = c.log_syncs.load();
  s.log_sync_ns = c.log_sync_ns.load();
  s.page_reads = c.page_reads.load();
  s.page_read_ns = c.page_read_ns.load();
  s.page_writes = c.page_writes.load();
  return s;
}

IoSnapshot IoSnapshot::Minus(const IoSnapshot& o) const {
  IoSnapshot d;
  d.log_appends = log_appends - o.log_appends;
  d.log_bytes = log_bytes - o.log_bytes;
  d.log_append_ns = log_append_ns - o.log_append_ns;
  d.log_syncs = log_syncs - o.log_syncs;
  d.log_sync_ns = log_sync_ns - o.log_sync_ns;
  d.page_reads = page_reads - o.page_reads;
  d.page_read_ns = page_read_ns - o.page_read_ns;
  d.page_writes = page_writes - o.page_writes;
  return d;
}

Status CountingLogStorage::Append(const Slice& data) {
  ScopedSpan span(kSpanWalAppend);
  const int64_t t0 = NowNs();
  Status st = inner_->Append(data);
  io_->log_append_ns += NowNs() - t0;
  io_->log_appends += 1;
  io_->log_bytes += data.size();
  return st;
}

Status CountingLogStorage::Sync() {
  ScopedSpan span(kSpanWalSync);
  const int64_t t0 = NowNs();
  Status st = inner_->Sync();
  io_->log_sync_ns += NowNs() - t0;
  io_->log_syncs += 1;
  return st;
}

Status CountingDiskManager::ReadPage(PageId id, char* out) {
  ScopedSpan span(kSpanDiskRead);
  const int64_t t0 = NowNs();
  Status st = inner_->ReadPage(id, out);
  io_->page_read_ns += NowNs() - t0;
  io_->page_reads += 1;
  return st;
}

Status CountingDiskManager::WritePage(PageId id, const char* data) {
  ScopedSpan span(kSpanDiskWrite);
  Status st = inner_->WritePage(id, data);
  io_->page_writes += 1;
  return st;
}

// --- storage -----------------------------------------------------------------

Storage Storage::File(fs::path dir) {
  Storage s;
  fs::create_directories(dir);
  s.dir_ = std::move(dir);
  return s;
}

Storage Storage::Memory() {
  Storage s;
  s.mem_disk_ = std::make_shared<InMemoryDiskManager>();
  s.mem_log_ = std::make_shared<InMemoryLogStorage>();
  return s;
}

Result<TendaxOptions> Storage::Options(IoCounters* io) const {
  TendaxOptions options;
  std::shared_ptr<DiskManager> disk;
  std::shared_ptr<LogStorage> log;
  if (file_backed()) {
    options.db.path = (dir_ / "db").string();
    if (io == nullptr) return options;  // stock file storage, as in production
    auto file = FileDiskManager::Open(options.db.path);
    if (!file.ok()) return file.status();
    disk = std::shared_ptr<DiskManager>(std::move(*file));
    auto segments = SegmentedLogStorage::OpenFiles(options.db.path + ".wal");
    if (!segments.ok()) return segments.status();
    log = std::move(*segments);
  } else {
    disk = mem_disk_;
    log = mem_log_;
  }
  if (io != nullptr) {
    disk = std::make_shared<CountingDiskManager>(std::move(disk), io);
    log = std::make_shared<CountingLogStorage>(std::move(log), io);
  }
  options.db.disk = std::move(disk);
  options.db.log_storage = std::move(log);
  return options;
}

uint64_t Storage::Bytes() const {
  if (!file_backed()) {
    std::string log;
    (void)mem_log_->ReadAll(&log);
    return uint64_t{mem_disk_->NumPages()} * kPageSize + log.size();
  }
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name == "db" || name.rfind("db.wal.", 0) == 0) {
      total += entry.file_size(ec);
    }
  }
  return total;
}

Result<Storage> Storage::Copy(const fs::path& to) const {
  if (file_backed()) {
    Storage copy = File(to);
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir_, ec)) {
      const std::string name = entry.path().filename().string();
      if (name != "db" && name.rfind("db.wal.", 0) != 0) continue;
      fs::copy_file(entry.path(), to / name,
                    fs::copy_options::overwrite_existing, ec);
      if (ec) return Status::IOError("copy " + name + ": " + ec.message());
    }
    return copy;
  }
  Storage copy = Memory();
  std::string page(kPageSize, '\0');
  for (PageId id = 0; id < mem_disk_->NumPages(); ++id) {
    TENDAX_RETURN_IF_ERROR(mem_disk_->ReadPage(id, page.data()));
    auto fresh = copy.mem_disk_->AllocatePage();
    if (!fresh.ok()) return fresh.status();
    TENDAX_RETURN_IF_ERROR(copy.mem_disk_->WritePage(*fresh, page.data()));
  }
  std::string log;
  TENDAX_RETURN_IF_ERROR(mem_log_->ReadAll(&log));
  TENDAX_RETURN_IF_ERROR(copy.mem_log_->Append(log));
  return copy;
}

Result<Reopen> TimedReopen(const Storage& storage, IoCounters* io,
                           const fs::path* db_open_copy) {
  Reopen r;
  if (db_open_copy != nullptr) {
    auto copy = storage.Copy(*db_open_copy);
    if (!copy.ok()) return copy.status();
    auto options = copy->Options(nullptr);
    if (!options.ok()) return options.status();
    const int64_t t0 = NowNs();
    auto db = Database::Open(options->db);
    r.db_open_s = NsToS(NowNs() - t0);
    if (!db.ok()) return db.status();
    r.recovery_records_scanned = (*db)->recovery_stats().records_scanned;
    db->reset();
    std::error_code ec;
    fs::remove_all(*db_open_copy, ec);
  }
  auto options = storage.Options(io);
  if (!options.ok()) return options.status();
  const int64_t t0 = NowNs();
  auto server = TendaxServer::Open(*options);
  r.server_open_s = NsToS(NowNs() - t0);
  if (!server.ok()) return server.status();
  r.server = std::move(*server);
  return r;
}

// --- registry window -----------------------------------------------------------

uint64_t MetricWindow::Counter(const std::string& name) const {
  return end.CounterValue(name) - begin.CounterValue(name);
}

std::pair<uint64_t, uint64_t> MetricWindow::Hist(
    const std::string& name) const {
  const HistogramSnapshot* b = begin.FindHistogram(name);
  const HistogramSnapshot* e = end.FindHistogram(name);
  if (e == nullptr) return {0, 0};
  if (b == nullptr) return {e->count, e->sum};
  return {e->count - b->count, e->sum - b->sum};
}

double MetricWindow::HistMean(const std::string& name) const {
  auto [count, sum] = Hist(name);
  return count == 0 ? 0.0 : static_cast<double>(sum) / count;
}

// --- propagation ---------------------------------------------------------------

size_t SendLog::Push(int64_t send_ns, bool measured) {
  std::lock_guard<std::mutex> lock(mu_);
  sends_.push_back(measured ? send_ns : -1);
  return sends_.size() - 1;
}

void SendLog::Pop() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!sends_.empty()) sends_.pop_back();
}

int64_t SendLog::MeasuredAt(size_t k) const {
  std::lock_guard<std::mutex> lock(mu_);
  return k < sends_.size() ? sends_[k] : -1;
}

// --- window ----------------------------------------------------------------------

namespace {
void SleepSeconds(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}
}  // namespace

void RunWindow(const RunConfig& config, PhaseClock* phase,
               MetricsRegistry* metrics, IoCounters* io, LayerInputs* in,
               PassResult* r) {
  SleepSeconds(config.warmup_seconds);
  // Resident set of the set-up server with caches warm. Taken here rather
  // than at the end so it does not scale with how much the window typed.
  r->peak_rss_mb = PeakRssMb();
  in->window.begin = metrics->Snapshot();
  const IoSnapshot io0 = io != nullptr ? IoSnapshot::Of(*io) : IoSnapshot{};
  Tracer::SetRecording(config.traced);
  const int64_t t0 = NowNs();
  phase->set(kMeasure);
  SleepSeconds(config.seconds);
  phase->set(kStop);
  const int64_t t1 = NowNs();
  Tracer::SetRecording(false);
  in->window.end = metrics->Snapshot();
  if (io != nullptr) in->io = IoSnapshot::Of(*io).Minus(io0);
  r->window_s = NsToS(t1 - t0);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// --- reporting -------------------------------------------------------------------

namespace {

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

bool PickMutating(uint8_t d) { return IsMutating(d); }
bool PickRead(uint8_t d) { return IsTextRead(d); }
bool PickAll(uint8_t) { return true; }
bool PickResume(uint8_t d) {
  return static_cast<CommandKind>(d) == CommandKind::kResume;
}
bool PickUndo(uint8_t d) {
  auto k = static_cast<CommandKind>(d);
  return k == CommandKind::kUndo || k == CommandKind::kRedo;
}

double MeanUs(const SpanAggregate& a, bool self) {
  if (a.count == 0) return 0;
  return NsToUs(self ? a.self_ns : a.total_ns) / a.count;
}

}  // namespace

void Report(const RunConfig& config, const LayerInputs& in, PassResult* r) {
  const OpTally& ops = r->ops;
  auto e2e = [&](const char* name, double value, const char* unit) {
    r->end_to_end.push_back(Metric{name, value, unit});
  };
  e2e("keystroke_p50_us", r->keystroke.Percentile(50), "us");
  e2e("keystroke_p99_us", r->keystroke.Percentile(99), "us");
  e2e("keystrokes_per_s", Ratio(ops.keystrokes, r->window_s), "1/s");
  e2e("propagation_p50_us", r->propagation.Percentile(50), "us");
  e2e("propagation_p99_us", r->propagation.Percentile(99), "us");
  e2e("read_p50_us", r->read.Percentile(50), "us");
  e2e("read_p99_us", r->read.Percentile(99), "us");
  e2e("reads_per_s", Ratio(ops.reads, r->window_s), "1/s");
  e2e("search_p50_us", r->search.Percentile(50), "us");
  e2e("search_p99_us", r->search.Percentile(99), "us");
  e2e("reopen_s", r->reopen_s, "s");
  e2e("setup_s", r->setup_s, "s");
  e2e("disk_bytes_per_keystroke",
      Ratio(static_cast<double>(in.disk_bytes_delta), in.load_keystrokes), "B");
  e2e("peak_rss_mb", r->peak_rss_mb, "MB");

  auto note = [&](const std::string& line) { r->notes.push_back(line); };
  const std::pair<const char*, const Samples*> sets[] = {
      {"keystroke", &r->keystroke}, {"propagation", &r->propagation},
      {"read", &r->read},           {"search", &r->search},
      {"loadgen lag", &r->lag},     {"keystroke from due", &r->from_due}};
  for (const auto& [name, s] : sets) {
    note(std::string(name) + " us: n=" + std::to_string(s->total()) +
         " p50=" + Fmt(s->Percentile(50)) + " p90=" + Fmt(s->Percentile(90)) +
         " p99=" + Fmt(s->Percentile(99)) +
         " p99.9=" + Fmt(s->Percentile(99.9)) +
         " max=" + Fmt(s->Percentile(100)));
  }
  note("failed_op_ratio = " + Fmt(Ratio(ops.failed, ops.attempted)) + " (" +
       std::to_string(ops.failed) + " failed / " +
       std::to_string(ops.attempted) + " attempted)");
  note("disk_bytes_per_keystroke = " +
       Fmt(Ratio(in.disk_bytes_delta, in.load_keystrokes)) + " (" +
       std::to_string(in.disk_bytes_delta) + " B / " +
       std::to_string(in.load_keystrokes) + " gestures, whole load)");
  if (!config.traced) return;

  const MetricWindow& win = in.window;
  const double ks = static_cast<double>(ops.keystrokes);
  const double rd = static_cast<double>(ops.reads);
  const double all_ops = static_cast<double>(ops.keystrokes + ops.reads +
                                             ops.searches + ops.polls);
  auto layer = [&](const char* name, double value, const char* unit) {
    r->per_layer.push_back(Metric{name, value, unit});
  };
  // A time whose layer idles on some workload (see Metric::in_result).
  auto idle_time = [&](const char* name, double value) {
    r->per_layer.push_back(Metric{name, value, "us", false});
  };
  // A ratio with its numerator and denominator, as the notes print it.
  auto ratio = [&](const char* name, const std::string& num_name, double num,
                   const std::string& den_name, double den) {
    layer(name, Ratio(num, den), "ratio");
    note(std::string(name) + " = " + Fmt(Ratio(num, den)) + " (" + num_name +
         " " + Fmt(num) + " / " + den_name + " " + Fmt(den) + ")");
  };

  // collab wire
  layer("wire.client_us", MeanUs(Tracer::Sum(kSpanWireClient, PickAll), true),
        "us");
  layer("wire.handle_us",
        MeanUs(Tracer::Sum(kSpanWireHandle, PickMutating), false), "us");
  layer("wire.handle_read_us",
        MeanUs(Tracer::Sum(kSpanWireHandle, PickRead), false), "us");
  ratio("client.retries_per_call", "client attempts-calls",
        static_cast<double>(in.client_attempts - in.client_calls),
        "client calls", static_cast<double>(in.client_calls));
  // collab sessions
  ratio("session.events_per_keystroke", "session.events_delivered",
        win.Counter("session.events_delivered"), "keystrokes", ks);
  layer("session.resyncs", win.Counter("session.resyncs_emitted"), "count");
  layer("session.resume_us",
        MeanUs(Tracer::Sum(kSpanWireClient, PickResume), false), "us");
  // collab undo
  idle_time("undo.gesture_us",
            MeanUs(Tracer::Sum(kSpanWireClient, PickUndo), false));
  // text
  ratio("text.snapshots_published_per_keystroke", "mvcc.snapshots_published",
        win.Counter("mvcc.snapshots_published"), "keystrokes", ks);
  ratio("text.snapshots_acquired_per_read", "mvcc.snapshots_acquired",
        win.Counter("mvcc.snapshots_acquired"), "reads", rd);
  ratio("text.chain_records_per_live_char", "chain records",
        static_cast<double>(in.chain_records), "live chars",
        static_cast<double>(in.live_chars));
  // search
  ratio("search.dirty_docs_at_query", "dirty docs seen",
        static_cast<double>(ops.dirty_docs_at_search), "searches",
        static_cast<double>(ops.searches));
  r->per_layer.back().unit = "count";
  // txn
  ratio("txn.commits_per_keystroke", "txn.committed",
        win.Counter("txn.committed"), "keystrokes", ks);
  ratio("txn.aborts_per_keystroke", "txn.aborted", win.Counter("txn.aborted"),
        "keystrokes", ks);
  layer("txn.commit_us", win.HistMean("txn.commit_micros"), "us");
  ratio("txn.snapshot_reads_per_read", "txn.snapshot_reads",
        win.Counter("txn.snapshot_reads"), "reads", rd);
  ratio("lock.waits_per_keystroke", "lock.waits", win.Counter("lock.waits"),
        "keystrokes", ks);
  idle_time("lock.wait_us", win.HistMean("lock.wait_micros"));
  layer("lock.timeouts", win.Counter("lock.timeouts"), "count");
  layer("lock.deadlocks", win.Counter("lock.deadlocks"), "count");
  // storage WAL
  ratio("wal.records_per_keystroke", "wal.appends", win.Counter("wal.appends"),
        "keystrokes", ks);
  ratio("wal.bytes_per_keystroke", "log bytes appended",
        static_cast<double>(in.io.log_bytes), "keystrokes", ks);
  r->per_layer.back().unit = "B";
  ratio("wal.syncs_per_keystroke", "log syncs",
        static_cast<double>(in.io.log_syncs), "keystrokes", ks);
  layer("wal.sync_us", Ratio(NsToUs(in.io.log_sync_ns), in.io.log_syncs), "us");
  layer("wal.append_us",
        Ratio(NsToUs(in.io.log_append_ns), in.io.log_appends), "us");
  layer("wal.commit_flush_wait_us", win.HistMean("wal.commit_flush_micros"),
        "us");
  ratio("wal.commits_per_sync", "wal.commits", win.Counter("wal.commits"),
        "wal.syncs", win.Counter("wal.syncs"));
  // storage buffer pool / disk
  const double hits = win.Counter("bufferpool.hits");
  const double misses = win.Counter("bufferpool.misses");
  ratio("bufferpool.hit_ratio", "bufferpool.hits", hits, "fetches",
        hits + misses);
  ratio("bufferpool.fetches_per_keystroke", "fetches", hits + misses,
        "keystrokes", ks);
  ratio("bufferpool.evictions_per_keystroke", "bufferpool.evictions",
        win.Counter("bufferpool.evictions"), "keystrokes", ks);
  idle_time("bufferpool.miss_us", win.HistMean("bufferpool.miss_micros"));
  ratio("disk.page_reads_per_op", "page reads",
        static_cast<double>(in.io.page_reads), "ops", all_ops);
  ratio("disk.page_writes_per_op", "page writes",
        static_cast<double>(in.io.page_writes), "ops", all_ops);
  idle_time("disk.read_us",
            Ratio(NsToUs(in.io.page_read_ns), in.io.page_reads));
  // db recovery
  layer("db.open_s", in.db_open_s, "s");
  layer("db.recovery_records_scanned",
        static_cast<double>(in.recovery_records_scanned), "count");
  // driver health (trace.overhead_pct is added by main, which runs both
  // passes)
  idle_time("loadgen.lag_p99_us", r->lag.Percentile(99));
  idle_time("loadgen.keystroke_from_due_p99_us", r->from_due.Percentile(99));
}

}  // namespace bench
