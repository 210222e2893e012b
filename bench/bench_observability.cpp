// Observability overhead: the acceptance budget is <= 5% slowdown on the
// instrumented per-keystroke insert path versus metrics_enabled=false.
//
// BM_MetricsOverheadInsertChar/1 vs /0 is that comparison (arg = whether
// histograms are enabled; counters are always live). The micro benchmarks
// price the primitives themselves: a striped counter add, a
// histogram record, a ScopedTimer span (two clock reads), and the cold
// aggregation paths (snapshot, encode, text exposition).
//
// BM_FrameSealOpen prices the wire checksum every request and response
// pays: one seal on the sending side and one in-place open on the
// receiving side, at a 3 KB body (a small document) and a 40 KB one (a
// document read on the big-corpus workload).
//
// Regenerate the committed results with
//   ./build/bench/bench_observability --benchmark_out=BENCH_observability.json
//       --benchmark_out_format=json

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <utility>

#include "collab/wire.h"
#include "core/tendax.h"
#include "obs/metrics.h"

namespace tendax {
namespace {

struct ObsEnv {
  std::unique_ptr<TendaxServer> server;
  UserId user;

  static ObsEnv* Get(bool metrics_enabled) {
    static ObsEnv* envs[2] = {};
    ObsEnv*& env = envs[metrics_enabled ? 1 : 0];
    if (env == nullptr) {
      env = new ObsEnv();
      TendaxOptions options;
      options.db.buffer_pool_pages = 16384;
      options.metrics_enabled = metrics_enabled;
      env->server = *TendaxServer::Open(std::move(options));
      env->user = *env->server->accounts()->CreateUser("bench");
    }
    return env;
  }

  DocumentId FreshDoc(size_t chars) {
    static int counter = 0;
    auto doc = server->text()->CreateDocument(
        user, "obs-doc-" + std::to_string(counter++));
    if (chars > 0) {
      (void)server->text()->InsertText(user, *doc, 0,
                                       std::string(chars, 'x'));
    }
    return *doc;
  }
};

// One keystroke at the end of the document, instrumented (arg=1) or with
// histograms disabled (arg=0). Counters run in both configurations.
void BM_MetricsOverheadInsertChar(benchmark::State& state) {
  ObsEnv* env = ObsEnv::Get(state.range(0) != 0);
  DocumentId doc = env->FreshDoc(1024);
  size_t pos = static_cast<size_t>(*env->server->text()->Length(doc));
  for (auto _ : state) {
    auto r = env->server->text()->InsertText(env->user, doc, pos, "x");
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    ++pos;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsOverheadInsertChar)->Arg(0)->Arg(1);

// --- primitive costs ------------------------------------------------------

void BM_CounterAdd(benchmark::State& state) {
  Counter c;
  for (auto _ : state) c.Add();
  benchmark::DoNotOptimize(c.Value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterAdd);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  uint64_t v = 0;
  for (auto _ : state) h.Record(++v & 0xFFFF);
  benchmark::DoNotOptimize(h.Snapshot().count);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_ScopedTimerSpan(benchmark::State& state) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("lat");
  for (auto _ : state) {
    ScopedTimer timer(h);
    benchmark::DoNotOptimize(timer);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScopedTimerSpan);

void BM_ScopedTimerDisarmed(benchmark::State& state) {
  for (auto _ : state) {
    ScopedTimer timer(nullptr);  // the metrics_enabled=false configuration
    benchmark::DoNotOptimize(timer);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScopedTimerDisarmed);

// --- cold aggregation paths ------------------------------------------------

MetricsRegistry* PopulatedRegistry() {
  static MetricsRegistry* registry = [] {
    auto* r = new MetricsRegistry();
    for (int i = 0; i < 32; ++i) {
      Counter* c = r->counter("counter." + std::to_string(i));
      c->Add(static_cast<uint64_t>(i) * 1000);
      Histogram* h = r->histogram("hist." + std::to_string(i));
      for (uint64_t v = 1; v <= 256; ++v) h->Record(v * (i + 1));
    }
    return r;
  }();
  return registry;
}

void BM_RegistrySnapshot(benchmark::State& state) {
  MetricsRegistry* registry = PopulatedRegistry();
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry->Snapshot().counters.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegistrySnapshot);

void BM_SnapshotEncodeDecode(benchmark::State& state) {
  MetricsSnapshot snap = PopulatedRegistry()->Snapshot();
  for (auto _ : state) {
    auto decoded = DecodeMetricsSnapshot(EncodeMetricsSnapshot(snap));
    if (!decoded.ok()) state.SkipWithError("decode failed");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapshotEncodeDecode);

void BM_TextExposition(benchmark::State& state) {
  MetricsRegistry* registry = PopulatedRegistry();
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry->TextExposition().size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TextExposition);

void BM_FrameSealOpen(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  std::string body(size, 'x');
  body.reserve(size + kFrameTrailerSize);
  for (auto _ : state) {
    std::string frame = SealFrame(std::move(body));
    if (!OpenFrame(&frame).ok()) state.SkipWithError("open failed");
    benchmark::DoNotOptimize(frame.data());
    body = std::move(frame);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * size));
}
BENCHMARK(BM_FrameSealOpen)->Arg(3 << 10)->Arg(40 << 10);

}  // namespace
}  // namespace tendax

BENCHMARK_MAIN();
