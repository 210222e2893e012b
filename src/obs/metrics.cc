#include "obs/metrics.h"

#include <bit>
#include <cinttypes>
#include <cstdio>

#include "util/checksum.h"
#include "util/coding.h"

namespace tendax {

namespace {

uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

}  // namespace

int MetricStripeForThisThread() {
  static std::atomic<uint32_t> next_stripe{0};
  thread_local int stripe =
      static_cast<int>(next_stripe.fetch_add(1, std::memory_order_relaxed) %
                       kMetricStripes);
  return stripe;
}

int Histogram::BucketFor(uint64_t value) {
  if (value == 0) return 0;
  int width = std::bit_width(value);
  return width < kHistogramBuckets - 1 ? width : kHistogramBuckets - 1;
}

uint64_t HistogramSnapshot::BucketLowerBound(int bucket) {
  if (bucket <= 0) return 0;
  if (bucket == 1) return 1;
  return uint64_t{1} << (bucket - 1);
}

uint64_t HistogramSnapshot::BucketUpperBound(int bucket) {
  if (bucket <= 0) return 0;
  if (bucket >= kHistogramBuckets - 1) return UINT64_MAX;
  return (uint64_t{1} << bucket) - 1;
}

uint64_t HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  // Rank of the requested percentile, 1-based: the smallest rank r such
  // that r/count >= p/100.
  uint64_t rank = static_cast<uint64_t>(p / 100.0 * count + 0.9999999);
  if (rank == 0) rank = 1;
  if (rank > count) rank = count;
  uint64_t seen = 0;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    seen += buckets[b];
    if (seen >= rank) {
      // The overflow bucket has no finite upper bound; the observed max is
      // the tightest statement we can make. Also never report above max.
      uint64_t upper = BucketUpperBound(b);
      return upper < max ? upper : max;
    }
  }
  return max;
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  for (const auto& s : stripes_) {
    for (int b = 0; b < kHistogramBuckets; ++b) {
      snap.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
    snap.sum += s.sum.load(std::memory_order_relaxed);
    uint64_t m = s.max.load(std::memory_order_relaxed);
    if (m > snap.max) snap.max = m;
  }
  for (int b = 0; b < kHistogramBuckets; ++b) snap.count += snap.buckets[b];
  return snap;
}

uint64_t MetricsSnapshot::CounterValue(const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

int64_t MetricsSnapshot::GaugeValue(const std::string& name) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return 0;
}

const HistogramSnapshot* MetricsSnapshot::FindHistogram(
    const std::string& name) const {
  for (const auto& [n, h] : histograms) {
    if (n == name) return &h;
  }
  return nullptr;
}

std::string EncodeMetricsSnapshot(const MetricsSnapshot& snapshot) {
  std::string out;
  PutVarint32(&out, snapshot.version);
  PutVarint32(&out, static_cast<uint32_t>(snapshot.counters.size()));
  for (const auto& [name, value] : snapshot.counters) {
    PutLengthPrefixed(&out, Slice(name));
    PutVarint64(&out, value);
  }
  PutVarint32(&out, static_cast<uint32_t>(snapshot.gauges.size()));
  for (const auto& [name, value] : snapshot.gauges) {
    PutLengthPrefixed(&out, Slice(name));
    PutVarint64(&out, ZigZagEncode(value));
  }
  PutVarint32(&out, static_cast<uint32_t>(snapshot.histograms.size()));
  for (const auto& [name, h] : snapshot.histograms) {
    PutLengthPrefixed(&out, Slice(name));
    PutVarint64(&out, h.count);
    PutVarint64(&out, h.sum);
    PutVarint64(&out, h.max);
    PutVarint32(&out, kHistogramBuckets);
    for (int b = 0; b < kHistogramBuckets; ++b) PutVarint64(&out, h.buckets[b]);
  }
  PutFixed32(&out, Fnv1a32(out.data(), out.size()));
  return out;
}

Result<MetricsSnapshot> DecodeMetricsSnapshot(const Slice& encoded) {
  if (encoded.size() < 4) {
    return Status::Corruption("metrics snapshot shorter than its checksum");
  }
  Slice payload(encoded.data(), encoded.size() - 4);
  uint32_t expected = DecodeFixed32(encoded.data() + payload.size());
  if (Fnv1a32(payload.data(), payload.size()) != expected) {
    return Status::Corruption("metrics snapshot checksum mismatch");
  }

  MetricsSnapshot snap;
  Slice in = payload;
  if (!GetVarint32(&in, &snap.version)) {
    return Status::Corruption("metrics snapshot truncated at version");
  }
  if (snap.version != MetricsSnapshot::kVersion) {
    return Status::InvalidArgument("unsupported metrics snapshot version " +
                                   std::to_string(snap.version));
  }

  uint32_t n = 0;
  if (!GetVarint32(&in, &n)) {
    return Status::Corruption("metrics snapshot truncated at counter count");
  }
  snap.counters.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Slice name;
    uint64_t value = 0;
    if (!GetLengthPrefixed(&in, &name) || !GetVarint64(&in, &value)) {
      return Status::Corruption("metrics snapshot truncated in counters");
    }
    snap.counters.emplace_back(name.ToString(), value);
  }

  if (!GetVarint32(&in, &n)) {
    return Status::Corruption("metrics snapshot truncated at gauge count");
  }
  snap.gauges.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Slice name;
    uint64_t value = 0;
    if (!GetLengthPrefixed(&in, &name) || !GetVarint64(&in, &value)) {
      return Status::Corruption("metrics snapshot truncated in gauges");
    }
    snap.gauges.emplace_back(name.ToString(), ZigZagDecode(value));
  }

  if (!GetVarint32(&in, &n)) {
    return Status::Corruption("metrics snapshot truncated at histogram count");
  }
  snap.histograms.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Slice name;
    HistogramSnapshot h;
    uint32_t nbuckets = 0;
    if (!GetLengthPrefixed(&in, &name) || !GetVarint64(&in, &h.count) ||
        !GetVarint64(&in, &h.sum) || !GetVarint64(&in, &h.max) ||
        !GetVarint32(&in, &nbuckets)) {
      return Status::Corruption("metrics snapshot truncated in histograms");
    }
    if (nbuckets > kHistogramBuckets) {
      return Status::InvalidArgument("metrics snapshot histogram has " +
                                     std::to_string(nbuckets) +
                                     " buckets; limit is " +
                                     std::to_string(kHistogramBuckets));
    }
    for (uint32_t b = 0; b < nbuckets; ++b) {
      if (!GetVarint64(&in, &h.buckets[b])) {
        return Status::Corruption("metrics snapshot truncated in buckets");
      }
    }
    snap.histograms.emplace_back(name.ToString(), h);
  }

  if (!in.empty()) {
    return Status::InvalidArgument("metrics snapshot has trailing bytes");
  }
  return snap;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  if (!enabled_) return nullptr;
  MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  MutexLock lock(mu_);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->Value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->Value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.emplace_back(name, h->Snapshot());
  }
  return snap;
}

namespace {

std::string PrometheusName(const std::string& name) {
  std::string out = "tendax_";
  for (char c : name) out.push_back(c == '.' ? '_' : c);
  return out;
}

void AppendQuantileLine(std::string* out, const std::string& family,
                        const char* quantile, uint64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "{quantile=\"%s\"} %" PRIu64 "\n", quantile,
                value);
  out->append(family);
  out->append(buf);
}

}  // namespace

std::string MetricsRegistry::TextExposition() const {
  MetricsSnapshot snap = Snapshot();
  std::string out;
  char buf[64];
  for (const auto& [name, value] : snap.counters) {
    std::string family = PrometheusName(name);
    out += "# TYPE " + family + " counter\n";
    std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", value);
    out += family + buf;
  }
  for (const auto& [name, value] : snap.gauges) {
    std::string family = PrometheusName(name);
    out += "# TYPE " + family + " gauge\n";
    std::snprintf(buf, sizeof(buf), " %" PRId64 "\n", value);
    out += family + buf;
  }
  for (const auto& [name, h] : snap.histograms) {
    std::string family = PrometheusName(name);
    out += "# TYPE " + family + " summary\n";
    AppendQuantileLine(&out, family, "0.5", h.P50());
    AppendQuantileLine(&out, family, "0.95", h.P95());
    AppendQuantileLine(&out, family, "0.99", h.P99());
    std::snprintf(buf, sizeof(buf), "_sum %" PRIu64 "\n", h.sum);
    out += family + buf;
    std::snprintf(buf, sizeof(buf), "_count %" PRIu64 "\n", h.count);
    out += family + buf;
  }
  return out;
}

}  // namespace tendax
