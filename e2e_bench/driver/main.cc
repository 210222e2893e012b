// tendax_e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0: one untraced pass (stock DirectTransport and storage), with the
//   set-up repeated kSetupRepeats times; prints every end-to-end metric.
// --trace 1: an untraced pass and a traced pass (timing transport, counting
//   storage wrappers, spans) on the same seed, each measuring half of
//   --seconds; prints every per-layer metric from the traced pass, and
//   trace.overhead_pct from the gap between them.
//
// Human-readable lines (run metadata, sample counts, ratios with their bases)
// come first; the last line of stdout is one JSON object. A failed
// correctness check prints correct=false with no metrics and exits 1.
#include <fcntl.h>
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace bench {
namespace {

namespace fs = std::filesystem;

// Set-ups per untraced run: setup_s and reopen_s are their medians.
constexpr int kSetupRepeats = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        a->workload = value;
      } else if (key == "--seed") {
        a->seed = std::stoull(value);
      } else if (key == "--seconds") {
        a->seconds = std::stod(value);
      } else if (key == "--trace") {
        a->trace = std::stoi(value);
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

std::string Num(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof buf, v);  // shortest round trip
  return std::string(buf, res.ptr);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Env(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

/// Flushes the filesystem holding the working directory. A run writes and
/// deletes tens of megabytes; left to background writeback (and, on disks
/// mounted with discard, trimming), that work slowed the fsyncs of the next
/// runs for a minute or more. Flushed at the start and end of every run, it
/// lands outside every measurement.
void SyncWorkingFilesystem() {
  const int fd = open(".", O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  (void)syncfs(fd);
  close(fd);
}

/// Removes the pass directory however the run ends.
struct ScratchDir {
  fs::path path;
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
    SyncWorkingFilesystem();
  }
};

Result<PassResult> RunPass(const RunConfig& config) {
  fs::create_directories(config.scratch);
  Tracer::Reset();
  if (config.workload == "lan_party_durable") return RunLanPartyDurable(config);
  if (config.workload == "big_corpus_memory") return RunBigCorpusMemory(config);
  if (config.workload == "history_readers") return RunHistoryReaders(config);
  return Status::InvalidArgument("unknown workload " + config.workload);
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("# %s\n", title);
  for (const Metric& m : metrics) {
    std::printf("%-42s %14.6g %s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.in_result ? "" : "  (table only)");
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  // Private state of this run, inside the working directory (the checkout).
  ScratchDir scratch{fs::current_path() / ".bench_run" /
                     (args.workload + "-" + std::to_string(getpid()))};
  std::error_code ec;
  fs::remove_all(scratch.path, ec);
  SyncWorkingFilesystem();

  RunConfig config;
  config.workload = args.workload;
  config.seed = args.seed;
  config.seconds = args.seconds;

  std::printf(
      "# meta {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %ld, \"build_type\": %s, \"git_sha\": %s, "
      "\"source_digest\": %s, \"commit_flush_mode\": \"inline\", "
      "\"sync_commit\": true, \"setup_repeats\": %d, \"warmup_s\": %s}\n",
      Quote(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), Num(args.seconds).c_str(),
      args.trace, sysconf(_SC_NPROCESSORS_ONLN),
      Quote(Env("TENDAX_BENCH_BUILD_TYPE", "unknown")).c_str(),
      Quote(Env("TENDAX_BENCH_GIT_SHA", "unknown")).c_str(),
      Quote(Env("TENDAX_BENCH_SOURCE_DIGEST", "unknown")).c_str(),
      args.trace == 0 ? kSetupRepeats : 1, Num(config.warmup_seconds).c_str());

  std::vector<Metric> printed;
  PassResult result;
  if (args.trace == 0) {
    config.setup_repeats = kSetupRepeats;
    config.scratch = scratch.path / "pass";
    auto pass = RunPass(config);
    if (!pass.ok()) {
      std::fprintf(stderr, "run failed: %s\n", pass.status().ToString().c_str());
      return 1;
    }
    result = std::move(*pass);
    printed = result.end_to_end;
    PrintMetrics("end to end (untraced pass)", result.end_to_end);
  } else {
    config.seconds = args.seconds / 2;
    config.scratch = scratch.path / "untraced";
    auto plain = RunPass(config);
    if (!plain.ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   plain.status().ToString().c_str());
      return 1;
    }
    config.traced = true;
    config.scratch = scratch.path / "traced";
    auto traced = RunPass(config);
    if (!traced.ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   traced.status().ToString().c_str());
      return 1;
    }
    result = std::move(*traced);
    if (!plain->correct) result.Fail(plain->error);
    const double overhead =
        result.primary_rate > 0
            ? 100.0 * (plain->primary_rate / result.primary_rate - 1.0)
            : 0.0;
    result.per_layer.push_back(Metric{"trace.overhead_pct", overhead, "%"});
    result.notes.push_back("trace.overhead_pct = " + Num(overhead) +
                           " (untraced rate " + Num(plain->primary_rate) +
                           "/s vs traced " + Num(result.primary_rate) + "/s)");
    PrintMetrics("end to end (untraced pass; not the traced one)",
                 plain->end_to_end);
    PrintMetrics("per layer (traced pass)", result.per_layer);
    const fs::path out_dir = fs::current_path() / ".bench_out";
    fs::create_directories(out_dir, ec);
    const fs::path spans = out_dir / (args.workload + ".spans.tsv");
    const size_t written = Tracer::WriteTsv(spans);
    std::printf("# %zu spans written to %s\n", written,
                spans.lexically_relative(fs::current_path()).c_str());
    printed = result.per_layer;
  }
  for (const std::string& line : result.notes) {
    std::printf("# %s\n", line.c_str());
  }

  const uint64_t attempted = std::max<uint64_t>(result.ops.attempted, 1);
  std::string json = "{\"correct\": " +
                     std::string(result.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(result.ops.failed) +
                     ", \"metrics\": {";
  if (!result.correct) {
    std::fprintf(stderr, "correctness check failed: %s\n",
                 result.error.c_str());
  } else {
    const char* sep = "";
    for (const Metric& m : printed) {
      if (!m.in_result) continue;
      json += sep + Quote(m.name) + ": {\"value\": " + Num(m.value) +
              ", \"unit\": " + Quote(m.unit) + "}";
      sep = ", ";
    }
  }
  json += "}}";
  std::fflush(stdout);
  std::cout << json << std::endl;
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace bench

int main(int argc, char** argv) { return bench::Main(argc, argv); }
