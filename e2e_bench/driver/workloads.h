// The benchmark's workloads. Each runs one pass: set-up (timed, repeated
// `config.setup_repeats` times), warm-up, the measured window, and the
// correctness gate. README.md says why each exists and which layer metric
// should move which end-to-end metric on it.
#ifndef TENDAX_E2E_BENCH_WORKLOADS_H_
#define TENDAX_E2E_BENCH_WORKLOADS_H_

#include <thread>
#include <vector>

#include "harness.h"
#include "load.h"

namespace bench {

Result<PassResult> RunLanPartyDurable(const RunConfig& config);
Result<PassResult> RunBigCorpusMemory(const RunConfig& config);
Result<PassResult> RunHistoryReaders(const RunConfig& config);

/// Runs `setup` `config.setup_repeats` times, each on a fresh fixture, and
/// keeps the last. Returns the median set-up time in seconds.
template <typename Fixture, typename SetupFn>
Result<double> RepeatSetup(const RunConfig& config,
                           std::unique_ptr<Fixture>* fixture, SetupFn setup) {
  std::vector<double> times;
  for (int i = 0; i < config.setup_repeats; ++i) {
    fixture->reset();  // tear the previous set-up down before timing anew
    auto fresh = std::make_unique<Fixture>();
    const int64_t t0 = NowNs();
    Status st = setup(i, fresh.get());
    times.push_back(NsToS(NowNs() - t0));
    if (!st.ok()) return st;
    *fixture = std::move(fresh);
  }
  return Median(times);
}

/// Builds a workload's starting state on a server over `storage` whose
/// commits do not wait for fsync (set-up speed only: the log holds the same
/// records, and the clean close makes them durable), closes it, and reopens
/// it with default options: the timed restart behind `reopen_s`. In a traced
/// pass Database::Open alone is first timed on a copy (`db.open_s`).
template <typename BuildFn>
Result<Reopen> PreloadAndReopen(const RunConfig& config,
                                const Storage& storage, IoCounters* io,
                                BuildFn build) {
  {
    auto options = storage.Options(nullptr);
    if (!options.ok()) return options.status();
    options->db.sync_commit = false;
    auto server = TendaxServer::Open(*options);
    if (!server.ok()) return server.status();
    TENDAX_RETURN_IF_ERROR(build(server->get()));
  }
  const auto copy_dir = config.scratch / "db-open-copy";
  return TimedReopen(storage, io, config.traced ? &copy_dir : nullptr);
}

/// Joins every thread in `threads`.
inline void JoinAll(std::vector<std::thread>* threads) {
  for (std::thread& t : *threads) t.join();
  threads->clear();
}

/// Sum of the wire clients' call and attempt counts (retries = attempts -
/// calls), over the whole pass.
inline void AddClientStats(const Agent& agent, LayerInputs* in) {
  in->client_calls += agent.client->stats().calls;
  in->client_attempts += agent.client->stats().attempts;
}

}  // namespace bench

#endif  // TENDAX_E2E_BENCH_WORKLOADS_H_
