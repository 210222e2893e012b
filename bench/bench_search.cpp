// E7 — meta-data-based search and ranking: query latency for each ranking
// option against corpus size, phrase verification, and the cost of the
// first query after a burst of edits (the deferred index refresh).

#include <benchmark/benchmark.h>

#include <map>

#include "core/tendax.h"
#include "workload/generators.h"

namespace tendax {
namespace {



struct SearchEnv {
  std::unique_ptr<TendaxServer> server;
  UserId writer, reader;
  std::vector<DocumentId> docs;
  std::string common_word;  // appears in many documents
  bool history_written = false;  // BM_QueryAfterEditBurst's tombstones

  static SearchEnv* Get(const std::string& family) {
    static auto* envs = new std::map<std::string, SearchEnv*>();
    auto it = envs->find(family);
    if (it == envs->end()) {
      auto* e = new SearchEnv();
      TendaxOptions options;
      options.db.buffer_pool_pages = 32768;
      e->server = *TendaxServer::Open(std::move(options));
      e->writer = *e->server->accounts()->CreateUser("writer");
      e->reader = *e->server->accounts()->CreateUser("reader");
      CorpusGenerator corpus(1);
      e->common_word = corpus.Word();  // Zipf head: frequent everywhere
      it = envs->emplace(family, e).first;
    }
    return it->second;
  }

  void EnsureCorpus(int n) {
    CorpusGenerator corpus(1);
    bool grew = static_cast<int>(docs.size()) < n;
    Random rng(5);
    for (int i = static_cast<int>(docs.size()); i < n; ++i) {
      auto doc = server->text()->CreateDocument(
          writer, corpus.Title() + std::to_string(i));
      (void)server->text()->InsertText(writer, *doc, 0, corpus.Document(60));
      // A few reads and cross-citations so every ranking has signal.
      if (rng.OneIn(4)) (void)server->meta()->RecordRead(reader, *doc);
      if (!docs.empty() && rng.OneIn(5)) {
        DocumentId source = docs[rng.Uniform(docs.size())];
        auto clip = server->text()->Copy(writer, source, 0, 8);
        if (clip.ok()) (void)server->text()->Paste(writer, *doc, 0, *clip);
      }
      docs.push_back(*doc);
    }
    // Pay the lazy re-index outside the measured region.
    if (grew) (void)server->search()->Search(common_word);
  }
};

void RunRankedSearch(benchmark::State& state, Ranking ranking) {
  SearchEnv* env = SearchEnv::Get(__func__);
  env->EnsureCorpus(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto results =
        env->server->search()->Search(env->common_word, ranking, {}, 10);
    if (!results.ok()) {
      state.SkipWithError(results.status().ToString().c_str());
    }
    benchmark::DoNotOptimize(results->size());
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_SearchRelevance(benchmark::State& state) {
  RunRankedSearch(state, Ranking::kRelevance);
}
BENCHMARK(BM_SearchRelevance)->Arg(100)->Arg(1000)->Arg(5000);

void BM_SearchNewest(benchmark::State& state) {
  RunRankedSearch(state, Ranking::kNewest);
}
BENCHMARK(BM_SearchNewest)->Arg(100)->Arg(1000);

void BM_SearchMostRead(benchmark::State& state) {
  RunRankedSearch(state, Ranking::kMostRead);
}
BENCHMARK(BM_SearchMostRead)->Arg(100)->Arg(1000);

// Most-cited ranking pays a lineage-graph build per candidate.
void BM_SearchMostCited(benchmark::State& state) {
  RunRankedSearch(state, Ranking::kMostCited);
}
BENCHMARK(BM_SearchMostCited)->Arg(100)->Arg(500);

void BM_SearchPhrase(benchmark::State& state) {
  SearchEnv* env = SearchEnv::Get(__func__);
  env->EnsureCorpus(static_cast<int>(state.range(0)));
  // A phrase that actually occurs somewhere.
  auto text = env->server->text()->Text(env->docs[0]);
  std::string phrase = text->substr(0, 12);
  for (auto _ : state) {
    auto results = env->server->search()->SearchPhrase(phrase);
    if (!results.ok()) {
      state.SkipWithError(results.status().ToString().c_str());
    }
    benchmark::DoNotOptimize(results->size());
  }
}
BENCHMARK(BM_SearchPhrase)->Arg(100)->Arg(1000);

// Metadata-filtered search (author + state).
void BM_SearchWithMetadataFilter(benchmark::State& state) {
  SearchEnv* env = SearchEnv::Get(__func__);
  env->EnsureCorpus(static_cast<int>(state.range(0)));
  SearchFilter filter;
  filter.author = env->writer;
  for (auto _ : state) {
    auto results = env->server->search()->Search(env->common_word,
                                                 Ranking::kRelevance, filter);
    if (!results.ok()) {
      state.SkipWithError(results.status().ToString().c_str());
    }
  }
}
BENCHMARK(BM_SearchWithMetadataFilter)->Arg(100)->Arg(1000);

// First query after a burst of edits pays the deferred re-indexing. The
// second argument is the edited documents' history: with H > 0 the burst
// goes round-robin to 8 documents whose chains each carry H tombstones on
// top of their text, so the refresh diffs trees with a long history.
void BM_QueryAfterEditBurst(benchmark::State& state) {
  const size_t history = static_cast<size_t>(state.range(1));
  SearchEnv* env =
      SearchEnv::Get(std::string(__func__) + std::to_string(history));
  env->EnsureCorpus(200);
  std::vector<DocumentId> edited = env->docs;
  if (history > 0) edited.resize(8);
  if (history > 0 && !env->history_written) {
    env->history_written = true;
    for (DocumentId doc : edited) {
      for (size_t chain = 0; chain < history; chain += 4000) {
        (void)env->server->text()->InsertText(env->writer, doc, 0,
                                              std::string(4000, 'h'));
        (void)env->server->text()->DeleteRange(env->writer, doc, 0, 4000);
      }
    }
    (void)env->server->search()->Search(env->common_word);
  }
  Random rng(31);
  size_t next = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
      DocumentId doc = history > 0 ? edited[next++ % edited.size()]
                                   : edited[rng.Uniform(edited.size())];
      (void)env->server->text()->InsertText(env->writer, doc, 0, "y");
    }
    state.ResumeTiming();
    auto results = env->server->search()->Search(env->common_word);
    if (!results.ok()) {
      state.SkipWithError(results.status().ToString().c_str());
    }
  }
  state.counters["dirty_docs_per_query"] =
      static_cast<double>(state.range(0));
}
BENCHMARK(BM_QueryAfterEditBurst)
    ->Args({1, 0})
    ->Args({16, 0})
    ->Args({64, 0})
    ->Args({1, 100000})
    ->Args({8, 100000});

}  // namespace
}  // namespace tendax

BENCHMARK_MAIN();
