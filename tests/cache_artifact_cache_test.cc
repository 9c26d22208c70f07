// Tests for the shared query-artifact cache: key normalization, bundle
// builds, singleflight build
// deduplication, LRU byte-budget + TTL eviction under a fake clock, and
// the serving-path guarantee that a cache-hit session navigates
// identically to a cold one (in-process and over the wire).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bionav.h"

namespace bionav {
namespace {

/// Small paper workload shared by the artifact-level tests in this file.
const Workload& CacheWorkload() {
  static const Workload* workload = [] {
    WorkloadOptions options;
    options.hierarchy_nodes = 3000;
    options.background_citations = 2500;
    options.result_scale = 0.2;
    return new Workload(options);
  }();
  return *workload;
}

/// Stub artifact bundle for cache-mechanics tests: footprint is dominated
/// by the key's capacity, so entry sizes are controllable.
std::shared_ptr<const QueryArtifacts> MakeStub(const std::string& key,
                                               int64_t build_us = 1000) {
  auto artifacts = std::make_shared<QueryArtifacts>();
  artifacts->key = key;
  artifacts->build_us = build_us;
  return artifacts;
}

TEST(QueryArtifactCacheTest, NormalizeQueryKeyIsConservative) {
  EXPECT_EQ(NormalizeQueryKey("Cancer"), "cancer");
  EXPECT_EQ(NormalizeQueryKey("  breast \t cancer \n"), "breast cancer");
  EXPECT_EQ(NormalizeQueryKey("breast cancer"),
            NormalizeQueryKey("BREAST   CANCER"));
  // Order and repetition are semantic — they must NOT collapse.
  EXPECT_NE(NormalizeQueryKey("breast cancer"),
            NormalizeQueryKey("cancer breast"));
  EXPECT_NE(NormalizeQueryKey("cancer"), NormalizeQueryKey("cancer cancer"));
  EXPECT_EQ(NormalizeQueryKey("   "), "");
}

TEST(QueryArtifactCacheTest, SingleflightRunsBuilderExactlyOnce) {
  QueryArtifactCache cache;
  constexpr int kThreads = 8;
  std::atomic<int> build_count{0};
  auto builder = [&] {
    // Long enough that the other threads arrive while the build is
    // in flight (they must join it, not duplicate it).
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    build_count.fetch_add(1);
    return MakeStub("shared", /*build_us=*/12345);
  };

  std::vector<QueryArtifactCache::Lookup> lookups(kThreads);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back(
          [&, t] { lookups[t] = cache.GetOrBuild("shared", builder); });
    }
    for (std::thread& t : threads) t.join();
  }

  EXPECT_EQ(build_count.load(), 1) << "singleflight must deduplicate builds";
  int misses = 0, waits = 0;
  for (const auto& lookup : lookups) {
    ASSERT_NE(lookup.artifacts, nullptr);
    EXPECT_EQ(lookup.artifacts, lookups[0].artifacts)
        << "every caller must receive the same bundle";
    misses += lookup.hit ? 0 : 1;
    waits += lookup.waited ? 1 : 0;
  }
  EXPECT_EQ(misses, 1);

  QueryArtifactCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, kThreads - 1);
  EXPECT_EQ(stats.singleflight_waits, waits);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_GT(stats.bytes, 0);
  // Every hit amortizes the original build's wall time.
  EXPECT_EQ(stats.build_us_saved, 12345 * (kThreads - 1));
  EXPECT_DOUBLE_EQ(stats.hit_rate(),
                   static_cast<double>(kThreads - 1) / kThreads);
}

TEST(QueryArtifactCacheTest, LruEvictsColdestWithinByteBudget) {
  const std::string key_a(1000, 'a'), key_b(1000, 'b'), key_c(1000, 'c');
  const size_t entry_bytes = MakeStub(key_a)->MemoryFootprint();

  int64_t now = 0;
  QueryArtifactCacheOptions options;
  options.shards = 1;  // One shard: the budget applies to all three keys.
  options.max_bytes = 2 * entry_bytes + entry_bytes / 2;
  options.clock = [&now] { return now; };
  QueryArtifactCache cache(options);

  cache.GetOrBuild(key_a, [&] { return MakeStub(key_a); });
  now = 1;
  cache.GetOrBuild(key_b, [&] { return MakeStub(key_b); });
  now = 2;  // Refresh A: B becomes the LRU entry.
  EXPECT_TRUE(cache.GetOrBuild(key_a, [&] { return MakeStub(key_a); }).hit);
  now = 3;
  cache.GetOrBuild(key_c, [&] { return MakeStub(key_c); });

  EXPECT_NE(cache.Peek(key_a), nullptr);
  EXPECT_EQ(cache.Peek(key_b), nullptr) << "LRU entry must be evicted";
  EXPECT_NE(cache.Peek(key_c), nullptr);
  QueryArtifactCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evicted_lru, 1);
  EXPECT_EQ(stats.entries, 2);
  EXPECT_LE(stats.bytes, static_cast<int64_t>(options.max_bytes));
}

TEST(QueryArtifactCacheTest, OversizedNewestEntryIsExemptFromEviction) {
  const std::string key_a(1000, 'a'), key_b(1000, 'b');
  const size_t entry_bytes = MakeStub(key_a)->MemoryFootprint();

  QueryArtifactCacheOptions options;
  options.shards = 1;
  options.max_bytes = entry_bytes / 2;  // No single bundle fits the budget.
  QueryArtifactCache cache(options);

  cache.GetOrBuild(key_a, [&] { return MakeStub(key_a); });
  EXPECT_NE(cache.Peek(key_a), nullptr) << "newest bundle must not self-evict";
  cache.GetOrBuild(key_b, [&] { return MakeStub(key_b); });
  EXPECT_EQ(cache.Peek(key_a), nullptr);
  EXPECT_NE(cache.Peek(key_b), nullptr);
  EXPECT_EQ(cache.stats().evicted_lru, 1);
  EXPECT_EQ(cache.stats().entries, 1);
}

TEST(QueryArtifactCacheTest, TtlExpiresFromInsertTime) {
  int64_t now = 0;
  QueryArtifactCacheOptions options;
  options.ttl_ms = 1000;
  options.clock = [&now] { return now; };
  QueryArtifactCache cache(options);

  int builds = 0;
  auto builder = [&] {
    ++builds;
    return MakeStub("q");
  };
  EXPECT_FALSE(cache.GetOrBuild("q", builder).hit);
  now = 900;
  // Hits do not extend the TTL: age counts from insert.
  EXPECT_TRUE(cache.GetOrBuild("q", builder).hit);
  EXPECT_NE(cache.Peek("q"), nullptr);
  now = 1001;
  EXPECT_EQ(cache.Peek("q"), nullptr);
  EXPECT_FALSE(cache.GetOrBuild("q", builder).hit) << "expired -> rebuild";
  EXPECT_EQ(builds, 2);

  QueryArtifactCacheStats stats = cache.stats();
  EXPECT_EQ(stats.expired_ttl, 1);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 2);
}

TEST(QueryArtifactCacheTest, InvalidateDropsEntryAndItsBytes) {
  QueryArtifactCache cache;
  auto lookup = cache.GetOrBuild("q", [&] { return MakeStub("q"); });
  EXPECT_NE(cache.Peek("q"), nullptr);
  EXPECT_GT(cache.stats().bytes, 0);

  EXPECT_TRUE(cache.Invalidate("q"));
  EXPECT_EQ(cache.Peek("q"), nullptr);
  EXPECT_FALSE(cache.Invalidate("q"));
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.stats().bytes, 0);
  // The evicted bundle stays alive for holders of the shared_ptr.
  EXPECT_NE(lookup.artifacts, nullptr);
  EXPECT_EQ(lookup.artifacts->key, "q");
}

TEST(QueryArtifactCacheTest, TemplateStoreRendersOncePerKeyAndEncoding) {
  auto artifacts = MakeStub("t");
  int renders = 0;
  auto render = [&] {
    ++renders;
    return std::string(256, 'p');
  };
  auto first = artifacts->templates.GetOrRender("E|1", 0, render);
  auto again = artifacts->templates.GetOrRender("E|1", 0, render);
  EXPECT_EQ(renders, 1) << "same key+encoding must not re-render";
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first.get(), again.get()) << "payload must be shared, not copied";

  // The other encoding is its own template: rendered once, independently.
  auto other = artifacts->templates.GetOrRender("E|1", 1, render);
  EXPECT_EQ(renders, 2);
  EXPECT_NE(first.get(), other.get());
  auto different_key = artifacts->templates.GetOrRender("S|1|0|20", 0, render);
  EXPECT_EQ(renders, 3);
  EXPECT_NE(different_key, nullptr);

  ResponseTemplateStore::Stats stats = artifacts->templates.stats();
  EXPECT_EQ(stats.renders[0], 2);
  EXPECT_EQ(stats.renders[1], 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_GE(stats.bytes, 3 * 256u) << "resident payload bytes undercounted";
  EXPECT_EQ(artifacts->templates.bytes(), stats.bytes);
}

TEST(QueryArtifactCacheTest, TemplateBytesGrowFootprintAndCountTowardBudget) {
  const std::string key_a(1000, 'a'), key_b(1000, 'b');
  const size_t entry_bytes = MakeStub(key_a)->MemoryFootprint();

  int64_t now = 0;
  QueryArtifactCacheOptions options;
  options.shards = 1;
  options.max_bytes = 2 * entry_bytes + entry_bytes / 2;
  options.clock = [&now] { return now; };
  QueryArtifactCache cache(options);

  auto a = cache.GetOrBuild(key_a, [&] { return MakeStub(key_a); }).artifacts;
  now = 1;
  cache.GetOrBuild(key_b, [&] { return MakeStub(key_b); });
  EXPECT_EQ(cache.stats().entries, 2);
  const int64_t resident_before = cache.stats().bytes;

  // Rendering a template grows the bundle's footprint lazily (the server
  // does this on the first EXPAND/QUERY it serves from the bundle)...
  const size_t footprint_before = a->MemoryFootprint();
  a->templates.GetOrRender(
      "E|7", 0, [&] { return std::string(2 * entry_bytes, 'p'); });
  EXPECT_GE(a->MemoryFootprint(), footprint_before + 2 * entry_bytes)
      << "template bytes missing from MemoryFootprint";

  // ...and the cache re-reads the footprint on the next hit: the resident
  // total grows, the byte budget now counts the template, and the LRU
  // entry is evicted to get back under it.
  now = 2;
  EXPECT_TRUE(cache.GetOrBuild(key_a, [&] { return MakeStub(key_a); }).hit);
  EXPECT_GT(cache.stats().bytes, resident_before)
      << "hit did not refresh the entry's footprint";
  EXPECT_NE(cache.Peek(key_a), nullptr);
  EXPECT_EQ(cache.Peek(key_b), nullptr)
      << "LRU budget must count rendered template bytes";
  EXPECT_EQ(cache.stats().evicted_lru, 1);
  EXPECT_GE(cache.stats().bytes,
            static_cast<int64_t>(a->MemoryFootprint()));
}

TEST(QueryArtifactCacheTest, BuildQueryArtifactsFreezesForSharing) {
  const Workload& w = CacheWorkload();
  EUtilsClient eutils = w.corpus().MakeClient();
  const std::string query = w.query(0).spec.keyword;

  auto shared =
      BuildQueryArtifacts(w.hierarchy(), eutils, query, CostModelParams());
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->key, NormalizeQueryKey(query));
  EXPECT_GE(shared->build_us, 0);
  EXPECT_GT(shared->MemoryFootprint(), 0u);

  // A second build of the same query is an equal, independent bundle.
  auto again =
      BuildQueryArtifacts(w.hierarchy(), eutils, query, CostModelParams());
  EXPECT_NE(again->nav, shared->nav);
  EXPECT_EQ(again->result->size(), shared->result->size());
  EXPECT_EQ(again->nav->size(), shared->nav->size());
  EXPECT_EQ(again->MemoryFootprint(), shared->MemoryFootprint());
}

TEST(SessionManagerCacheTest, SecondCreateOfSameQueryHitsAndMatches) {
  const Workload& w = CacheWorkload();
  EUtilsClient eutils = w.corpus().MakeClient();
  SessionManager manager(&w.hierarchy(), &eutils, MakeBioNavStrategyFactory());
  ASSERT_NE(manager.cache(), nullptr);

  const GeneratedQuery& q = w.query(0);
  Result<SessionManager::CreateInfo> cold =
      manager.CreateSession(q.spec.keyword);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold.ValueOrDie().cache_hit);

  // Different spacing/case, same normalized key: still a hit.
  Result<SessionManager::CreateInfo> warm =
      manager.CreateSession("  " + q.spec.keyword + " ");
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.ValueOrDie().cache_hit);
  EXPECT_EQ(warm.ValueOrDie().result_size, cold.ValueOrDie().result_size);

  // The warm session renders the identical initial visualization — shared
  // artifacts change where the tree lives, never what the user sees.
  std::string cold_render, warm_render;
  const QueryArtifacts* cold_artifacts = nullptr;
  const QueryArtifacts* warm_artifacts = nullptr;
  ASSERT_TRUE(manager
                  .WithSession(cold.ValueOrDie().token,
                               [&](NavigationSession& session) {
                                 cold_render = session.Render();
                                 cold_artifacts = session.artifacts().get();
                                 return Status::OK();
                               })
                  .ok());
  ASSERT_TRUE(manager
                  .WithSession(warm.ValueOrDie().token,
                               [&](NavigationSession& session) {
                                 warm_render = session.Render();
                                 warm_artifacts = session.artifacts().get();
                                 return Status::OK();
                               })
                  .ok());
  EXPECT_EQ(cold_render, warm_render);
  EXPECT_EQ(cold_artifacts, warm_artifacts) << "artifacts must be shared";

  QueryArtifactCacheStats stats = manager.cache()->stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
}

TEST(SessionManagerCacheTest, DisabledCacheAlwaysBuildsCold) {
  const Workload& w = CacheWorkload();
  EUtilsClient eutils = w.corpus().MakeClient();
  SessionManagerOptions options;
  options.cache_enabled = false;
  SessionManager manager(&w.hierarchy(), &eutils, MakeBioNavStrategyFactory(),
                         options);
  EXPECT_EQ(manager.cache(), nullptr);

  const GeneratedQuery& q = w.query(0);
  for (int i = 0; i < 2; ++i) {
    Result<SessionManager::CreateInfo> info =
        manager.CreateSession(q.spec.keyword);
    ASSERT_TRUE(info.ok());
    EXPECT_FALSE(info.ValueOrDie().cache_hit);
  }
}

TEST(SessionManagerCacheTest, ConcurrentCreatesOfOneQueryBuildOnce) {
  const Workload& w = CacheWorkload();
  EUtilsClient eutils = w.corpus().MakeClient();
  SessionManager manager(&w.hierarchy(), &eutils, MakeBioNavStrategyFactory());

  constexpr int kThreads = 6;
  const GeneratedQuery& q = w.query(1);
  std::vector<SessionManager::CreateInfo> infos(kThreads);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Result<SessionManager::CreateInfo> info =
            manager.CreateSession(q.spec.keyword);
        ASSERT_TRUE(info.ok());
        infos[t] = info.TakeValue();
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (const auto& info : infos) {
    EXPECT_EQ(info.result_size, infos[0].result_size);
  }
  QueryArtifactCacheStats stats = manager.cache()->stats();
  EXPECT_EQ(stats.misses, 1) << "one build must serve all concurrent creates";
  EXPECT_EQ(stats.hits, kThreads - 1);
  EXPECT_EQ(manager.active(), static_cast<size_t>(kThreads));
}

/// Wire-oracle outcome of one full session; `cached` echoes the QUERY
/// response flag.
struct CacheOracleOutcome {
  bool cached = false;
  size_t result_size = 0;
  int expand_actions = 0;
  int revealed_concepts = 0;
  int showresults_citations = 0;
};

CacheOracleOutcome RunCacheOracle(NavClient& client,
                                  const std::string& keyword,
                                  ConceptId target) {
  CacheOracleOutcome out;
  auto opened = client.Query(keyword);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  if (!opened.ok()) return out;
  out.cached = opened.ValueOrDie().cached;
  out.result_size = opened.ValueOrDie().result_size;
  const std::string token = opened.ValueOrDie().token;

  NavNodeId target_node = kInvalidNavNode;
  for (int step = 0; step < 1000; ++step) {
    auto found = client.Find(token, target);
    EXPECT_TRUE(found.ok()) << found.status().ToString();
    if (!found.ok()) return out;
    const NavClient::FindReply& f = found.ValueOrDie();
    if (!f.found) break;
    target_node = f.node;
    if (f.visible) {
      out.showresults_citations = f.distinct;
      break;
    }
    auto revealed = client.Expand(token, f.component_root);
    EXPECT_TRUE(revealed.ok()) << revealed.status().ToString();
    if (!revealed.ok()) return out;
    ++out.expand_actions;
    out.revealed_concepts += static_cast<int>(revealed.ValueOrDie().size());
  }
  if (target_node != kInvalidNavNode) {
    auto shown = client.ShowResults(token, target_node);
    EXPECT_TRUE(shown.ok()) << shown.status().ToString();
  }
  EXPECT_TRUE(client.CloseSession(token).ok());
  return out;
}

TEST(NavServerCacheE2E, CacheHitSessionNavigatesIdenticallyToColdSession) {
  const Workload& w = CacheWorkload();
  EUtilsClient eutils = w.corpus().MakeClient();
  NavServer server(&w.hierarchy(), &eutils);
  ASSERT_TRUE(server.Start().ok());

  auto connected = NavClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  NavClient& client = *connected.ValueOrDie();

  for (size_t i = 0; i < w.num_queries(); ++i) {
    const GeneratedQuery& q = w.query(i);
    CacheOracleOutcome cold = RunCacheOracle(client, q.spec.keyword, q.target);
    CacheOracleOutcome warm = RunCacheOracle(client, q.spec.keyword, q.target);
    EXPECT_FALSE(cold.cached) << q.spec.name;
    EXPECT_TRUE(warm.cached) << q.spec.name;
    EXPECT_EQ(warm.result_size, cold.result_size) << q.spec.name;
    EXPECT_EQ(warm.expand_actions, cold.expand_actions) << q.spec.name;
    EXPECT_EQ(warm.revealed_concepts, cold.revealed_concepts) << q.spec.name;
    EXPECT_EQ(warm.showresults_citations, cold.showresults_citations)
        << q.spec.name;
  }

  // The STATS wire exposition carries the cache section.
  auto stats_doc = client.Stats();
  ASSERT_TRUE(stats_doc.ok());
  const JsonValue* cache = stats_doc.ValueOrDie().Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_TRUE(cache->BoolOr("enabled", false));
  EXPECT_EQ(cache->IntOr("hits", -1),
            static_cast<int64_t>(w.num_queries()));
  EXPECT_EQ(cache->IntOr("misses", -1),
            static_cast<int64_t>(w.num_queries()));
  EXPECT_GT(cache->IntOr("bytes", 0), 0);
  EXPECT_GT(cache->IntOr("build_us_saved", -1), 0);
  server.Shutdown();
}

TEST(NavServerCacheE2E, CacheOffServerReportsDisabledAndNeverHits) {
  const Workload& w = CacheWorkload();
  EUtilsClient eutils = w.corpus().MakeClient();
  NavServerOptions options;
  options.session.cache_enabled = false;
  NavServer server(&w.hierarchy(), &eutils, nullptr, options);
  ASSERT_TRUE(server.Start().ok());

  auto connected = NavClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  NavClient& client = *connected.ValueOrDie();

  const GeneratedQuery& q = w.query(0);
  for (int i = 0; i < 2; ++i) {
    auto opened = client.Query(q.spec.keyword);
    ASSERT_TRUE(opened.ok());
    EXPECT_FALSE(opened.ValueOrDie().cached);
    EXPECT_TRUE(client.CloseSession(opened.ValueOrDie().token).ok());
  }
  auto stats_doc = client.Stats();
  ASSERT_TRUE(stats_doc.ok());
  const JsonValue* cache = stats_doc.ValueOrDie().Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_FALSE(cache->BoolOr("enabled", true));
  EXPECT_EQ(cache->IntOr("hits", -1), 0);
  EXPECT_EQ(cache->IntOr("misses", -1), 0);
  server.Shutdown();
}

}  // namespace
}  // namespace bionav
