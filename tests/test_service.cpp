// Tests for the solver service (service/{request,canonical,cache,broker}):
// canonicalization quotients relabelings and power-of-two rescalings, cache
// hits are bit-identical to cold solves, malformed requests come back as
// structured errors, and the memo cache obeys its LRU/counter contract.

#include "relap/service/broker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <chrono>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "relap/gen/pipelines.hpp"
#include "relap/gen/platforms.hpp"
#include "relap/service/canonical.hpp"
#include "relap/service/faultpoint.hpp"
#include "relap/util/rng.hpp"

namespace relap::service {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

InstanceData small_instance(std::uint64_t seed, std::size_t stages = 4,
                            std::size_t processors = 4) {
  const auto pipe = gen::random_uniform_pipeline(stages, seed);
  gen::PlatformGenOptions options;
  options.processors = processors;
  const auto plat = gen::random_fully_heterogeneous(options, seed + 1);
  return InstanceData::from(pipe, plat);
}

InstanceData shuffled(const InstanceData& instance, std::uint64_t seed,
                      std::vector<std::size_t>* processor_order_out = nullptr) {
  util::Rng rng(seed);
  std::vector<std::size_t> stage_order = util::iota_indices(instance.stages.size());
  std::vector<std::size_t> processor_order = util::iota_indices(instance.processors.size());
  rng.shuffle(stage_order);
  rng.shuffle(processor_order);
  if (processor_order_out != nullptr) *processor_order_out = processor_order;
  return instance.relabeled(stage_order, processor_order);
}

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Group sets of `reply` translated into the base labeling: processor id j of
// the relabeled presentation is base record processor_order[j].
std::vector<std::vector<std::size_t>> groups_in_base_labels(
    const Reply& reply, std::size_t point, const std::vector<std::size_t>& processor_order) {
  std::vector<std::vector<std::size_t>> groups;
  for (const auto& assignment : reply.front[point].mapping.intervals()) {
    std::vector<std::size_t> group;
    for (const auto id : assignment.processors) group.push_back(processor_order[id]);
    std::sort(group.begin(), group.end());
    groups.push_back(std::move(group));
  }
  return groups;
}

// --- Canonicalization properties. ------------------------------------------

TEST(Canonical, RelabelingsAndPow2ScalingsShareOneHash) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const InstanceData base = small_instance(seed);
    const auto canonical = canonicalize(base);
    ASSERT_TRUE(canonical.has_value());

    const auto relabeled = canonicalize(shuffled(base, seed * 101));
    ASSERT_TRUE(relabeled.has_value());
    EXPECT_EQ(canonical->key_bytes, relabeled->key_bytes);
    EXPECT_EQ(canonical->key_hash, relabeled->key_hash);

    const auto scaled = canonicalize(base.scaled(0.25, 8.0, 2.0));
    ASSERT_TRUE(scaled.has_value());
    EXPECT_EQ(canonical->key_bytes, scaled->key_bytes);

    const auto both = canonicalize(shuffled(base, seed * 103).scaled(4.0, 0.5, 0.125));
    ASSERT_TRUE(both.has_value());
    EXPECT_EQ(canonical->key_bytes, both->key_bytes);
  }
}

TEST(Canonical, HoldsOnEveryPlatformClass) {
  const auto pipe = gen::random_uniform_pipeline(5, 7);
  gen::PlatformGenOptions options;
  options.processors = 5;
  const platform::Platform platforms[] = {
      gen::random_fully_homogeneous(options, 11),
      gen::random_comm_hom_het_failures(options, 12),
      gen::random_fully_heterogeneous(options, 13),
  };
  for (const auto& plat : platforms) {
    const InstanceData base = InstanceData::from(pipe, plat);
    const auto canonical = canonicalize(base);
    ASSERT_TRUE(canonical.has_value());
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const auto relabeled = canonicalize(shuffled(base, seed * 31 + 5));
      ASSERT_TRUE(relabeled.has_value());
      EXPECT_EQ(canonical->key_bytes, relabeled->key_bytes);
    }
  }
}

TEST(Canonical, DistinctInstancesGetDistinctHashes) {
  const auto a = canonicalize(small_instance(1));
  const auto b = canonicalize(small_instance(2));
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_NE(a->key_hash, b->key_hash);
}

TEST(Canonical, TimeScaleIsAPowerOfTwo) {
  const auto canonical = canonicalize(small_instance(3));
  ASSERT_TRUE(canonical.has_value());
  int exponent = 0;
  EXPECT_EQ(std::frexp(canonical->time_scale, &exponent), 0.5);
}

// --- Broker replies across presentations. ----------------------------------

TEST(Broker, RelabeledDuplicateHitsCacheWithBitIdenticalFront) {
  Broker broker;
  SolveRequest request;
  request.instance = small_instance(21);
  request.objective = Objective::ParetoFront;

  const auto cold = broker.solve(request);
  ASSERT_TRUE(cold.has_value());
  EXPECT_FALSE(cold->cache_hit);

  std::vector<std::size_t> processor_order;
  SolveRequest dup = request;
  dup.instance = shuffled(request.instance, 77, &processor_order);
  const auto warm = broker.solve(dup);
  ASSERT_TRUE(warm.has_value());
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_EQ(warm->canonical_hash, cold->canonical_hash);

  ASSERT_EQ(warm->front.size(), cold->front.size());
  for (std::size_t p = 0; p < cold->front.size(); ++p) {
    EXPECT_TRUE(bits_equal(warm->front[p].latency, cold->front[p].latency));
    EXPECT_TRUE(
        bits_equal(warm->front[p].failure_probability, cold->front[p].failure_probability));
    // Same replica groups once both are expressed in the base labeling.
    std::vector<std::vector<std::size_t>> cold_groups;
    for (const auto& assignment : cold->front[p].mapping.intervals()) {
      std::vector<std::size_t> group(assignment.processors.begin(), assignment.processors.end());
      cold_groups.push_back(std::move(group));
    }
    EXPECT_EQ(groups_in_base_labels(*warm, p, processor_order), cold_groups);
  }
  // The label-independent checksum agrees without any translation.
  EXPECT_EQ(front_checksum(warm->front), front_checksum(cold->front));
}

TEST(Broker, Pow2RescaledDuplicateHitsCacheWithExactLatencyRelation) {
  Broker broker;
  SolveRequest request;
  request.instance = small_instance(22);
  request.objective = Objective::MinFpForLatency;
  request.threshold = kInf;

  const auto cold = broker.solve(request);
  ASSERT_TRUE(cold.has_value());

  const double time_factor = 8.0;
  SolveRequest dup = request;
  dup.instance = request.instance.scaled(2.0, 0.5, time_factor);
  // The latency cap is in caller units; rescale it with the instance.
  // (infinity stays infinity.)
  const auto warm = broker.solve(dup);
  ASSERT_TRUE(warm.has_value());
  EXPECT_TRUE(warm->cache_hit);
  // Rescaled clock: latencies divide by time_factor, exactly.
  EXPECT_TRUE(bits_equal(warm->best().latency, cold->best().latency / time_factor));
  EXPECT_TRUE(bits_equal(warm->best().failure_probability, cold->best().failure_probability));
  EXPECT_EQ(warm->best().mapping, cold->best().mapping);
}

TEST(Broker, FullyHomogeneousParetoIsExactAndItsPresentationsHit) {
  // A 6 x 12 fully homogeneous front comes from Algorithm 2 swept over k,
  // exact, and a relabeled, rescaled presentation is the same canonical
  // front.
  const auto pipe = gen::random_uniform_pipeline(6, 26);
  gen::PlatformGenOptions options;
  options.processors = 12;
  Broker broker;
  SolveRequest request;
  request.instance = InstanceData::from(pipe, gen::random_fully_homogeneous(options, 27));
  request.objective = Objective::ParetoFront;

  const auto cold = broker.solve(request);
  ASSERT_TRUE(cold.has_value()) << cold.error().to_string();
  EXPECT_FALSE(cold->cache_hit);
  EXPECT_TRUE(cold->exact);
  EXPECT_EQ(cold->algorithm, "algorithm-2 pareto (fully homogeneous)");
  EXPECT_EQ(cold->front.size(), 12U);  // one point per replica count k

  SolveRequest dup = request;
  dup.instance = shuffled(request.instance, 28).scaled(4.0, 0.25, 1.0);
  const auto warm = broker.solve(dup);
  ASSERT_TRUE(warm.has_value()) << warm.error().to_string();
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_TRUE(warm->exact);
  EXPECT_EQ(warm->algorithm, cold->algorithm);
  EXPECT_EQ(warm->canonical_hash, cold->canonical_hash);
  EXPECT_EQ(front_checksum(warm->front), front_checksum(cold->front));
}

TEST(Broker, WarmReplyIsBitIdenticalToCold) {
  for (const Objective objective :
       {Objective::MinFpForLatency, Objective::MinLatencyForFp, Objective::ParetoFront}) {
    Broker broker;
    SolveRequest request;
    request.instance = small_instance(23);
    request.objective = objective;
    request.threshold = objective == Objective::MinLatencyForFp ? 1.0 : kInf;

    const auto cold = broker.solve(request);
    ASSERT_TRUE(cold.has_value());
    EXPECT_FALSE(cold->cache_hit);
    const auto warm = broker.solve(request);
    ASSERT_TRUE(warm.has_value());
    EXPECT_TRUE(warm->cache_hit);

    EXPECT_EQ(warm->algorithm, cold->algorithm);
    EXPECT_EQ(warm->exact, cold->exact);
    ASSERT_EQ(warm->front.size(), cold->front.size());
    for (std::size_t p = 0; p < cold->front.size(); ++p) {
      EXPECT_TRUE(bits_equal(warm->front[p].latency, cold->front[p].latency));
      EXPECT_TRUE(
          bits_equal(warm->front[p].failure_probability, cold->front[p].failure_probability));
      EXPECT_EQ(warm->front[p].mapping, cold->front[p].mapping);
    }
    EXPECT_EQ(front_checksum(warm->front), front_checksum(cold->front));
  }
}

TEST(Broker, SingleObjectiveRepliesCarryOnePoint) {
  Broker broker;
  SolveRequest request;
  request.instance = small_instance(24);
  request.objective = Objective::MinLatencyForFp;
  request.threshold = 1.0;
  const auto reply = broker.solve(request);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->front.size(), 1U);
  EXPECT_TRUE(reply->exact);  // 4 stages x 4 processors fits the auto budget
  EXPECT_GT(reply->best().latency, 0.0);
}

TEST(Broker, ColdHeuristicParetoReportsSolverWorkAndHitsReportNone) {
  Broker broker;
  SolveRequest request;
  request.instance = small_instance(25, 5, 6);
  request.objective = Objective::ParetoFront;
  request.method = algorithms::Method::Heuristic;
  request.pareto_thresholds = 8;

  // The three generators' own emitted counts on the canonical instance the
  // broker solves.
  const auto canonical = canonicalize(request.instance);
  ASSERT_TRUE(canonical.has_value());
  std::uint64_t emitted = 0;
  const algorithms::CandidateSink count = [&](algorithms::Solution) { ++emitted; };
  const algorithms::HeuristicOptions defaults;
  algorithms::enumerate_single_interval_candidates(canonical->pipeline, canonical->platform,
                                                   defaults, count);
  algorithms::enumerate_greedy_split_candidates(canonical->pipeline, canonical->platform,
                                                defaults, count);
  algorithms::enumerate_beam_candidates(canonical->pipeline, canonical->platform, defaults, count);
  ASSERT_GT(emitted, 0U);

  const auto cold = broker.solve(request);
  ASSERT_TRUE(cold.has_value());
  ASSERT_FALSE(cold->cache_hit);
  ASSERT_TRUE(cold->spans.work.has_value());
  EXPECT_EQ(cold->spans.work->generator_passes, 1U);
  EXPECT_EQ(cold->spans.work->candidates, emitted);
  const std::string cold_trace = cold->spans.to_json();
  EXPECT_NE(cold_trace.find("\"generator_passes\":1,"), std::string::npos) << cold_trace;
  EXPECT_NE(cold_trace.find("\"candidates\":" + std::to_string(emitted) + ","),
            std::string::npos)
      << cold_trace;
  EXPECT_NE(cold_trace.find("\"local_search_rounds\":"), std::string::npos) << cold_trace;

  const auto warm = broker.solve(request);
  ASSERT_TRUE(warm.has_value());
  ASSERT_TRUE(warm->cache_hit);
  const algorithms::HeuristicWork hit_work = warm->spans.work.value_or(algorithms::HeuristicWork{});
  EXPECT_EQ(hit_work.generator_passes, 0U);
  EXPECT_EQ(hit_work.candidates, 0U);
  EXPECT_EQ(hit_work.local_search_rounds, 0U);
  EXPECT_EQ(warm->spans.to_json().find("generator_passes"), std::string::npos);

  // The metrics totals count the one solve, not the hit.
  const std::string metrics = broker.metrics_json();
  EXPECT_NE(metrics.find("\"generator_passes_total\":1,"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("\"candidates_total\":" + std::to_string(emitted) + ","),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("\"local_search_rounds_total\":" +
                         std::to_string(cold->spans.work->local_search_rounds) + ","),
            std::string::npos)
      << metrics;
}

// --- Batch dedup + ticket queue. -------------------------------------------

TEST(Broker, BatchDedupesEqualRequestsOntoOneSolve) {
  Broker broker;
  const InstanceData base = small_instance(25);
  std::vector<SolveRequest> batch;
  for (std::uint64_t r = 0; r < 6; ++r) {
    SolveRequest request;
    request.instance = r == 0 ? base : shuffled(base, 900 + r);
    request.objective = Objective::ParetoFront;
    request.priority = static_cast<int>(r % 2);
    batch.push_back(std::move(request));
  }
  const auto replies = broker.solve_batch(batch);
  ASSERT_EQ(replies.size(), batch.size());
  std::size_t hits = 0;
  for (const auto& reply : replies) {
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->canonical_hash, replies.front()->canonical_hash);
    EXPECT_EQ(front_checksum(reply->front), front_checksum(replies.front()->front));
    hits += reply->cache_hit ? 1 : 0;
  }
  EXPECT_EQ(hits, batch.size() - 1);  // one cold lead, everyone else warm
  const CacheStats stats = broker.cache_stats();
  EXPECT_EQ(stats.misses, 1U);
  EXPECT_EQ(stats.hits, batch.size() - 1);
  EXPECT_EQ(stats.entries, 1U);
}

// --- Malformed-request hardening. ------------------------------------------

SolveRequest valid_request() {
  SolveRequest request;
  request.instance = small_instance(27, 3, 3);
  request.objective = Objective::MinFpForLatency;
  request.threshold = kInf;
  return request;
}

void expect_error(Broker& broker, const SolveRequest& request, const std::string& code) {
  const auto reply = broker.solve(request);
  ASSERT_FALSE(reply.has_value());
  EXPECT_EQ(reply.error().code, code);
}

TEST(Broker, MalformedRequestsYieldStructuredErrors) {
  Broker broker;

  SolveRequest request = valid_request();
  request.instance.stages.clear();
  expect_error(broker, request, "malformed");

  request = valid_request();
  request.instance.processors.clear();
  expect_error(broker, request, "malformed");

  request = valid_request();
  request.instance.stages[1].position = request.instance.stages[0].position;
  expect_error(broker, request, "malformed");

  request = valid_request();
  request.instance.stages[2].position = 99;
  expect_error(broker, request, "malformed");

  request = valid_request();
  request.instance.stages[0].work = std::nan("");
  expect_error(broker, request, "malformed");

  request = valid_request();
  request.instance.stages[0].work = -1.0;
  expect_error(broker, request, "malformed");

  request = valid_request();
  request.instance.processors[1].failure_prob = 1.5;
  expect_error(broker, request, "malformed");

  request = valid_request();
  request.instance.processors[0].speed = 0.0;
  expect_error(broker, request, "malformed");

  request = valid_request();
  request.instance.processors[2].links.pop_back();
  expect_error(broker, request, "malformed");

  request = valid_request();
  request.threshold = std::nan("");
  expect_error(broker, request, "malformed");

  request = valid_request();
  request.max_evaluations = 0;
  expect_error(broker, request, "malformed");

  request = valid_request();
  request.objective = Objective::ParetoFront;
  request.pareto_thresholds = 1;
  expect_error(broker, request, "malformed");
}

TEST(Broker, InfeasibleAndOversizedRequestsRejectGracefully) {
  BrokerOptions options;
  options.max_stages = 4;
  options.max_processors = 4;
  Broker broker(options);

  SolveRequest request = valid_request();
  request.threshold = -1.0;
  expect_error(broker, request, "infeasible");

  // An FP cap of 0 on a platform whose processors all fail sometimes.
  request = valid_request();
  request.objective = Objective::MinLatencyForFp;
  request.threshold = 0.0;
  expect_error(broker, request, "infeasible");

  request = valid_request();
  request.instance = small_instance(28, 6, 3);
  expect_error(broker, request, "oversized");

  request = valid_request();
  request.instance = small_instance(29, 3, 6);
  expect_error(broker, request, "oversized");

  // Forced exhaustive with a budget of 1 candidate: fails fast, not cached.
  request = valid_request();
  request.method = algorithms::Method::Exhaustive;
  request.max_evaluations = 1;
  expect_error(broker, request, "budget");
  EXPECT_EQ(broker.cache_stats().entries, 0U);
}

// --- FrontCache unit behavior. ---------------------------------------------

std::shared_ptr<const algorithms::FrontReport> dummy_report(const std::string& tag) {
  auto report = std::make_shared<algorithms::FrontReport>();
  report->algorithm = tag;
  return report;
}

TEST(FrontCache, LruEvictionAndCounters) {
  FrontCache::Options options;
  options.capacity = 2;
  options.shards = 1;
  FrontCache cache(options);

  cache.insert(1, "a", dummy_report("a"));
  cache.insert(2, "b", dummy_report("b"));
  ASSERT_NE(cache.find(1, "a"), nullptr);  // touch "a": "b" becomes LRU
  cache.insert(3, "c", dummy_report("c"));

  EXPECT_EQ(cache.find(2, "b"), nullptr);  // evicted
  ASSERT_NE(cache.find(1, "a"), nullptr);
  ASSERT_NE(cache.find(3, "c"), nullptr);

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1U);
  EXPECT_EQ(stats.hits, 3U);
  EXPECT_EQ(stats.misses, 1U);
  EXPECT_EQ(stats.entries, 2U);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.75);

  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0U);
  EXPECT_EQ(cache.stats().evictions, 1U);  // counters describe traffic
}

TEST(FrontCache, HashCollisionsResolveByFullKey) {
  FrontCache cache;
  cache.insert(42, "left", dummy_report("left"));
  cache.insert(42, "right", dummy_report("right"));
  const auto left = cache.find(42, "left");
  const auto right = cache.find(42, "right");
  ASSERT_NE(left, nullptr);
  ASSERT_NE(right, nullptr);
  EXPECT_EQ(left->algorithm, "left");
  EXPECT_EQ(right->algorithm, "right");
  EXPECT_EQ(cache.find(42, "missing"), nullptr);
}

// --- Overload hardening: deadlines, shedding, graceful drain. ---------------

TEST(Broker, DeadlineSemanticsPinned) {
  Broker broker;

  // Deadlines are seconds of wall-clock budget. NaN and negative values are
  // malformed — rejected at admission, never "expired".
  SolveRequest request = valid_request();
  request.deadline = std::numeric_limits<double>::quiet_NaN();
  expect_error(broker, request, "malformed");
  request.deadline = -1.0;
  expect_error(broker, request, "malformed");
  EXPECT_EQ(broker.metrics().deadline_exceeded_total.value(), 0U);

  // A zero budget is deterministically spent at dispatch: rejected before
  // any solving happens.
  request = valid_request();
  request.deadline = 0.0;
  expect_error(broker, request, "deadline-exceeded");
  EXPECT_EQ(broker.metrics().deadline_exceeded_total.value(), 1U);
  EXPECT_EQ(broker.metrics().solves_total.value(), 0U);

  // The default (+inf) never expires.
  request.deadline = kInf;
  const auto reply = broker.solve(request);
  ASSERT_TRUE(reply.has_value());
}

// --- The shared queue behind solve_batched. --------------------------------
//
// Each queue test starts one caller whose cache-miss solve is held inside
// the broker.solve_stall fault point. That caller is the drainer, so every
// later caller queues behind it; waiting on `pending()` between callers
// fixes the ticket order.

constexpr double kStallSeconds = 1.0;

/// Spins until `done()` holds. False once the stalled drainer's window has
/// passed, so a test whose callers did not queue in time fails, not hangs.
template <typename Predicate>
bool wait_until(Predicate done) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(kStallSeconds);
  while (!done()) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::yield();
  }
  return true;
}

class StalledQueue {
 public:
  /// Starts caller 0, the drainer, and waits until it stalls in its solve.
  explicit StalledQueue(Broker& broker) : broker_(broker) {
    faultpoint::clear();
    faultpoint::ArmOptions stall;
    stall.value = kStallSeconds;
    faultpoint::arm("broker.solve_stall", stall);
    SolveRequest lead = valid_request();
    lead.instance = small_instance(28, 3, 3);
    (void)call(lead);
    EXPECT_TRUE(wait_until([] { return faultpoint::hits("broker.solve_stall") >= 1; }));
  }
  ~StalledQueue() {
    join();
    faultpoint::clear();
  }

  /// Calls `solve_batched(request)` on a new thread; returns the caller's
  /// index for `reply`.
  std::size_t call(SolveRequest request) {
    std::optional<util::Expected<Reply>>& slot = replies_.emplace_back();
    callers_.emplace_back([this, &slot, request = std::move(request)] {
      slot.emplace(broker_.solve_batched(request));
    });
    return replies_.size() - 1;
  }

  void join() {
    for (std::thread& caller : callers_) caller.join();
    callers_.clear();
  }

  /// Caller `index`'s reply; requires `join()` first.
  [[nodiscard]] const util::Expected<Reply>& reply(std::size_t index) const {
    return *replies_[index];
  }

 private:
  Broker& broker_;
  std::deque<std::optional<util::Expected<Reply>>> replies_;  // stable slots
  std::vector<std::thread> callers_;
};

TEST(Broker, QueuedDeadlineEnforcedAtDequeue) {
  Broker broker;
  StalledQueue queue(broker);
  SolveRequest request = valid_request();
  request.deadline = 0.0;
  const std::size_t expired = queue.call(request);
  ASSERT_TRUE(wait_until([&] { return broker.pending() == 1; }));
  request.deadline = 3600.0;  // the queue wait is about kStallSeconds
  const std::size_t alive = queue.call(request);
  queue.join();

  ASSERT_FALSE(queue.reply(expired).has_value());
  EXPECT_EQ(queue.reply(expired).error().code, "deadline-exceeded");
  EXPECT_TRUE(queue.reply(alive).has_value());
  EXPECT_TRUE(queue.reply(0).has_value());
}

TEST(Broker, WatermarkSheddingDropsLowestPriorityFirst) {
  {
    BrokerOptions options;
    options.queue_high_watermark = 4;
    options.queue_low_watermark = 2;
    Broker broker(options);
    StalledQueue queue(broker);

    std::vector<std::size_t> callers;
    for (std::size_t p = 0; p < 5; ++p) {
      SolveRequest request = valid_request();
      request.priority = static_cast<int>(p);  // later callers are *more* important
      callers.push_back(queue.call(request));
      if (p < 4) {
        ASSERT_TRUE(wait_until([&] { return broker.pending() == p + 1; }));
      }
    }
    queue.join();

    // The fifth caller crossed the high watermark: shed down to the low one,
    // lowest priorities first, so the two most important callers survive.
    EXPECT_EQ(broker.metrics().shed_total.value(), 3U);
    for (std::size_t p = 0; p < 3; ++p) {
      ASSERT_FALSE(queue.reply(callers[p]).has_value()) << "priority " << p << " should be shed";
      EXPECT_EQ(queue.reply(callers[p]).error().code, "overloaded");
    }
    for (std::size_t p = 3; p < 5; ++p) {
      EXPECT_TRUE(queue.reply(callers[p]).has_value()) << "priority " << p << " should survive";
    }
  }
  {
    // High watermark 1, low unset: the default low watermark is at least 1,
    // so one overflow sheds only the lower priority, never the whole queue.
    BrokerOptions options;
    options.queue_high_watermark = 1;
    Broker broker(options);
    StalledQueue queue(broker);

    SolveRequest request = valid_request();
    const std::size_t low = queue.call(request);
    ASSERT_TRUE(wait_until([&] { return broker.pending() == 1; }));
    request.priority = 5;
    const std::size_t high = queue.call(request);
    queue.join();

    EXPECT_EQ(broker.metrics().shed_total.value(), 1U);
    ASSERT_FALSE(queue.reply(low).has_value());
    EXPECT_EQ(queue.reply(low).error().code, "overloaded");
    EXPECT_TRUE(queue.reply(high).has_value());
  }
}

TEST(Broker, GracefulShutdownRefusesNewWorkButDrainsQueued) {
  Broker broker;
  StalledQueue queue(broker);
  SolveRequest request = valid_request();
  const std::size_t queued = queue.call(request);
  ASSERT_TRUE(wait_until([&] { return broker.pending() == 1; }));

  broker.begin_shutdown();
  EXPECT_TRUE(broker.shutting_down());

  // New work refuses with "shutting-down" on every entry point...
  expect_error(broker, request, "shutting-down");
  const auto late = broker.solve_batched(request);
  ASSERT_FALSE(late.has_value());
  EXPECT_EQ(late.error().code, "shutting-down");

  // ...while the callers queued or solving before shutdown get real replies.
  queue.join();
  EXPECT_TRUE(queue.reply(queued).has_value());
  EXPECT_TRUE(queue.reply(0).has_value());
}

// --- solve_batched: the concurrent sessions' entry point. -------------------

TEST(Broker, SolveBatchedMatchesDirectSolveBitIdentically) {
  Broker direct_broker;
  Broker batched_broker;
  SolveRequest request = valid_request();
  request.objective = Objective::ParetoFront;
  const auto direct = direct_broker.solve(request);
  const auto batched = batched_broker.solve_batched(request);
  ASSERT_TRUE(direct.has_value());
  ASSERT_TRUE(batched.has_value());
  ASSERT_EQ(direct->front.size(), batched->front.size());
  for (std::size_t i = 0; i < direct->front.size(); ++i) {
    EXPECT_TRUE(bits_equal(direct->front[i].latency, batched->front[i].latency));
    EXPECT_TRUE(
        bits_equal(direct->front[i].failure_probability, batched->front[i].failure_probability));
  }
}

TEST(Broker, ConcurrentSolveBatchedCoalescesOntoOneSolve) {
  Broker broker;
  const InstanceData base = small_instance(31);
  constexpr std::size_t kSessions = 8;
  std::vector<std::optional<util::Expected<Reply>>> replies(kSessions);
  {
    std::vector<std::thread> sessions;
    sessions.reserve(kSessions);
    for (std::size_t s = 0; s < kSessions; ++s) {
      sessions.emplace_back([&, s] {
        SolveRequest request;
        // Different presentations of one instance: they canonicalize onto
        // one key, so whichever session drains first solves for everyone.
        request.instance = s == 0 ? base : shuffled(base, 4000 + s);
        request.objective = Objective::ParetoFront;
        replies[s].emplace(broker.solve_batched(request));
      });
    }
    for (std::thread& session : sessions) session.join();
  }
  ASSERT_TRUE(replies[0]->has_value()) << replies[0]->error().to_string();
  const std::uint64_t checksum = front_checksum(replies[0]->value().front);
  for (std::size_t s = 1; s < kSessions; ++s) {
    ASSERT_TRUE(replies[s]->has_value()) << replies[s]->error().to_string();
    EXPECT_EQ(front_checksum(replies[s]->value().front), checksum);
  }
  // Dedup/caching collapse all eight sessions onto exactly one solve.
  EXPECT_EQ(broker.metrics().solves_total.value(), 1U);
  EXPECT_EQ(broker.metrics().requests_total.value(), kSessions);
}

TEST(FrontCache, ReinsertRefreshesRecencyKeepsFirstValue) {
  FrontCache::Options options;
  options.capacity = 2;
  options.shards = 1;
  FrontCache cache(options);
  cache.insert(1, "a", dummy_report("first"));
  cache.insert(2, "b", dummy_report("b"));
  cache.insert(1, "a", dummy_report("second"));  // refresh, value kept
  cache.insert(3, "c", dummy_report("c"));       // evicts "b", not "a"
  ASSERT_NE(cache.find(1, "a"), nullptr);
  EXPECT_EQ(cache.find(1, "a")->algorithm, "first");
  EXPECT_EQ(cache.find(2, "b"), nullptr);
}

}  // namespace
}  // namespace relap::service
