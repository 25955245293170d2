// Tests for mapping/mapping_view.hpp — the zero-allocation batched
// evaluation kernel. Two guarantees are pinned here:
//  1. bit-identity: evaluate_view / period_view match the scalar evaluators
//     bit for bit on randomized mappings across platform classes (the
//     determinism suite builds on this);
//  2. zero allocation: the steady-state candidate loop (set_grouping +
//     evaluate_view + period_view + indexer successor) performs no heap
//     allocation, counted by replacing the global allocator in this TU.

#include "relap/mapping/mapping_view.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "relap/algorithms/types.hpp"
#include "relap/gen/pipelines.hpp"
#include "relap/gen/platforms.hpp"
#include "relap/mapping/latency.hpp"
#include "relap/mapping/mapping_lanes.hpp"
#include "relap/mapping/reliability.hpp"
#include "relap/mapping/throughput.hpp"
#include "relap/util/enumeration.hpp"
#include "relap/util/rng.hpp"
#include "relap/util/simd.hpp"

namespace {

std::atomic<std::size_t> g_allocation_count{0};

std::size_t allocation_count() { return g_allocation_count.load(std::memory_order_relaxed); }

void* counted_allocate(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_allocate_aligned(std::size_t size, std::size_t alignment) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, alignment < sizeof(void*) ? sizeof(void*) : alignment,
                     size == 0 ? alignment : size) == 0) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

// Replaceable global allocation functions: every operator new in this test
// binary routes through the counter. The zero-allocation test below measures
// the counter across the kernel's steady-state loop.
void* operator new(std::size_t size) { return counted_allocate(size); }
void* operator new[](std::size_t size) { return counted_allocate(size); }
void* operator new(std::size_t size, std::align_val_t alignment) {
  return counted_allocate_aligned(size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return counted_allocate_aligned(size, static_cast<std::size_t>(alignment));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace relap {
namespace {

/// Draws a uniform random interval mapping (composition + grouping) via the
/// indexers' unrank, and cross-checks every kernel evaluator against its
/// scalar counterpart, demanding exact bit equality.
void cross_check_random_mappings(const pipeline::Pipeline& pipe,
                                 const platform::Platform& plat, std::uint64_t seed,
                                 int iterations) {
  const std::size_t n = pipe.stage_count();
  const std::size_t m = plat.processor_count();
  util::Rng rng(seed);
  mapping::EvalScratch scratch(n, m);
  mapping::EvalScratch interval_scratch(n, m);
  std::vector<std::size_t> lengths;
  std::vector<std::size_t> group_of(m);
  std::vector<std::size_t> group_sizes;

  for (int i = 0; i < iterations; ++i) {
    const std::size_t p = 1 + static_cast<std::size_t>(rng.uniform_int(std::min(n, m)));
    const util::CompositionIndexer compositions(n, p);
    const util::GroupingIndexer groupings(m, p);
    compositions.unrank(rng.uniform_int(compositions.count()), lengths);
    group_sizes.resize(p);
    groupings.unrank(rng.uniform_int(groupings.count()), group_of, group_sizes);

    std::vector<std::vector<platform::ProcessorId>> groups(p);
    for (platform::ProcessorId u = 0; u < m; ++u) {
      if (group_of[u] < p) groups[group_of[u]].push_back(u);
    }
    const mapping::IntervalMapping mapping =
        mapping::IntervalMapping::from_composition(lengths, groups);
    const algorithms::Solution scalar = algorithms::evaluate(pipe, plat, mapping);
    const double scalar_period = mapping::period(pipe, plat, mapping);

    // Enumeration path: composition + grouping word.
    scratch.set_composition(pipe, lengths);
    scratch.set_grouping(group_of, group_sizes);
    const mapping::ViewEval eval =
        mapping::evaluate_view(plat, scratch.view(), scratch.cache());
    EXPECT_EQ(eval.latency, scalar.latency) << "iteration " << i;
    EXPECT_EQ(eval.failure_probability, scalar.failure_probability) << "iteration " << i;
    EXPECT_EQ(mapping::period_view(plat, scratch.view(), scratch.cache()), scalar_period)
        << "iteration " << i;
    EXPECT_EQ(mapping::materialize(scratch.view()), mapping) << "iteration " << i;

    // Heuristics path: explicit interval assignments.
    interval_scratch.set_intervals(pipe, mapping.intervals());
    const mapping::ViewEval interval_eval =
        mapping::evaluate_view(plat, interval_scratch.view(), interval_scratch.cache());
    EXPECT_EQ(interval_eval.latency, scalar.latency) << "iteration " << i;
    EXPECT_EQ(interval_eval.failure_probability, scalar.failure_probability)
        << "iteration " << i;
  }
}

TEST(MappingView, MatchesScalarEvaluatorsOnCommHomogeneousPlatforms) {
  const auto pipe = gen::random_uniform_pipeline(6, 301);
  gen::PlatformGenOptions options;
  options.processors = 7;
  const auto plat = gen::random_comm_hom_het_failures(options, 302);
  ASSERT_TRUE(plat.has_homogeneous_links());  // exercises the eq-(1) kernel
  cross_check_random_mappings(pipe, plat, 303, 400);
}

TEST(MappingView, MatchesScalarEvaluatorsOnFullyHeterogeneousPlatforms) {
  const auto pipe = gen::random_uniform_pipeline(5, 311);
  gen::PlatformGenOptions options;
  options.processors = 6;
  const auto plat = gen::random_fully_heterogeneous(options, 312);
  ASSERT_FALSE(plat.has_homogeneous_links());  // exercises the eq-(2) kernel
  cross_check_random_mappings(pipe, plat, 313, 400);
}

TEST(MappingView, MatchesScalarEvaluatorsOnFullyHomogeneousPlatforms) {
  const auto pipe = gen::random_uniform_pipeline(4, 321);
  gen::PlatformGenOptions options;
  options.processors = 5;
  const auto plat = gen::random_fully_homogeneous(options, 322);
  cross_check_random_mappings(pipe, plat, 323, 200);
}

/// Draws random mappings and streams them through a `kLaneWidth`-lane
/// `LaneEvalBatch` in enumeration form (set_composition before every push,
/// so compositions change mid-batch) or interval form (ragged per-lane
/// compositions), flushing full and final partial batches; every lane's
/// result must match the scalar `evaluate_view` oracle bit for bit, and the
/// lane views must materialize/period exactly like the scalar path.
/// Iteration counts must not be multiples of the width (checked), so the
/// final batch is always partial.
constexpr std::size_t W = util::simd::kLaneWidth;

void lane_cross_check_random_mappings(const pipeline::Pipeline& pipe,
                                      const platform::Platform& plat, std::uint64_t seed,
                                      int iterations, bool interval_mode) {
  ASSERT_NE(static_cast<std::size_t>(iterations) % W, 0u) << "final batch must be partial";
  const std::size_t n = pipe.stage_count();
  const std::size_t m = plat.processor_count();
  util::Rng rng(seed);
  mapping::EvalScratch scratch(n, m);
  mapping::LaneEvalBatch<W> batch(n, m);
  std::array<mapping::ViewEval, W> evals;
  std::vector<std::size_t> lengths;
  std::vector<std::size_t> group_of(m);
  std::vector<std::size_t> group_sizes;
  std::vector<mapping::IntervalMapping> staged;

  const auto flush = [&] {
    batch.evaluate(plat, evals);
    for (std::size_t l = 0; l < batch.size(); ++l) {
      scratch.set_intervals(pipe, staged[l].intervals());
      const mapping::ViewEval oracle =
          mapping::evaluate_view(plat, scratch.view(), scratch.cache());
      EXPECT_EQ(evals[l].latency, oracle.latency) << "lane " << l;
      EXPECT_EQ(evals[l].failure_probability, oracle.failure_probability) << "lane " << l;
      EXPECT_EQ(mapping::materialize(batch.view(l)), staged[l]) << "lane " << l;
      EXPECT_EQ(mapping::period_view(plat, batch.view(l), batch.cache(l)),
                mapping::period(pipe, plat, staged[l]))
          << "lane " << l;
    }
    batch.clear();
    staged.clear();
  };

  for (int i = 0; i < iterations; ++i) {
    const std::size_t p = 1 + static_cast<std::size_t>(rng.uniform_int(std::min(n, m)));
    const util::CompositionIndexer compositions(n, p);
    const util::GroupingIndexer groupings(m, p);
    compositions.unrank(rng.uniform_int(compositions.count()), lengths);
    group_sizes.resize(p);
    groupings.unrank(rng.uniform_int(groupings.count()), group_of, group_sizes);

    std::vector<std::vector<platform::ProcessorId>> groups(p);
    for (platform::ProcessorId u = 0; u < m; ++u) {
      if (group_of[u] < p) groups[group_of[u]].push_back(u);
    }
    staged.push_back(mapping::IntervalMapping::from_composition(lengths, groups));
    if (interval_mode) {
      batch.push_intervals(pipe, staged.back().intervals());
    } else {
      batch.set_composition(pipe, lengths);
      batch.push_grouping(group_of, group_sizes);
    }
    if (batch.full()) flush();
  }
  if (!batch.empty()) flush();
}

TEST(MappingLanes, MatchesScalarOracleOnCommHomogeneousPlatforms) {
  const auto pipe = gen::random_uniform_pipeline(6, 401);
  gen::PlatformGenOptions options;
  options.processors = 7;
  const auto plat = gen::random_comm_hom_het_failures(options, 402);
  ASSERT_TRUE(plat.has_homogeneous_links());  // exercises the eq-(1) lane kernel
  lane_cross_check_random_mappings(pipe, plat, 405, 150, false);
}

TEST(MappingLanes, MatchesScalarOracleOnFullyHeterogeneousPlatforms) {
  const auto pipe = gen::random_uniform_pipeline(5, 411);
  gen::PlatformGenOptions options;
  options.processors = 6;
  const auto plat = gen::random_fully_heterogeneous(options, 412);
  ASSERT_FALSE(plat.has_homogeneous_links());  // exercises the eq-(2) lane kernel
  lane_cross_check_random_mappings(pipe, plat, 415, 150, false);
}

TEST(MappingLanes, MatchesScalarOracleOnFullyHomogeneousPlatforms) {
  const auto pipe = gen::random_uniform_pipeline(4, 421);
  gen::PlatformGenOptions options;
  options.processors = 5;
  const auto plat = gen::random_fully_homogeneous(options, 422);
  lane_cross_check_random_mappings(pipe, plat, 425, 100, false);
}

TEST(MappingLanes, IntervalPushMatchesScalarOracle) {
  // The heuristics staging mode: explicit interval assignments with ragged
  // per-lane compositions and interval counts inside one batch.
  const auto pipe = gen::random_uniform_pipeline(6, 431);
  gen::PlatformGenOptions options;
  options.processors = 7;
  const auto het = gen::random_fully_heterogeneous(options, 432);
  const auto hom = gen::random_comm_hom_het_failures(options, 433);
  lane_cross_check_random_mappings(pipe, het, 435, 150, true);
  lane_cross_check_random_mappings(pipe, hom, 436, 150, true);
}

TEST(MappingView, ViewAccessorsDescribeTheMapping) {
  const auto pipe = gen::random_uniform_pipeline(5, 331);
  mapping::EvalScratch scratch(5, 4);
  const std::vector<std::size_t> lengths{2, 3};
  scratch.set_composition(pipe, lengths);
  const std::vector<std::size_t> group_of{0, 1, 2, 1};  // processor 2 unused
  const std::vector<std::size_t> group_sizes{1, 2};
  scratch.set_grouping(group_of, group_sizes);
  const mapping::MappingView view = scratch.view();
  EXPECT_EQ(view.interval_count(), 2u);
  EXPECT_EQ(view.stage_count(), 5u);
  EXPECT_EQ(view.first_stage(0), 0u);
  EXPECT_EQ(view.last_stage(0), 1u);
  EXPECT_EQ(view.first_stage(1), 2u);
  EXPECT_EQ(view.last_stage(1), 4u);
  EXPECT_EQ(view.processors_used(), 3u);
  ASSERT_EQ(view.group(0).size(), 1u);
  EXPECT_EQ(view.group(0)[0], 0u);
  ASSERT_EQ(view.group(1).size(), 2u);
  EXPECT_EQ(view.group(1)[0], 1u);
  EXPECT_EQ(view.group(1)[1], 3u);
}

TEST(MappingViewAllocation, SteadyStateInnerLoopIsAllocationFree) {
  const auto pipe = gen::random_uniform_pipeline(6, 341);
  gen::PlatformGenOptions options;
  options.processors = 7;
  const auto plat = gen::random_fully_heterogeneous(options, 342);
  const std::size_t n = 6;
  const std::size_t m = 7;
  const std::size_t p = 3;

  const util::GroupingIndexer groupings(m, p);
  const util::CompositionIndexer compositions(n, p);
  std::vector<std::size_t> lengths;
  std::vector<std::size_t> group_of(m);
  std::vector<std::size_t> group_sizes(p);
  mapping::EvalScratch scratch(n, m);

  // Warm up: first contact sizes every buffer to its steady-state capacity.
  std::uint64_t composition_rank = 0;
  compositions.unrank(composition_rank, lengths);
  scratch.set_composition(pipe, lengths);
  groupings.unrank(0, group_of, group_sizes);
  scratch.set_grouping(group_of, group_sizes);
  (void)mapping::evaluate_view(plat, scratch.view(), scratch.cache());

  double sink = 0.0;
  const std::size_t before = allocation_count();
  for (int i = 0; i < 2000; ++i) {
    scratch.set_grouping(group_of, group_sizes);
    const mapping::ViewEval eval =
        mapping::evaluate_view(plat, scratch.view(), scratch.cache());
    sink += eval.latency + eval.failure_probability;
    sink += mapping::period_view(plat, scratch.view(), scratch.cache());
    if (!groupings.next(group_of, group_sizes)) {
      // Composition wrap, as in the real enumerator: still allocation-free.
      composition_rank = (composition_rank + 1) % compositions.count();
      compositions.unrank(composition_rank, lengths);
      scratch.set_composition(pipe, lengths);
      groupings.unrank(0, group_of, group_sizes);
    }
  }
  const std::size_t after = allocation_count();
  EXPECT_EQ(after, before) << "steady-state inner loop allocated " << (after - before)
                           << " times over 2000 candidates";
  EXPECT_GT(sink, 0.0);  // keep the loop observable
}

TEST(MappingViewAllocation, LaneBatchSteadyStateIsAllocationFree) {
  const auto pipe = gen::random_uniform_pipeline(6, 441);
  gen::PlatformGenOptions options;
  options.processors = 7;
  const auto plat = gen::random_fully_heterogeneous(options, 442);
  const std::size_t n = 6;
  const std::size_t m = 7;
  const std::size_t p = 3;

  const util::GroupingIndexer groupings(m, p);
  const util::CompositionIndexer compositions(n, p);
  std::vector<std::size_t> lengths;
  std::vector<std::size_t> group_of(m);
  std::vector<std::size_t> group_sizes(p);
  mapping::LaneEvalBatch<W> batch(n, m);
  std::array<mapping::ViewEval, W> evals;

  // Warm up one full cycle; the batch preallocates in its constructor, so
  // nothing below may touch the heap.
  std::uint64_t composition_rank = 0;
  compositions.unrank(composition_rank, lengths);
  batch.set_composition(pipe, lengths);
  groupings.unrank(0, group_of, group_sizes);

  double sink = 0.0;
  const std::size_t before = allocation_count();
  for (int i = 0; i < 2000; ++i) {
    batch.push_grouping(group_of, group_sizes);
    if (batch.full()) {
      batch.evaluate(plat, evals);
      for (std::size_t l = 0; l < batch.size(); ++l) {
        sink += evals[l].latency + evals[l].failure_probability;
        sink += mapping::period_view(plat, batch.view(l), batch.cache(l));
      }
      batch.clear();
    }
    if (!groupings.next(group_of, group_sizes)) {
      // Composition wrap mid-batch, as in the real enumerator: the pushed
      // lanes keep their copied columns and nothing allocates.
      composition_rank = (composition_rank + 1) % compositions.count();
      compositions.unrank(composition_rank, lengths);
      batch.set_composition(pipe, lengths);
      groupings.unrank(0, group_of, group_sizes);
    }
  }
  if (!batch.empty()) {
    batch.evaluate(plat, evals);
    batch.clear();
  }
  const std::size_t after = allocation_count();
  EXPECT_EQ(after, before) << "lane-batch steady state allocated " << (after - before)
                           << " times over 2000 candidates";
  EXPECT_GT(sink, 0.0);  // keep the loop observable
}

}  // namespace
}  // namespace relap
