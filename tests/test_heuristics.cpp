// Tests for algorithms/heuristics.hpp: every generator emits valid mappings,
// the suite solves the paper's Figure 5 instance optimally, and across random
// instances of the open/NP-hard classes the heuristic answer stays within a
// bounded factor of the exhaustive optimum (and never below it). The beam's
// emitted sequence is pinned by known-answer hashes, and its heap traffic by
// a counting allocator that replaces the global allocator in this binary.

#include "relap/algorithms/heuristics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "relap/algorithms/exhaustive.hpp"
#include "relap/exec/thread_pool.hpp"
#include "relap/gen/paper_instances.hpp"
#include "relap/gen/pipelines.hpp"
#include "relap/gen/platforms.hpp"
#include "relap/platform/builders.hpp"
#include "relap/mapping/validate.hpp"
#include "relap/util/hash.hpp"
#include "relap/util/stats.hpp"

namespace {

std::atomic<std::size_t> g_allocation_count{0};

void* counted_allocate(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_allocate_nothrow(std::size_t size) noexcept {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
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
// binary routes through the counter (read by BeamAllocations below).
void* operator new(std::size_t size) { return counted_allocate(size); }
void* operator new[](std::size_t size) { return counted_allocate(size); }
void* operator new(std::size_t size, std::align_val_t alignment) {
  return counted_allocate_aligned(size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return counted_allocate_aligned(size, static_cast<std::size_t>(alignment));
}
// The nothrow forms too: std::stable_sort takes its buffer through them.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_allocate_nothrow(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_allocate_nothrow(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace relap::algorithms {
namespace {

TEST(HeuristicGenerators, AllEmitValidEvaluatedCandidates) {
  const auto pipe = gen::random_uniform_pipeline(4, 21);
  gen::PlatformGenOptions options;
  options.processors = 6;
  const auto plat = gen::random_comm_hom_het_failures(options, 22);
  const HeuristicOptions h;

  std::size_t count = 0;
  const CandidateSink check = [&](Solution s) {
    ++count;
    ASSERT_TRUE(mapping::validate(pipe, plat, s.mapping).has_value());
    EXPECT_TRUE(util::approx_equal(s.latency, mapping::latency(pipe, plat, s.mapping)));
    EXPECT_TRUE(util::approx_equal(s.failure_probability,
                                   mapping::failure_probability(plat, s.mapping)));
  };
  enumerate_single_interval_candidates(pipe, plat, h, check);
  const std::size_t after_single = count;
  enumerate_greedy_split_candidates(pipe, plat, h, check);
  const std::size_t after_greedy = count;
  enumerate_beam_candidates(pipe, plat, h, check);
  EXPECT_GT(after_single, 0u);
  EXPECT_GT(after_greedy, after_single);
  EXPECT_GT(count, after_greedy);
}

TEST(HeuristicSuite, SolvesFig5Optimally) {
  // The suite must discover the two-interval replication trick the paper
  // uses to motivate the open problem.
  const auto pipe = gen::fig5_pipeline();
  const auto plat = gen::fig5_platform();
  const Result r =
      heuristic_min_fp_for_latency(pipe, plat, gen::fig5_latency_threshold());
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(within_cap(r->latency, gen::fig5_latency_threshold()));
  EXPECT_LT(r->failure_probability, 0.2);  // the paper's two-interval bound
  EXPECT_EQ(r->mapping.interval_count(), 2u);
}

TEST(HeuristicSuite, Fig3SplitDiscovered) {
  // On the Figure 3/4 platform the latency-7 split must be found (greedy
  // split descends to it).
  const auto pipe = gen::fig3_pipeline();
  const auto plat = gen::fig4_platform();
  const Result r = heuristic_min_fp_for_latency(pipe, plat, 7.0);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(util::approx_equal(r->latency, 7.0));
}

TEST(HeuristicSuite, InfeasibleThresholdReported) {
  const auto pipe = gen::fig3_pipeline();
  const auto plat = gen::fig4_platform();
  const Result r = heuristic_min_fp_for_latency(pipe, plat, 1.0);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, "infeasible");
}

struct GapCase {
  std::uint64_t seed;
  bool fully_het;
};

class HeuristicGap : public ::testing::TestWithParam<GapCase> {};

TEST_P(HeuristicGap, WithinFactorOfExhaustiveAndNeverBetter) {
  const auto& param = GetParam();
  const auto pipe = gen::random_uniform_pipeline(3, param.seed);
  gen::PlatformGenOptions options;
  options.processors = 4;
  const auto plat = param.fully_het
                        ? gen::random_fully_heterogeneous(options, param.seed * 307)
                        : gen::random_comm_hom_het_failures(options, param.seed * 307);

  const auto oracle = exhaustive_pareto(pipe, plat);
  ASSERT_TRUE(oracle.has_value());

  // Probe three thresholds along the oracle front.
  for (std::size_t pick = 0; pick < oracle->front.size();
       pick += std::max<std::size_t>(1, oracle->front.size() / 3)) {
    const auto& point = oracle->front[pick];
    const Result h = heuristic_min_fp_for_latency(pipe, plat, point.latency);
    ASSERT_TRUE(h.has_value()) << "threshold " << point.latency;
    EXPECT_TRUE(within_cap(h->latency, point.latency));
    // Never better than the exhaustive optimum (sanity: oracle is exact)...
    EXPECT_GE(h->failure_probability, point.failure_probability - 1e-9);
    // ... and on these tiny instances the suite should be near-exact: allow
    // a 1.5x FP ratio slack before declaring regression.
    EXPECT_LE(h->failure_probability, std::max(point.failure_probability * 1.5, 1e-12))
        << "L=" << point.latency << " heuristic=" << h->failure_probability
        << " oracle=" << point.failure_probability;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, HeuristicGap,
    ::testing::Values(GapCase{1, false}, GapCase{2, false}, GapCase{3, false},
                      GapCase{4, false}, GapCase{5, false}, GapCase{1, true}, GapCase{2, true},
                      GapCase{3, true}, GapCase{4, true}, GapCase{5, true}));

class HeuristicMinLatencyGap : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HeuristicMinLatencyGap, MinLatencyDirectionFeasibleAndTight) {
  const std::uint64_t seed = GetParam();
  const auto pipe = gen::random_uniform_pipeline(3, seed);
  gen::PlatformGenOptions options;
  options.processors = 4;
  const auto plat = gen::random_comm_hom_het_failures(options, seed * 509);
  const auto oracle = exhaustive_pareto(pipe, plat);
  ASSERT_TRUE(oracle.has_value());

  const auto& mid = oracle->front[oracle->front.size() / 2];
  const Result h = heuristic_min_latency_for_fp(pipe, plat, mid.failure_probability);
  ASSERT_TRUE(h.has_value());
  EXPECT_TRUE(within_cap(h->failure_probability, mid.failure_probability));
  EXPECT_GE(h->latency, mid.latency - 1e-9);
  EXPECT_LE(h->latency, mid.latency * 1.5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeuristicMinLatencyGap, ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(HeuristicSuite, BeamSkipsPlatformsBeyondMaskWidth) {
  // > 64 processors: the beam generator must bow out silently (no emission),
  // the other generators still cover the instance.
  const auto pipe = gen::random_uniform_pipeline(2, 1);
  std::vector<double> speeds(70, 1.0);
  const auto plat = platform::make_comm_homogeneous(std::move(speeds), 1.0, 0.3);
  std::size_t beam_count = 0;
  enumerate_beam_candidates(pipe, plat, HeuristicOptions{},
                            [&](Solution) { ++beam_count; });
  EXPECT_EQ(beam_count, 0u);
  const Result r = heuristic_min_fp_for_latency(pipe, plat, 1e9);
  ASSERT_TRUE(r.has_value());
}

/// FNV-1a over the beam's emitted sequence: count, then per candidate the
/// latency/FP bit patterns, interval boundaries and replica groups.
std::uint64_t beam_sequence_hash(const pipeline::Pipeline& pipe, const platform::Platform& plat,
                                 const HeuristicOptions& options) {
  util::Fnv1a hash;
  std::uint64_t count = 0;
  enumerate_beam_candidates(pipe, plat, options, [&](Solution s) {
    ++count;
    hash.add(s.latency);
    hash.add(s.failure_probability);
    hash.add(static_cast<std::uint64_t>(s.mapping.interval_count()));
    for (const mapping::IntervalAssignment& a : s.mapping.intervals()) {
      hash.add(static_cast<std::uint64_t>(a.stages.first));
      hash.add(static_cast<std::uint64_t>(a.stages.last));
      hash.add(static_cast<std::uint64_t>(a.processors.size()));
      for (const platform::ProcessorId u : a.processors) hash.add(static_cast<std::uint64_t>(u));
    }
  });
  hash.add(count);
  return hash.value();
}

struct BeamPinCase {
  std::size_t stages;
  std::size_t processors;
  std::uint64_t seed;
  bool fully_het;
  std::size_t beam_width;
  std::size_t max_replication;
  std::uint64_t expected;

  friend void PrintTo(const BeamPinCase& c, std::ostream* os) {
    *os << c.stages << "x" << c.processors << (c.fully_het ? " fully-het" : " comm-het")
        << " seed " << c.seed << " width " << c.beam_width << " rep " << c.max_replication;
  }
};

class BeamKnownAnswer : public ::testing::TestWithParam<BeamPinCase> {};

TEST_P(BeamKnownAnswer, EmittedSequenceMatchesPin) {
  const BeamPinCase& c = GetParam();
  const auto pipe = gen::random_uniform_pipeline(c.stages, c.seed);
  gen::PlatformGenOptions gen_options;
  gen_options.processors = c.processors;
  const auto plat = c.fully_het ? gen::random_fully_heterogeneous(gen_options, c.seed + 1)
                                : gen::random_comm_hom_het_failures(gen_options, c.seed + 1);
  HeuristicOptions options;
  options.beam_width = c.beam_width;
  options.max_replication = c.max_replication;
  EXPECT_EQ(beam_sequence_hash(pipe, plat, options), c.expected)
      << std::hex << "0x" << beam_sequence_hash(pipe, plat, options);
}

// Known answers: any change to the beam's emission order, pruning or
// floating-point evaluation order shows up here.
INSTANTIATE_TEST_SUITE_P(
    Instances, BeamKnownAnswer,
    ::testing::Values(BeamPinCase{6, 8, 11, true, 64, 16, 0xbdb4c57ffd6d52aaULL},
                      BeamPinCase{6, 8, 12, false, 64, 16, 0xb2c9495da1ba6e17ULL},
                      BeamPinCase{5, 6, 13, true, 64, 16, 0x8d472ffcdb8f2fb0ULL},
                      BeamPinCase{4, 5, 14, false, 64, 16, 0x9792dd9f6108b536ULL},
                      BeamPinCase{7, 10, 15, true, 64, 16, 0xadc336c8f515736eULL},
                      BeamPinCase{3, 4, 16, false, 64, 16, 0xeb1f6951473a63f8ULL},
                      BeamPinCase{6, 8, 17, true, 5, 3, 0x5a0e6ee86fa6cb55ULL},
                      BeamPinCase{8, 12, 18, false, 16, 4, 0x7efc86ce9c068657ULL},
                      BeamPinCase{4, 1, 19, true, 64, 16, 0xf484372ee7995d00ULL},
                      BeamPinCase{1, 3, 20, false, 64, 16, 0x779c09fc17add56fULL}));

TEST(BeamAllocations, SixByEightPassIsBounded) {
  // One 6x8 fully heterogeneous beam pass on a one-thread pool. Copying
  // every state's interval vector costs ~46k allocations here; parent-index
  // nodes with one memoized group table per pass cost ~1.7k.
  const auto pipe = gen::random_uniform_pipeline(6, 31);
  gen::PlatformGenOptions gen_options;
  gen_options.processors = 8;
  const auto plat = gen::random_fully_heterogeneous(gen_options, 32);
  exec::ThreadPool serial(1);
  HeuristicOptions options;
  options.pool = &serial;
  std::size_t emitted = 0;
  const CandidateSink sink = [&](Solution) { ++emitted; };

  const std::size_t before = g_allocation_count.load(std::memory_order_relaxed);
  enumerate_beam_candidates(pipe, plat, options, sink);
  const std::size_t allocations = g_allocation_count.load(std::memory_order_relaxed) - before;
  ASSERT_EQ(emitted, 64u);
  EXPECT_LE(allocations, 3000u);
}

}  // namespace
}  // namespace relap::algorithms
