// Determinism regression tests for the parallel solver hot paths: one seed
// must yield bit-identical results at 1, 2 and 8 threads, on paper-scale
// instances. These tests pin the exec subsystem's core contract — fixed
// chunk grids, per-chunk split RNG streams, index-order reductions.

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "relap/algorithms/exhaustive.hpp"
#include "relap/algorithms/heuristics.hpp"
#include "relap/algorithms/pareto_driver.hpp"
#include "relap/exec/thread_pool.hpp"
#include "relap/gen/paper_instances.hpp"
#include "relap/gen/pipelines.hpp"
#include "relap/gen/platforms.hpp"
#include "relap/mapping/latency.hpp"
#include "relap/mapping/reliability.hpp"
#include "relap/service/broker.hpp"
#include "relap/sim/monte_carlo.hpp"
#include "relap/util/enumeration.hpp"
#include "relap/util/simd.hpp"

namespace relap {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

void expect_same_estimate(const sim::FailureRateEstimate& a, const sim::FailureRateEstimate& b,
                          std::size_t threads) {
  EXPECT_EQ(a.empirical, b.empirical) << "threads=" << threads;
  EXPECT_EQ(a.analytic, b.analytic) << "threads=" << threads;
  EXPECT_EQ(a.ci95.low, b.ci95.low) << "threads=" << threads;
  EXPECT_EQ(a.ci95.high, b.ci95.high) << "threads=" << threads;
  EXPECT_EQ(a.trials, b.trials) << "threads=" << threads;
}

TEST(Determinism, FailureRateEstimateAcrossThreadCounts) {
  const auto plat = gen::fig5_platform();
  const auto mapping = gen::fig5_two_interval_mapping();

  exec::ThreadPool serial(1);
  sim::MonteCarloOptions options;
  options.trials = 50'000;
  options.pool = &serial;
  const sim::FailureRateEstimate reference = sim::estimate_failure_rate(plat, mapping, options);

  for (const std::size_t threads : kThreadCounts) {
    exec::ThreadPool pool(threads);
    options.pool = &pool;
    expect_same_estimate(sim::estimate_failure_rate(plat, mapping, options), reference, threads);
  }
}

TEST(Determinism, EngineTrialStatsAcrossThreadCounts) {
  const auto pipe = gen::fig5_pipeline();
  const auto plat = gen::fig5_platform();
  const auto mapping = gen::fig5_two_interval_mapping();

  exec::ThreadPool serial(1);
  sim::TrialOptions options;
  options.trials = 600;
  options.pool = &serial;
  const sim::TrialStats reference = sim::run_trials(pipe, plat, mapping, options);

  for (const std::size_t threads : kThreadCounts) {
    exec::ThreadPool pool(threads);
    options.pool = &pool;
    const sim::TrialStats stats = sim::run_trials(pipe, plat, mapping, options);
    expect_same_estimate(stats.failure, reference.failure, threads);
    EXPECT_EQ(stats.failure_free_latency, reference.failure_free_latency) << "threads=" << threads;
    EXPECT_EQ(stats.latency.count(), reference.latency.count()) << "threads=" << threads;
    EXPECT_EQ(stats.latency.mean(), reference.latency.mean()) << "threads=" << threads;
    EXPECT_EQ(stats.latency.variance(), reference.latency.variance()) << "threads=" << threads;
    EXPECT_EQ(stats.latency.min(), reference.latency.min()) << "threads=" << threads;
    EXPECT_EQ(stats.latency.max(), reference.latency.max()) << "threads=" << threads;
  }
}

void expect_same_front(const std::vector<algorithms::ParetoSolution>& a,
                       const std::vector<algorithms::ParetoSolution>& b, std::size_t threads) {
  ASSERT_EQ(a.size(), b.size()) << "threads=" << threads;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].latency, b[i].latency) << "threads=" << threads << " point " << i;
    EXPECT_EQ(a[i].failure_probability, b[i].failure_probability)
        << "threads=" << threads << " point " << i;
    EXPECT_EQ(a[i].mapping, b[i].mapping) << "threads=" << threads << " point " << i;
  }
}

TEST(Determinism, ExhaustiveParetoAcrossThreadCounts) {
  // Figure 5 at paper scale: 2 stages on 11 processors — ~175k candidates.
  const auto pipe = gen::fig5_pipeline();
  const auto plat = gen::fig5_platform();

  exec::ThreadPool serial(1);
  algorithms::ExhaustiveOptions options;
  options.pool = &serial;
  const auto reference = algorithms::exhaustive_pareto(pipe, plat, options);
  ASSERT_TRUE(reference.has_value());

  for (const std::size_t threads : kThreadCounts) {
    exec::ThreadPool pool(threads);
    options.pool = &pool;
    const auto outcome = algorithms::exhaustive_pareto(pipe, plat, options);
    ASSERT_TRUE(outcome.has_value()) << "threads=" << threads;
    EXPECT_EQ(outcome->evaluations, reference->evaluations) << "threads=" << threads;
    expect_same_front(outcome->front, reference->front, threads);
  }
}

TEST(Determinism, ExhaustiveParetoFewCompositionsAcrossThreadCounts) {
  // 2 stages on 8 processors: only 2 compositions, so the old per-composition
  // split degenerated to two giant tasks. The flat rank/unrank chunking must
  // stay bit-identical while cutting this space into uniform chunks.
  const auto pipe = gen::random_uniform_pipeline(2, 101);
  gen::PlatformGenOptions gen_options;
  gen_options.processors = 8;
  const auto plat = gen::random_comm_hom_het_failures(gen_options, 102);

  exec::ThreadPool serial(1);
  algorithms::ExhaustiveOptions options;
  options.pool = &serial;
  const auto reference = algorithms::exhaustive_pareto(pipe, plat, options);
  ASSERT_TRUE(reference.has_value());

  for (const std::size_t threads : kThreadCounts) {
    exec::ThreadPool pool(threads);
    options.pool = &pool;
    const auto outcome = algorithms::exhaustive_pareto(pipe, plat, options);
    ASSERT_TRUE(outcome.has_value()) << "threads=" << threads;
    EXPECT_EQ(outcome->evaluations, reference->evaluations) << "threads=" << threads;
    expect_same_front(outcome->front, reference->front, threads);
  }
}

TEST(Determinism, GeneralEnumerationAcrossThreadCounts) {
  const auto pipe = gen::random_uniform_pipeline(5, 111);
  gen::PlatformGenOptions gen_options;
  gen_options.processors = 5;
  const auto plat = gen::random_fully_heterogeneous(gen_options, 112);

  exec::ThreadPool serial(1);
  const auto reference =
      algorithms::exhaustive_general_min_latency(pipe, plat, 20'000'000, &serial);
  ASSERT_TRUE(reference.has_value());

  for (const std::size_t threads : kThreadCounts) {
    exec::ThreadPool pool(threads);
    const auto outcome =
        algorithms::exhaustive_general_min_latency(pipe, plat, 20'000'000, &pool);
    ASSERT_TRUE(outcome.has_value()) << "threads=" << threads;
    EXPECT_EQ(outcome->mapping, reference->mapping) << "threads=" << threads;
    EXPECT_EQ(outcome->latency, reference->latency) << "threads=" << threads;
  }
}

TEST(Determinism, OneToOneEnumerationAcrossThreadCounts) {
  // 4 stages on 8 processors: 1680 injections — more than one 1024-candidate
  // chunk, so the nonzero-rank unrank_injection seek at chunk boundaries is
  // actually exercised (840 at m=7 would collapse to a single chunk).
  const auto pipe = gen::random_uniform_pipeline(4, 121);
  gen::PlatformGenOptions gen_options;
  gen_options.processors = 8;
  const auto plat = gen::random_fully_heterogeneous(gen_options, 122);

  exec::ThreadPool serial(1);
  const auto reference =
      algorithms::exhaustive_one_to_one_min_latency(pipe, plat, 20'000'000, &serial);
  ASSERT_TRUE(reference.has_value());

  for (const std::size_t threads : kThreadCounts) {
    exec::ThreadPool pool(threads);
    const auto outcome =
        algorithms::exhaustive_one_to_one_min_latency(pipe, plat, 20'000'000, &pool);
    ASSERT_TRUE(outcome.has_value()) << "threads=" << threads;
    EXPECT_EQ(outcome->mapping, reference->mapping) << "threads=" << threads;
    EXPECT_EQ(outcome->latency, reference->latency) << "threads=" << threads;
  }
}

TEST(Determinism, HeuristicParetoFrontAcrossThreadCounts) {
  const auto pipe = gen::random_uniform_pipeline(6, 77);
  gen::PlatformGenOptions gen_options;
  gen_options.processors = 8;
  const auto plat = gen::random_comm_hom_het_failures(gen_options, 78);

  exec::ThreadPool serial(1);
  algorithms::HeuristicOptions options;
  options.pool = &serial;
  const auto reference = algorithms::heuristic_pareto_front(pipe, plat, 24, options);

  for (const std::size_t threads : kThreadCounts) {
    exec::ThreadPool pool(threads);
    options.pool = &pool;
    expect_same_front(algorithms::heuristic_pareto_front(pipe, plat, 24, options), reference,
                      threads);
  }
}

TEST(Determinism, HeuristicFrontEqualsPerThresholdSweepAcrossThreadCounts) {
  // The generate-once front (one candidate list shared by every threshold
  // worker) must equal the sweep that regenerates the candidates per
  // threshold, point for point and mapping for mapping.
  for (const bool fully_het : {true, false}) {
    const auto pipe = gen::random_uniform_pipeline(6, 171);
    gen::PlatformGenOptions gen_options;
    gen_options.processors = 8;
    const auto plat = fully_het ? gen::random_fully_heterogeneous(gen_options, 172)
                                : gen::random_comm_hom_het_failures(gen_options, 172);
    for (const std::size_t threads : kThreadCounts) {
      exec::ThreadPool pool(threads);
      algorithms::HeuristicOptions options;
      options.pool = &pool;
      const auto per_threshold = algorithms::sweep_latency_thresholds(
          pipe, plat,
          [&](double max_latency) {
            return algorithms::heuristic_min_fp_for_latency(pipe, plat, max_latency);
          },
          12, &pool);
      ASSERT_FALSE(per_threshold.empty());
      expect_same_front(algorithms::heuristic_pareto_front(pipe, plat, 12, options),
                        per_threshold, threads);
    }
  }
}

// --- Lane kernels against the scalar oracle: every solver that evaluates
// candidates in SIMD lane batches must report exactly what the scalar
// evaluators (mapping/latency.hpp, mapping/reliability.hpp) give for the
// mapping it returns. The forced-scalar and AVX2 builds run these too, so
// they pin each ISA's lane ops. ----------------------------------------------

void expect_scalar_objectives(const pipeline::Pipeline& pipe, const platform::Platform& plat,
                              double latency, double failure_probability,
                              const mapping::IntervalMapping& m, std::size_t i) {
  EXPECT_EQ(latency, mapping::latency(pipe, plat, m)) << "point " << i;
  EXPECT_EQ(failure_probability, mapping::failure_probability(plat, m)) << "point " << i;
}

TEST(ScalarOracle, ExhaustiveParetoPointsMatchScalarEvaluators) {
  gen::PlatformGenOptions gen_options;
  gen_options.processors = 6;
  const auto het_pipe = gen::random_uniform_pipeline(3, 131);
  const auto het = gen::random_fully_heterogeneous(gen_options, 132);
  gen_options.processors = 5;
  const auto hom_pipe = gen::random_uniform_pipeline(4, 133);
  const auto hom = gen::random_comm_hom_het_failures(gen_options, 134);
  ASSERT_FALSE(het.has_homogeneous_links());  // eq-(2) lane kernel
  ASSERT_TRUE(hom.has_homogeneous_links());   // eq-(1) lane kernel

  for (const auto& [pipe, plat] : {std::pair{&het_pipe, &het}, std::pair{&hom_pipe, &hom}}) {
    const auto outcome = algorithms::exhaustive_pareto(*pipe, *plat);
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->evaluations,
              algorithms::interval_mapping_count(pipe->stage_count(), plat->processor_count()));
    ASSERT_GT(outcome->front.size(), 1u);
    for (std::size_t i = 0; i < outcome->front.size(); ++i) {
      const algorithms::ParetoSolution& point = outcome->front[i];
      expect_scalar_objectives(*pipe, *plat, point.latency, point.failure_probability,
                               point.mapping, i);
    }
  }
}

/// The unreplicated enumerators' scalar oracle: walks `count` ranks in
/// order from `word` (rank 0; `advance` steps it to the next rank) with the
/// scalar span latency and keeps the first strict improvement, so ties go
/// to the lowest rank.
template <typename Advance>
algorithms::GeneralSolution scalar_rank_scan(const pipeline::Pipeline& pipe,
                                             const platform::Platform& plat,
                                             std::vector<platform::ProcessorId> word,
                                             std::uint64_t count, const Advance& advance) {
  std::vector<platform::ProcessorId> best_word;
  double best = std::numeric_limits<double>::infinity();
  for (std::uint64_t rank = 0; rank < count; ++rank) {
    if (rank > 0) advance(word);
    const double latency = mapping::latency(pipe, plat, std::span<const platform::ProcessorId>(word));
    if (latency < best) {
      best = latency;
      best_word = word;
    }
  }
  return algorithms::GeneralSolution{mapping::GeneralMapping(std::move(best_word)), best};
}

void expect_scalar_rank_scan(const pipeline::Pipeline& pipe, const platform::Platform& plat,
                             const algorithms::GeneralResult& outcome,
                             const algorithms::GeneralSolution& oracle) {
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->latency, mapping::latency(pipe, plat, outcome->mapping));
  EXPECT_EQ(outcome->latency, oracle.latency);
  EXPECT_EQ(outcome->mapping, oracle.mapping);
}

TEST(ScalarOracle, GeneralEnumerationEqualsScalarRankScan) {
  // 5^5 = 3125 assignments: several 1024-rank chunks and a partial final
  // lane batch. On the fully homogeneous platform many assignments tie
  // exactly, which pins the lowest-rank tie-breaking.
  const auto pipe = gen::random_uniform_pipeline(5, 141);
  gen::PlatformGenOptions gen_options;
  gen_options.processors = 5;
  for (const bool fully_het : {true, false}) {
    SCOPED_TRACE(fully_het ? "fully heterogeneous" : "fully homogeneous");
    const auto plat = fully_het ? gen::random_fully_heterogeneous(gen_options, 142)
                                : gen::random_fully_homogeneous(gen_options, 142);
    const util::AssignmentIndexer indexer(pipe.stage_count(), plat.processor_count());
    std::vector<platform::ProcessorId> word(pipe.stage_count());
    indexer.unrank(0, word);
    const algorithms::GeneralSolution oracle = scalar_rank_scan(
        pipe, plat, word, indexer.count(), [&](auto& w) { indexer.next(w); });
    expect_scalar_rank_scan(pipe, plat, algorithms::exhaustive_general_min_latency(pipe, plat),
                            oracle);
  }
}

TEST(ScalarOracle, OneToOneEnumerationEqualsScalarRankScan) {
  // 4 stages on 8 processors (1680 injections, two chunks) and 3 on 7
  // (210, a partial final lane batch).
  for (const auto& [stages, processors] : {std::pair{4, 8}, std::pair{3, 7}}) {
    SCOPED_TRACE(std::to_string(stages) + "x" + std::to_string(processors));
    const auto pipe = gen::random_uniform_pipeline(stages, 151);
    gen::PlatformGenOptions gen_options;
    gen_options.processors = processors;
    const auto plat = gen::random_fully_heterogeneous(gen_options, 152);
    const util::InjectionIndexer indexer(pipe.stage_count(), plat.processor_count());
    std::vector<platform::ProcessorId> word(pipe.stage_count());
    std::vector<bool> used;
    indexer.unrank(0, word, used);
    const algorithms::GeneralSolution oracle = scalar_rank_scan(
        pipe, plat, word, indexer.count(), [&](auto& w) { indexer.next(w, used); });
    expect_scalar_rank_scan(pipe, plat,
                            algorithms::exhaustive_one_to_one_min_latency(pipe, plat), oracle);
  }
}

TEST(ScalarOracle, BeamCandidatesMatchScalarEvaluators) {
  const auto pipe = gen::random_uniform_pipeline(6, 161);
  gen::PlatformGenOptions gen_options;
  gen_options.processors = 8;
  for (const bool fully_het : {false, true}) {
    const auto plat = fully_het ? gen::random_fully_heterogeneous(gen_options, 162)
                                : gen::random_comm_hom_het_failures(gen_options, 162);
    std::vector<algorithms::Solution> out;
    algorithms::enumerate_beam_candidates(pipe, plat, {},
                                          [&](algorithms::Solution s) { out.push_back(std::move(s)); });
    ASSERT_GT(out.size(), util::simd::kLaneWidth);
    for (std::size_t i = 0; i < out.size(); ++i) {
      expect_scalar_objectives(pipe, plat, out[i].latency, out[i].failure_probability,
                               out[i].mapping, i);
    }
  }
}

TEST(Determinism, BrokerWarmRepliesEqualColdAcrossThreadCounts) {
  // The service contract on top of the exec contract: at every thread count,
  // a warm-cache reply is bit-identical to the cold solve that filled the
  // cache, and the cold fronts themselves agree across thread counts.
  const auto pipe = gen::random_uniform_pipeline(4, 171);
  gen::PlatformGenOptions gen_options;
  gen_options.processors = 5;
  const auto plat = gen::random_fully_heterogeneous(gen_options, 172);

  service::SolveRequest request;
  request.instance = service::InstanceData::from(pipe, plat);
  request.objective = service::Objective::ParetoFront;

  std::vector<algorithms::ParetoSolution> reference;
  for (const std::size_t threads : kThreadCounts) {
    exec::ThreadPool pool(threads);
    service::BrokerOptions broker_options;
    broker_options.pool = &pool;
    service::Broker broker(broker_options);  // fresh cache per thread count

    const auto cold = broker.solve(request);
    ASSERT_TRUE(cold.has_value()) << "threads=" << threads;
    EXPECT_FALSE(cold->cache_hit) << "threads=" << threads;
    const auto warm = broker.solve(request);
    ASSERT_TRUE(warm.has_value()) << "threads=" << threads;
    EXPECT_TRUE(warm->cache_hit) << "threads=" << threads;
    expect_same_front(warm->front, cold->front, threads);
    EXPECT_EQ(service::front_checksum(warm->front), service::front_checksum(cold->front))
        << "threads=" << threads;

    if (reference.empty()) {
      reference = cold->front;
    } else {
      expect_same_front(cold->front, reference, threads);
    }
  }
}

TEST(Determinism, BrokerWarmFromSnapshotEqualsColdAcrossThreadCounts) {
  // The persistence extension of the contract above: a broker restarted from
  // a snapshot serves replies bit-identical to the cold solve that produced
  // the snapshot — at every thread count, and regardless of which thread
  // count wrote the snapshot (entries store solved canonical fronts, which
  // are thread-count-invariant by the exec contract).
  const auto pipe = gen::random_uniform_pipeline(4, 171);
  gen::PlatformGenOptions gen_options;
  gen_options.processors = 5;
  const auto plat = gen::random_fully_heterogeneous(gen_options, 172);

  service::SolveRequest request;
  request.instance = service::InstanceData::from(pipe, plat);
  request.objective = service::Objective::ParetoFront;

  // One cold solve (single-threaded) writes the snapshot.
  const std::string path = std::string(::testing::TempDir()) + "relap_determinism_warm.snap";
  std::vector<algorithms::ParetoSolution> reference;
  {
    exec::ThreadPool pool(1);
    service::BrokerOptions broker_options;
    broker_options.pool = &pool;
    service::Broker broker(broker_options);
    const auto cold = broker.solve(request);
    ASSERT_TRUE(cold.has_value());
    reference = cold->front;
    const auto saved = broker.save_snapshot(path);
    ASSERT_TRUE(saved.has_value());
    ASSERT_EQ(saved->entries, 1U);
  }

  for (const std::size_t threads : kThreadCounts) {
    exec::ThreadPool pool(threads);
    service::BrokerOptions broker_options;
    broker_options.pool = &pool;
    service::Broker broker(broker_options);
    ASSERT_TRUE(broker.load_snapshot(path).has_value()) << "threads=" << threads;

    const auto warm = broker.solve(request);
    ASSERT_TRUE(warm.has_value()) << "threads=" << threads;
    EXPECT_TRUE(warm->cache_hit) << "threads=" << threads;
    expect_same_front(warm->front, reference, threads);
    EXPECT_EQ(service::front_checksum(warm->front), service::front_checksum(reference))
        << "threads=" << threads;
  }
  std::remove(path.c_str());
}

TEST(Determinism, BrokerConcurrentBatchedCallersEqualColdAcrossThreadCounts) {
  // The concurrent-serving extension of the contract: callers racing through
  // the shared batch queue (`solve_batched`, the path every TCP connection
  // takes) receive fronts bit-identical to a single-threaded direct cold
  // solve — at every pool size, regardless of which caller becomes the
  // queue's drainer.
  const auto pipe = gen::random_uniform_pipeline(4, 171);
  gen::PlatformGenOptions gen_options;
  gen_options.processors = 5;
  const auto plat = gen::random_fully_heterogeneous(gen_options, 172);

  service::SolveRequest request;
  request.instance = service::InstanceData::from(pipe, plat);
  request.objective = service::Objective::ParetoFront;

  std::vector<algorithms::ParetoSolution> reference;
  {
    exec::ThreadPool pool(1);
    service::BrokerOptions broker_options;
    broker_options.pool = &pool;
    service::Broker broker(broker_options);
    const auto cold = broker.solve(request);
    ASSERT_TRUE(cold.has_value());
    reference = cold->front;
  }

  for (const std::size_t threads : kThreadCounts) {
    exec::ThreadPool pool(threads);
    service::BrokerOptions broker_options;
    broker_options.pool = &pool;
    service::Broker broker(broker_options);  // fresh cache per thread count

    constexpr std::size_t kCallers = 4;
    std::vector<std::optional<util::Expected<service::Reply>>> replies(kCallers);
    {
      std::vector<std::thread> callers;
      for (std::size_t c = 0; c < kCallers; ++c) {
        callers.emplace_back([&, c] { replies[c] = broker.solve_batched(request); });
      }
      for (std::thread& caller : callers) caller.join();
    }
    for (std::size_t c = 0; c < kCallers; ++c) {
      ASSERT_TRUE(replies[c].has_value() && replies[c]->has_value())
          << "threads=" << threads << " caller=" << c;
      expect_same_front((*replies[c])->front, reference, threads);
      EXPECT_EQ(service::front_checksum((*replies[c])->front), service::front_checksum(reference))
          << "threads=" << threads << " caller=" << c;
    }
    // Identical concurrent presentations coalesce onto one actual solve.
    EXPECT_EQ(broker.metrics().solves_total.value(), 1U) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace relap
