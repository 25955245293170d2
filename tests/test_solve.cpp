// Tests for algorithms/solve.hpp: the facade dispatches the right algorithm
// per platform class and reports exactness honestly.

#include "relap/algorithms/solve.hpp"

#include <gtest/gtest.h>

#include "relap/gen/paper_instances.hpp"
#include "relap/gen/pipelines.hpp"
#include "relap/gen/platforms.hpp"
#include "relap/util/stats.hpp"

namespace relap::algorithms {
namespace {

TEST(Solve, FullyHomogeneousUsesAlgorithm1) {
  const auto pipe = gen::random_uniform_pipeline(3, 61);
  const auto plat = gen::random_fully_homogeneous({.processors = 4}, 62);
  const auto r = solve_min_fp_for_latency(pipe, plat, 1e9);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->exact);
  EXPECT_NE(r->algorithm.find("algorithm-1"), std::string::npos);
}

TEST(Solve, FullyHomHetFailuresStillPolynomial) {
  // The paper's remark: Algorithms 1/2 stay optimal with heterogeneous fps.
  const auto pipe = gen::random_uniform_pipeline(3, 63);
  const auto plat = gen::random_fully_hom_het_failures({.processors = 4}, 64);
  const auto r = solve_min_latency_for_fp(pipe, plat, 0.9);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->exact);
  EXPECT_NE(r->algorithm.find("algorithm-2"), std::string::npos);
}

TEST(Solve, CommHomFailureHomUsesAlgorithm3And4) {
  const auto pipe = gen::random_uniform_pipeline(3, 65);
  const auto plat = gen::random_comm_homogeneous({.processors = 4}, 66);
  const auto min_fp = solve_min_fp_for_latency(pipe, plat, 1e9);
  ASSERT_TRUE(min_fp.has_value());
  EXPECT_NE(min_fp->algorithm.find("algorithm-3"), std::string::npos);
  const auto min_lat = solve_min_latency_for_fp(pipe, plat, 0.9);
  ASSERT_TRUE(min_lat.has_value());
  EXPECT_NE(min_lat->algorithm.find("algorithm-4"), std::string::npos);
}

TEST(Solve, OpenClassSmallInstanceGoesExhaustive) {
  const auto pipe = gen::random_uniform_pipeline(3, 67);
  const auto plat = gen::random_comm_hom_het_failures({.processors = 4}, 68);
  const auto r = solve_min_fp_for_latency(pipe, plat, 1e9);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->exact);
  EXPECT_EQ(r->algorithm, "exhaustive");
}

TEST(Solve, OpenClassLargeInstanceFallsBackToHeuristics) {
  const auto pipe = gen::random_uniform_pipeline(10, 69);
  const auto plat = gen::random_comm_hom_het_failures({.processors = 12}, 70);
  const auto r = solve_min_fp_for_latency(pipe, plat, 1e9);
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->exact);
  EXPECT_NE(r->algorithm.find("heuristic"), std::string::npos);
}

TEST(Solve, MethodOverrides) {
  const auto pipe = gen::random_uniform_pipeline(3, 71);
  const auto plat = gen::random_comm_hom_het_failures({.processors = 4}, 72);

  SolveOptions heuristic_only;
  heuristic_only.method = Method::Heuristic;
  const auto h = solve_min_fp_for_latency(pipe, plat, 1e9, heuristic_only);
  ASSERT_TRUE(h.has_value());
  EXPECT_FALSE(h->exact);

  SolveOptions exhaustive_only;
  exhaustive_only.method = Method::Exhaustive;
  const auto e = solve_min_fp_for_latency(pipe, plat, 1e9, exhaustive_only);
  ASSERT_TRUE(e.has_value());
  EXPECT_TRUE(e->exact);

  // On this open-class platform, Method::Exact routes to exhaustive.
  SolveOptions exact_only;
  exact_only.method = Method::Exact;
  const auto x = solve_min_fp_for_latency(pipe, plat, 1e9, exact_only);
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(x->algorithm, "exhaustive");
}

TEST(Solve, ExhaustiveAndHeuristicAgreeOnFig5) {
  const auto pipe = gen::fig5_pipeline();
  const auto plat = gen::fig5_platform();
  SolveOptions options;
  options.exhaustive.max_evaluations = 100'000'000;
  const auto r = solve_min_fp_for_latency(pipe, plat, gen::fig5_latency_threshold(), options);
  ASSERT_TRUE(r.has_value());
  EXPECT_LT(r->solution.failure_probability, 0.2);
}

TEST(Solve, ParetoSweepHonorsHeuristicOptions) {
  // The heuristic front must run on the caller's HeuristicOptions: narrowing
  // the beam or the replication cap changes what the generators emit.
  const auto pipe = gen::random_uniform_pipeline(5, 71);
  const auto plat = gen::random_fully_heterogeneous({.processors = 6}, 72);
  SolveOptions defaults;
  defaults.method = Method::Heuristic;
  defaults.pareto_thresholds = 8;
  const auto reference = solve_pareto_front(pipe, plat, defaults);
  ASSERT_TRUE(reference.has_value());
  EXPECT_EQ(reference->work.generator_passes, 1U);
  ASSERT_GT(reference->work.candidates, 0U);

  SolveOptions narrow_beam = defaults;
  narrow_beam.heuristic.beam_width = 1;
  SolveOptions no_replication = defaults;
  no_replication.heuristic.max_replication = 1;
  for (const SolveOptions& options : {narrow_beam, no_replication}) {
    const auto narrowed = solve_pareto_front(pipe, plat, options);
    ASSERT_TRUE(narrowed.has_value());
    EXPECT_EQ(narrowed->work.generator_passes, 1U);
    EXPECT_LT(narrowed->work.candidates, reference->work.candidates);
  }
}

TEST(Solve, InfeasiblePropagates) {
  const auto pipe = gen::random_uniform_pipeline(3, 73);
  const auto plat = gen::random_fully_homogeneous({.processors = 3}, 74);
  const auto r = solve_min_fp_for_latency(pipe, plat, 1e-9);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, "infeasible");
}

}  // namespace
}  // namespace relap::algorithms
