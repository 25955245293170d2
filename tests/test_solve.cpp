// Tests for algorithms/solve.hpp: the facade dispatches the right algorithm
// per platform class and reports exactness honestly.

#include "relap/algorithms/solve.hpp"

#include <gtest/gtest.h>

#include <iterator>

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

// --- Pareto fronts on the polynomial classes. --------------------------------

/// Generators of the platform classes whose exact front is the
/// single-interval family (Lemma 1, Theorems 5-6).
constexpr platform::Platform (*kPolynomialClasses[])(const gen::PlatformGenOptions&,
                                                     std::uint64_t) = {
    gen::random_fully_homogeneous,
    gen::random_fully_hom_het_failures,
    gen::random_comm_homogeneous,
};

void expect_same_points(const std::vector<ParetoSolution>& got,
                        const std::vector<ParetoSolution>& want, const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(util::approx_equal(got[i].latency, want[i].latency))
        << where << " point " << i << ": " << got[i].latency << " vs " << want[i].latency;
    EXPECT_TRUE(util::approx_equal(got[i].failure_probability, want[i].failure_probability))
        << where << " point " << i << ": " << got[i].failure_probability << " vs "
        << want[i].failure_probability;
  }
}

TEST(Solve, PolynomialParetoFrontsEqualExhaustiveOnEverySmallInstance) {
  std::size_t instances = 0;
  for (std::size_t c = 0; c < std::size(kPolynomialClasses); ++c) {
    for (std::size_t n = 1; n <= 5; ++n) {
      for (std::size_t m = 2; m <= 6; ++m) {
        for (std::uint64_t seed = 1; seed <= 2; ++seed) {
          const std::uint64_t s = seed * 1000 + c * 100 + n * 10 + m;
          const auto pipe = gen::random_uniform_pipeline(n, s);
          const auto plat = kPolynomialClasses[c]({.processors = m}, s + 7);
          const std::string where = "class " + std::to_string(c) + " n=" +
                                    std::to_string(n) + " m=" + std::to_string(m) +
                                    " seed=" + std::to_string(seed);
          const auto oracle = exhaustive_pareto(pipe, plat);
          ASSERT_TRUE(oracle.has_value()) << where;
          for (const Method method : {Method::Auto, Method::Exact}) {
            SolveOptions options;
            options.method = method;
            const auto front = solve_pareto_front(pipe, plat, options);
            ASSERT_TRUE(front.has_value()) << where;
            EXPECT_TRUE(front->exact) << where;
            expect_same_points(front->front, oracle->front, where);
          }
          ++instances;
        }
      }
    }
  }
  EXPECT_EQ(instances, 150U);
}

TEST(Solve, ParetoDispatchIsPinnedPerMethod) {
  const auto pipe = gen::random_uniform_pipeline(4, 75);
  const auto fully_hom = gen::random_fully_homogeneous({.processors = 5}, 76);
  const auto comm_hom = gen::random_comm_homogeneous({.processors = 5}, 77);
  const std::pair<const platform::Platform*, std::string> cases[] = {
      {&fully_hom, "algorithm-2 pareto (fully homogeneous)"},
      {&comm_hom, "algorithm-4 pareto (comm homogeneous, failure homogeneous)"},
  };
  for (const auto& [plat, polynomial_name] : cases) {
    for (const Method method : {Method::Auto, Method::Exact}) {
      SolveOptions options;
      options.method = method;
      const auto front = solve_pareto_front(pipe, *plat, options);
      ASSERT_TRUE(front.has_value());
      EXPECT_TRUE(front->exact);
      EXPECT_EQ(front->algorithm, polynomial_name);
      EXPECT_EQ(front->work.generator_passes, 0U);
    }
    SolveOptions heuristic;
    heuristic.method = Method::Heuristic;
    const auto swept = solve_pareto_front(pipe, *plat, heuristic);
    ASSERT_TRUE(swept.has_value());
    EXPECT_FALSE(swept->exact);
    EXPECT_EQ(swept->algorithm, "heuristic front sweep");

    SolveOptions exhaustive;
    exhaustive.method = Method::Exhaustive;
    const auto enumerated = solve_pareto_front(pipe, *plat, exhaustive);
    ASSERT_TRUE(enumerated.has_value());
    EXPECT_TRUE(enumerated->exact);
    EXPECT_EQ(enumerated->algorithm, "exhaustive pareto");
    EXPECT_GT(enumerated->evaluations, 0U);
  }
}

TEST(Solve, LargePolynomialParetoStaysExactPastTheExhaustiveBudget) {
  // 10 x 24 is far past the Auto exhaustive budget, where the open classes
  // fall back to the heuristic sweep; the polynomial classes stay exact.
  const auto pipe = gen::random_uniform_pipeline(10, 78);
  ASSERT_GT(interval_mapping_count(10, 24), SolveOptions{}.auto_exhaustive_budget);
  for (const auto make : kPolynomialClasses) {
    const auto front = solve_pareto_front(pipe, make({.processors = 24}, 79));
    ASSERT_TRUE(front.has_value());
    EXPECT_TRUE(front->exact);
    EXPECT_EQ(front->algorithm.rfind("algorithm-", 0), 0U) << front->algorithm;
    ASSERT_FALSE(front->front.empty());
    for (const ParetoSolution& point : front->front) {
      EXPECT_EQ(point.mapping.interval_count(), 1U);  // Lemma 1
    }
  }
}

TEST(Solve, CommHomHetFailuresParetoDoesNotTakeThePolynomialBranch) {
  // The open class: Lemma 1 does not hold, so the front may need several
  // intervals and Auto keeps the exhaustive-or-heuristic policy.
  const auto small_pipe = gen::random_uniform_pipeline(3, 80);
  const auto small_plat = gen::random_comm_hom_het_failures({.processors = 4}, 81);
  const auto small = solve_pareto_front(small_pipe, small_plat);
  ASSERT_TRUE(small.has_value());
  EXPECT_TRUE(small->exact);
  EXPECT_EQ(small->algorithm, "exhaustive pareto");

  const auto large_pipe = gen::random_uniform_pipeline(10, 82);
  const auto large_plat = gen::random_comm_hom_het_failures({.processors = 12}, 83);
  SolveOptions options;
  options.pareto_thresholds = 4;
  const auto large = solve_pareto_front(large_pipe, large_plat, options);
  ASSERT_TRUE(large.has_value());
  EXPECT_FALSE(large->exact);
  EXPECT_EQ(large->algorithm, "heuristic front sweep");

  // Method::Exact routes it to exhaustive enumeration, which refuses a
  // space past its evaluation budget instead of guessing.
  options.method = Method::Exact;
  options.exhaustive.max_evaluations = 1000;
  const auto refused = solve_pareto_front(large_pipe, large_plat, options);
  ASSERT_FALSE(refused.has_value());
  EXPECT_EQ(refused.error().code, "budget");
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
