#include "relap/algorithms/solve.hpp"

#include "relap/algorithms/comm_hom.hpp"
#include "relap/algorithms/fully_hom.hpp"
#include "relap/algorithms/pareto_driver.hpp"
#include "relap/util/assert.hpp"
#include "relap/util/pareto.hpp"

namespace relap::algorithms {

namespace {

/// True iff a polynomial exact algorithm covers this platform class.
bool has_exact_polynomial(const platform::Platform& platform) {
  if (platform.is_fully_homogeneous()) return true;  // Algorithms 1/2 (any failures)
  return platform.has_homogeneous_links() && platform.is_failure_homogeneous();  // 3/4
}

util::Expected<SolveReport> wrap(Result r, std::string algorithm, bool exact) {
  if (!r) return r.error();
  return SolveReport{std::move(r).take(), std::move(algorithm), exact};
}

/// Shared dispatch skeleton for both optimization directions and the front.
template <typename PolyFn, typename ExhaustiveFn, typename HeuristicFn>
auto dispatch(const pipeline::Pipeline& pipeline, const platform::Platform& platform,
              const SolveOptions& options, PolyFn&& poly, ExhaustiveFn&& exhaustive,
              HeuristicFn&& heuristic) {
  const bool poly_exact = has_exact_polynomial(platform);
  switch (options.method) {
    case Method::Exact:
      if (poly_exact) return poly();
      return exhaustive();
    case Method::Exhaustive: return exhaustive();
    case Method::Heuristic: return heuristic();
    case Method::Auto: {
      if (poly_exact) return poly();
      const std::uint64_t candidates =
          interval_mapping_count(pipeline.stage_count(), platform.processor_count());
      if (candidates <= options.auto_exhaustive_budget) return exhaustive();
      return heuristic();
    }
  }
  RELAP_UNREACHABLE("invalid Method");
}

/// The exact front on a polynomial class. By Lemma 1 (Theorems 5-6) one
/// interval is optimal there, so the front is the family of k-replica single
/// intervals, k = 1..m. Each k's threshold is the FP of its k most reliable
/// processors, handed to one Algorithm 2 / 4 call; the non-dominated answers
/// are the front.
util::Expected<FrontReport> polynomial_pareto(const pipeline::Pipeline& pipeline,
                                              const platform::Platform& platform) {
  const bool fully_hom = platform.is_fully_homogeneous();
  const std::vector<platform::ProcessorId> reliable = platform.by_reliability();
  util::ParetoFront pareto;
  std::vector<Solution> solutions;
  for (std::size_t k = 1; k <= reliable.size(); ++k) {
    const auto single = mapping::IntervalMapping::single_interval(
        pipeline.stage_count(),
        std::vector<platform::ProcessorId>(reliable.begin(), reliable.begin() + k));
    const double threshold = mapping::failure_probability(platform, single);
    Result solved = fully_hom ? fully_hom_min_latency_for_fp(pipeline, platform, threshold)
                              : comm_hom_min_latency_for_fp(pipeline, platform, threshold);
    if (!solved) return solved.error();
    if (pareto.insert({solved->latency, solved->failure_probability, solutions.size()})) {
      solutions.push_back(std::move(solved).take());
    }
  }
  FrontReport report;
  report.algorithm = fully_hom ? "algorithm-2 pareto (fully homogeneous)"
                               : "algorithm-4 pareto (comm homogeneous, failure homogeneous)";
  report.exact = true;
  for (const util::ParetoPoint& point : pareto.points()) {
    Solution& solution = solutions[point.payload];
    report.front.push_back(
        {solution.latency, solution.failure_probability, std::move(solution.mapping)});
  }
  return report;
}

}  // namespace

util::Expected<SolveReport> solve_min_fp_for_latency(const pipeline::Pipeline& pipeline,
                                                     const platform::Platform& platform,
                                                     double max_latency,
                                                     const SolveOptions& options) {
  const auto poly = [&] {
    if (platform.is_fully_homogeneous()) {
      return wrap(fully_hom_min_fp_for_latency(pipeline, platform, max_latency),
                  "algorithm-1 (fully homogeneous)", true);
    }
    return wrap(comm_hom_min_fp_for_latency(pipeline, platform, max_latency),
                "algorithm-3 (comm homogeneous, failure homogeneous)", true);
  };
  const auto exhaustive = [&] {
    return wrap(exhaustive_min_fp_for_latency(pipeline, platform, max_latency, options.exhaustive),
                "exhaustive", true);
  };
  const auto heuristic = [&] {
    return wrap(heuristic_min_fp_for_latency(pipeline, platform, max_latency, options.heuristic),
                "heuristic suite + local search", false);
  };
  return dispatch(pipeline, platform, options, poly, exhaustive, heuristic);
}

util::Expected<SolveReport> solve_min_latency_for_fp(const pipeline::Pipeline& pipeline,
                                                     const platform::Platform& platform,
                                                     double max_failure_probability,
                                                     const SolveOptions& options) {
  const auto poly = [&] {
    if (platform.is_fully_homogeneous()) {
      return wrap(fully_hom_min_latency_for_fp(pipeline, platform, max_failure_probability),
                  "algorithm-2 (fully homogeneous)", true);
    }
    return wrap(comm_hom_min_latency_for_fp(pipeline, platform, max_failure_probability),
                "algorithm-4 (comm homogeneous, failure homogeneous)", true);
  };
  const auto exhaustive = [&] {
    return wrap(exhaustive_min_latency_for_fp(pipeline, platform, max_failure_probability,
                                              options.exhaustive),
                "exhaustive", true);
  };
  const auto heuristic = [&] {
    return wrap(
        heuristic_min_latency_for_fp(pipeline, platform, max_failure_probability,
                                     options.heuristic),
        "heuristic suite + local search", false);
  };
  return dispatch(pipeline, platform, options, poly, exhaustive, heuristic);
}

util::Expected<FrontReport> solve_pareto_front(const pipeline::Pipeline& pipeline,
                                               const platform::Platform& platform,
                                               const SolveOptions& options) {
  const auto exhaustive = [&]() -> util::Expected<FrontReport> {
    auto outcome = exhaustive_pareto(pipeline, platform, options.exhaustive);
    if (!outcome) return outcome.error();
    return FrontReport{std::move(outcome.value().front), "exhaustive pareto", true,
                       outcome.value().evaluations, {}};
  };
  const auto heuristic = [&]() -> util::Expected<FrontReport> {
    // The sweep's per-threshold solver is the heuristic suite, so the front
    // inherits its determinism contract (bit-identical at any thread count).
    HeuristicWork work;
    std::vector<ParetoSolution> front = heuristic_pareto_front(
        pipeline, platform, options.pareto_thresholds, options.heuristic, &work);
    // A cancelled sweep is partial: report the cancellation, not the front.
    if (util::cancel_requested(options.heuristic.cancel)) {
      return util::make_error("cancelled", "pareto sweep was cancelled before completing");
    }
    return FrontReport{std::move(front), "heuristic front sweep", false, 0, work};
  };
  return dispatch(
      pipeline, platform, options, [&] { return polynomial_pareto(pipeline, platform); },
      exhaustive, heuristic);
}

}  // namespace relap::algorithms
