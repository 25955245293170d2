#pragma once

/// \file pareto_rows.hpp
/// The Pareto-front table shared by the polynomial-class benches: on a
/// class where Lemma 1 makes the front the single-interval family, it times
/// `solve_pareto_front` under `Method::Auto` (the Algorithm 2 / 4 sweep over
/// k) against the forced heuristic threshold sweep, and scores the heuristic
/// front against the exact one with `front_fp_ratio` (1 = optimal).

#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "relap/algorithms/pareto_driver.hpp"
#include "relap/algorithms/solve.hpp"
#include "relap/gen/pipelines.hpp"

namespace relap::benchutil {

/// Mean seconds per `solve_pareto_front` call under `method`, repeated until
/// at least 50 ms have passed; `front` receives the last front.
inline double seconds_per_front(const pipeline::Pipeline& pipe, const platform::Platform& plat,
                                algorithms::Method method, algorithms::FrontReport& front) {
  algorithms::SolveOptions options;
  options.method = method;
  const auto start = std::chrono::steady_clock::now();
  std::size_t calls = 0;
  do {
    auto solved = algorithms::solve_pareto_front(pipe, plat, options);
    if (!solved) {
      std::printf("solve_pareto_front failed: %s\n", solved.error().to_string().c_str());
      return 0.0;
    }
    front = std::move(solved).take();
    ++calls;
  } while (seconds_since(start) < 0.05);
  return seconds_since(start) / static_cast<double>(calls);
}

/// One row per size (6 x 12, 10 x 24), each the mean over 4 seeded instances
/// from `make_platform(processors, seed)`. Single-threaded.
template <typename MakePlatform>
void print_pareto_rows(MakePlatform&& make_platform) {
  header("pareto front: Auto (Algorithm 2/4 over k, exact) vs heuristic sweep");
  std::printf("%-9s %-10s %-12s %-10s %-10s %-10s %-10s\n", "n x m", "auto ms", "heuristic ms",
              "speedup x", "exact pts", "heur pts", "fp ratio");
  constexpr std::size_t kInstances = 4;
  for (const auto& [stages, processors] : {std::pair<std::size_t, std::size_t>{6, 12}, {10, 24}}) {
    double auto_seconds = 0.0;
    double heuristic_seconds = 0.0;
    double exact_points = 0.0;
    double heuristic_points = 0.0;
    double ratio = 0.0;
    for (std::uint64_t seed = 1; seed <= kInstances; ++seed) {
      const auto pipe = gen::random_uniform_pipeline(stages, seed * 131);
      const auto plat = make_platform(processors, seed * 137);
      algorithms::FrontReport exact;
      algorithms::FrontReport swept;
      auto_seconds += seconds_per_front(pipe, plat, algorithms::Method::Auto, exact);
      heuristic_seconds += seconds_per_front(pipe, plat, algorithms::Method::Heuristic, swept);
      if (!exact.exact) std::printf("Auto front is not exact (%s)\n", exact.algorithm.c_str());
      exact_points += static_cast<double>(exact.front.size());
      heuristic_points += static_cast<double>(swept.front.size());
      ratio += algorithms::front_fp_ratio(swept.front, exact.front);
    }
    const double k = kInstances;
    std::printf("%2zu x %-4zu %-10.4f %-12.3f %-10.0f %-10.1f %-10.1f %-10.3f\n", stages,
                processors, auto_seconds / k * 1e3, heuristic_seconds / k * 1e3,
                heuristic_seconds / auto_seconds, exact_points / k, heuristic_points / k,
                ratio / k);
  }
}

}  // namespace relap::benchutil
