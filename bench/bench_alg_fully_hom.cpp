// Experiment ALG1/ALG2 (paper Theorem 5): the polynomial bi-criteria
// algorithms for Fully Homogeneous platforms.
//
// Reproduction: the k(L) staircase of Algorithm 1 and the L(FP) staircase of
// Algorithm 2 on a canonical instance, agreement with exhaustive enumeration
// on small random instances, and runtime scaling in m.

#include <cstdio>

#include "bench_util.hpp"
#include "pareto_rows.hpp"
#include "relap/algorithms/exhaustive.hpp"
#include "relap/algorithms/fully_hom.hpp"
#include "relap/gen/pipelines.hpp"
#include "relap/gen/platforms.hpp"
#include "relap/platform/builders.hpp"
#include "relap/util/stats.hpp"

namespace {

using namespace relap;

void print_tables() {
  // Canonical instance: T(k) = k * delta0/b + W/s + deltan/b = 2k + 6.
  const auto pipe = pipeline::Pipeline({10.0}, {2.0, 1.0});
  const auto plat = platform::make_fully_homogeneous(10, 2.0, 1.0, 0.3);

  benchutil::header("ALG1: max replication k and optimal FP vs latency threshold L");
  benchutil::note("instance: W=10, delta=(2,1), m=10 identical (s=2, b=1, fp=0.3);");
  benchutil::note("T(k) = 2k + 6, so k(L) = floor((L-6)/2) capped at m.");
  std::printf("%-8s %-6s %-14s %-12s\n", "L", "k", "FP = 0.3^k", "latency");
  for (const double L : {7.0, 8.0, 10.0, 12.0, 16.0, 20.0, 26.0, 40.0}) {
    const auto r = algorithms::fully_hom_min_fp_for_latency(pipe, plat, L);
    if (!r) {
      std::printf("%-8.1f %-6s\n", L, "infeasible");
      continue;
    }
    std::printf("%-8.1f %-6zu %-14.8f %-12.2f\n", L, r->mapping.processors_used(),
                r->failure_probability, r->latency);
  }

  benchutil::header("ALG2: min replication k and latency vs failure threshold FP");
  std::printf("%-12s %-6s %-14s %-12s\n", "FP cap", "k", "achieved FP", "latency");
  for (const double cap : {0.5, 0.3, 0.1, 0.03, 0.01, 0.001, 1e-5}) {
    const auto r = algorithms::fully_hom_min_latency_for_fp(pipe, plat, cap);
    if (!r) {
      std::printf("%-12.5f %-6s\n", cap, "infeasible");
      continue;
    }
    std::printf("%-12.5f %-6zu %-14.8f %-12.2f\n", cap, r->mapping.processors_used(),
                r->failure_probability, r->latency);
  }

  benchutil::header("optimality audit vs exhaustive (random 3-stage/4-processor instances)");
  std::size_t audited = 0;
  std::size_t agreed = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto p = gen::random_uniform_pipeline(3, seed);
    gen::PlatformGenOptions options;
    options.processors = 4;
    const auto fh = gen::random_fully_hom_het_failures(options, seed * 37);
    const auto oracle = algorithms::exhaustive_pareto(p, fh);
    if (!oracle) continue;
    for (const auto& point : oracle->front) {
      const auto fast = algorithms::fully_hom_min_fp_for_latency(p, fh, point.latency);
      ++audited;
      if (fast && (util::approx_equal(fast->failure_probability, point.failure_probability) ||
                   fast->failure_probability < point.failure_probability)) {
        ++agreed;
      }
    }
  }
  std::printf("threshold probes audited: %zu, optimal: %zu (expect 100%%)\n", audited, agreed);

  benchutil::print_pareto_rows([](std::size_t processors, std::uint64_t seed) {
    gen::PlatformGenOptions options;
    options.processors = processors;
    return gen::random_fully_homogeneous(options, seed);
  });
}

void bm_alg1(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto pipe = gen::random_uniform_pipeline(8, 3);
  const auto plat = platform::make_fully_homogeneous(m, 2.0, 1.0, 0.3);
  const double L = 2.0 * static_cast<double>(m);  // mid-staircase threshold
  for (auto _ : state) {
    benchmark::DoNotOptimize(algorithms::fully_hom_min_fp_for_latency(pipe, plat, L));
  }
}
BENCHMARK(bm_alg1)->Arg(8)->Arg(64)->Arg(512)->Arg(4096);

void bm_alg2(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto pipe = gen::random_uniform_pipeline(8, 3);
  const auto plat = platform::make_fully_homogeneous(m, 2.0, 1.0, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algorithms::fully_hom_min_latency_for_fp(pipe, plat, 1e-9));
  }
}
BENCHMARK(bm_alg2)->Arg(8)->Arg(64)->Arg(512)->Arg(4096);

void bm_exhaustive_reference(benchmark::State& state) {
  // The exponential oracle the polynomial algorithms replace.
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto pipe = gen::random_uniform_pipeline(3, 3);
  gen::PlatformGenOptions options;
  options.processors = m;
  const auto plat = gen::random_fully_hom_het_failures(options, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algorithms::exhaustive_pareto(pipe, plat));
  }
}
BENCHMARK(bm_exhaustive_reference)->Arg(3)->Arg(4)->Arg(5)->Arg(6)->Unit(benchmark::kMillisecond);

}  // namespace

RELAP_BENCH_MAIN(print_tables)
