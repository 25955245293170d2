// Experiment ALG3/ALG4 (paper Theorem 6): the polynomial bi-criteria
// algorithms for Communication Homogeneous platforms with homogeneous
// failures.
//
// Reproduction: the staircase tables on an instance with spread-out speeds
// (each extra replica now also slows the compute term down, unlike the
// Fully Homogeneous case), the exhaustive audit, and runtime scaling.

#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "pareto_rows.hpp"
#include "relap/algorithms/comm_hom.hpp"
#include "relap/algorithms/exhaustive.hpp"
#include "relap/gen/pipelines.hpp"
#include "relap/gen/platforms.hpp"
#include "relap/platform/builders.hpp"
#include "relap/util/stats.hpp"

namespace {

using namespace relap;

platform::Platform staircase_platform() {
  // Speeds 10, 9, ..., 1: T(k) = k * 2 + 60 / s_(k) + 1.
  std::vector<double> speeds;
  for (int s = 10; s >= 1; --s) speeds.push_back(static_cast<double>(s));
  return platform::make_comm_homogeneous(std::move(speeds), 1.0, 0.3);
}

void print_tables() {
  const auto pipe = pipeline::Pipeline({60.0}, {2.0, 1.0});
  const auto plat = staircase_platform();

  benchutil::header("ALG3: replication on the k fastest processors vs latency threshold");
  benchutil::note("instance: W=60, delta=(2,1), speeds 10..1, b=1, fp=0.3;");
  benchutil::note("T(k) = 2k + 60/s_(k) + 1 where s_(k) is the k-th fastest speed.");
  std::printf("%-8s %-6s %-10s %-14s %-12s\n", "L", "k", "s_(k)", "FP = 0.3^k", "latency");
  for (const double L : {9.0, 11.7, 13.0, 15.0, 19.0, 23.0, 28.0, 40.0, 81.0}) {
    const auto r = algorithms::comm_hom_min_fp_for_latency(pipe, plat, L);
    if (!r) {
      std::printf("%-8.1f %-6s\n", L, "infeasible");
      continue;
    }
    const auto& group = r->mapping.interval(0).processors;
    double slowest = plat.speed(group.front());
    for (const auto u : group) slowest = std::min(slowest, plat.speed(u));
    std::printf("%-8.1f %-6zu %-10.0f %-14.8f %-12.2f\n", L, group.size(), slowest,
                r->failure_probability, r->latency);
  }

  benchutil::header("ALG4: min latency vs failure threshold");
  std::printf("%-12s %-6s %-14s %-12s\n", "FP cap", "k", "achieved FP", "latency");
  for (const double cap : {0.5, 0.3, 0.1, 0.03, 0.01, 0.001}) {
    const auto r = algorithms::comm_hom_min_latency_for_fp(pipe, plat, cap);
    if (!r) {
      std::printf("%-12.4f %-6s\n", cap, "infeasible");
      continue;
    }
    std::printf("%-12.4f %-6zu %-14.8f %-12.2f\n", cap, r->mapping.processors_used(),
                r->failure_probability, r->latency);
  }

  benchutil::header("optimality audit vs exhaustive (random comm-hom instances)");
  std::size_t audited = 0;
  std::size_t agreed = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto p = gen::random_uniform_pipeline(3, seed);
    gen::PlatformGenOptions options;
    options.processors = 4;
    const auto ch = gen::random_comm_homogeneous(options, seed * 41);
    const auto oracle = algorithms::exhaustive_pareto(p, ch);
    if (!oracle) continue;
    for (const auto& point : oracle->front) {
      const auto fast = algorithms::comm_hom_min_fp_for_latency(p, ch, point.latency);
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
    return gen::random_comm_homogeneous(options, seed);
  });
}

void bm_alg3(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto pipe = gen::random_uniform_pipeline(8, 3);
  gen::PlatformGenOptions options;
  options.processors = m;
  const auto plat = gen::random_comm_homogeneous(options, 7);
  const double L = 2.0 * static_cast<double>(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algorithms::comm_hom_min_fp_for_latency(pipe, plat, L));
  }
}
BENCHMARK(bm_alg3)->Arg(8)->Arg(64)->Arg(512)->Arg(4096);

void bm_alg4(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto pipe = gen::random_uniform_pipeline(8, 3);
  gen::PlatformGenOptions options;
  options.processors = m;
  const auto plat = gen::random_comm_homogeneous(options, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algorithms::comm_hom_min_latency_for_fp(pipe, plat, 1e-6));
  }
}
BENCHMARK(bm_alg4)->Arg(8)->Arg(64)->Arg(512)->Arg(4096);

}  // namespace

RELAP_BENCH_MAIN(print_tables)
