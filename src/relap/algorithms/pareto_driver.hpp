#pragma once

/// \file pareto_driver.hpp
/// Builds latency/FP Pareto fronts out of constrained solvers.
///
/// Any solver of "minimize FP subject to latency <= L" induces a front: sweep
/// L over a grid between the latency lower bound and the latency of the most
/// replicated candidate, solve at each threshold, and keep the non-dominated
/// outcomes. This driver is how the benches compare heuristic fronts with
/// the exhaustive ground truth and how examples expose trade-off tables.

#include <functional>
#include <vector>

#include "relap/algorithms/exhaustive.hpp"
#include "relap/algorithms/heuristics.hpp"
#include "relap/algorithms/types.hpp"

namespace relap::exec {
class ThreadPool;
}  // namespace relap::exec

namespace relap::algorithms {

/// A constrained solver: latency threshold -> best-effort solution.
/// The sweep evaluates thresholds concurrently, so the solver must be safe
/// to call from multiple threads at once (every solver in this library is:
/// they share only the immutable pipeline/platform).
using MinFpSolver = std::function<Result(double max_latency)>;

/// Sweeps `thresholds` latency thresholds (log-spaced between the bounds)
/// and merges the solver's answers into a front. Infeasible thresholds are
/// skipped.
///
/// Thresholds are solved concurrently on `pool` (null uses
/// `exec::ThreadPool::shared()`) and the front is assembled from the
/// per-threshold results in index order, so the outcome is identical at any
/// thread count. `cancel` (util/cancel.hpp), if given, is polled per
/// threshold; remaining thresholds are skipped once it trips. Callers that
/// need an all-or-nothing answer must re-check the token after the sweep
/// (the broker does) — a partially swept front is otherwise returned.
[[nodiscard]] std::vector<ParetoSolution> sweep_latency_thresholds(
    const pipeline::Pipeline& pipeline, const platform::Platform& platform,
    const MinFpSolver& solver, std::size_t thresholds = 24, exec::ThreadPool* pool = nullptr,
    const util::CancelToken* cancel = nullptr);

/// The heuristic front: `heuristic_min_fp_for_latency` swept over
/// `thresholds` thresholds, plus the most reliable mapping as the front's
/// high end.
///
/// Generate-once contract: no candidate generator reads a threshold, so the
/// candidate list is collected once per call (collect_heuristic_candidates,
/// configured by `heuristic`) and shared read-only by every threshold
/// worker, which only scans it and polishes its pick with local search
/// (best_min_fp_for_latency). The front equals the per-threshold
/// `sweep_latency_thresholds(..., heuristic_min_fp_for_latency)` point for
/// point, at a fraction of the cost. The generators and the sweep share
/// `heuristic.pool` and `heuristic.cancel`. A cancelled collection yields an
/// empty front; as for the sweep, callers that need an all-or-nothing answer
/// re-check the token. `work`, if given, receives the solve's work counters.
[[nodiscard]] std::vector<ParetoSolution> heuristic_pareto_front(
    const pipeline::Pipeline& pipeline, const platform::Platform& platform,
    std::size_t thresholds = 24, const HeuristicOptions& heuristic = {},
    HeuristicWork* work = nullptr);

/// Area-style front comparison: mean over `reference`'s points of the FP
/// ratio achieved/reference at the reference point's latency (>= 1; 1 means
/// `achieved` matches the reference everywhere). Points of `reference` whose
/// latency no achieved point can meet contribute `miss_penalty`.
[[nodiscard]] double front_fp_ratio(const std::vector<ParetoSolution>& achieved,
                                    const std::vector<ParetoSolution>& reference,
                                    double miss_penalty = 10.0);

}  // namespace relap::algorithms
