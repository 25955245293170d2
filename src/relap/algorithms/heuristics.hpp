#pragma once

/// \file heuristics.hpp
/// Polynomial heuristics for the problem classes the paper proves NP-hard
/// (Fully Heterogeneous, Theorem 7) or leaves open (Communication
/// Homogeneous with heterogeneous failures, Section 4.4).
///
/// All heuristics are *candidate generators*: they emit interval mappings
/// into a sink. None of them reads a threshold, so a solve collects their
/// output once per instance (`collect_heuristic_candidates`) and the
/// constrained solvers / Pareto drivers only scan that list and polish the
/// winner with local search. This keeps one implementation per heuristic
/// serving all three uses (min FP under L, min latency under FP, Pareto
/// front).
///
/// Heuristics (each named for benches in bench_heuristics_comm_het):
///  * `single-interval` — every "k most reliable / k fastest processors with
///    speed >= floor" single-interval mapping; on identical-link platforms
///    this sweep contains the exact single-interval optimum
///    (single_interval.hpp).
///  * `greedy-split` — latency-greedy descent from the fastest single
///    processor: each round tries every cut of every interval with every
///    unused processor on either half, emits all of those splits, and keeps
///    the one with the lowest latency while it improves. The start and every
///    kept mapping also emit a replication ladder: one interval at a time
///    gains the most reliable unused processors, one by one, up to the
///    replication cap.
///  * `beam` — beam search over stage boundaries: a state is (boundary,
///    used-processor set, group of the yet-unsent last interval, partial
///    latency, log survival); transitions extend the mapping by one interval
///    with a candidate group drawn from the unused processors (k most
///    reliable / k fastest / k best speed-reliability blend, every
///    singleton). Exact for the emitted structure under Eq. (2) because the
///    pending interval's sender-side cost is added only when its successor
///    group is known. States are plain nodes holding the last interval and a
///    parent index into an already-pruned level; candidate groups live in
///    one flat table per pass, memoized per used set, and the intervals of
///    a mapping are materialized only for the surviving final states.
///
/// Processor counts are capped at 64 by the beam state's bitmask; the other
/// heuristics have no such cap.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "relap/algorithms/types.hpp"
#include "relap/util/cancel.hpp"

namespace relap::exec {
class ThreadPool;
}  // namespace relap::exec

namespace relap::algorithms {

struct HeuristicOptions {
  /// Beam width: states kept per boundary. Pruning keeps a union: the
  /// latency-cheapest half (by an admissible latency bound) plus the most
  /// reliable states of the rest, until the width is filled.
  std::size_t beam_width = 64;
  /// Replica-group sizes tried per interval go up to this cap.
  std::size_t max_replication = 16;
  /// Pool for the beam's parallel candidate evaluation; null uses
  /// `exec::ThreadPool::shared()`. Surviving final states are evaluated in
  /// fixed-size chunks (per-chunk `EvalScratch`) and fed to the sink
  /// serially in state-index order, so candidates, ties and results are
  /// identical at any thread count.
  exec::ThreadPool* pool = nullptr;
  /// Optional cooperative cancellation (util/cancel.hpp): polled between
  /// generators and per beam level. A tripped token makes the constrained
  /// entry points return a "cancelled" error and leaves a collection
  /// partial; a completed result is never altered.
  const util::CancelToken* cancel = nullptr;
};

/// Work counters of a heuristic solve, for observability only: they never
/// influence an answer and are not persisted with one.
struct HeuristicWork {
  std::uint64_t candidates = 0;           ///< candidates the generators emitted
  std::uint64_t generator_passes = 0;     ///< collections of all three generators
  std::uint64_t local_search_rounds = 0;  ///< improving local-search rounds, summed
};

/// Receives each candidate mapping a heuristic generates.
using CandidateSink = std::function<void(Solution)>;

void enumerate_single_interval_candidates(const pipeline::Pipeline& pipeline,
                                          const platform::Platform& platform,
                                          const HeuristicOptions& options, const CandidateSink& sink);

void enumerate_greedy_split_candidates(const pipeline::Pipeline& pipeline,
                                       const platform::Platform& platform,
                                       const HeuristicOptions& options, const CandidateSink& sink);

void enumerate_beam_candidates(const pipeline::Pipeline& pipeline,
                               const platform::Platform& platform,
                               const HeuristicOptions& options, const CandidateSink& sink);

/// Every generator's candidates in emission order: single-interval, then
/// greedy-split, then beam. The list depends only on the instance and the
/// options, never on a threshold, so one collection serves every threshold
/// of a sweep. A cancelled collection stops early and is partial; callers
/// check `options.cancel` before using it.
[[nodiscard]] std::vector<Solution> collect_heuristic_candidates(
    const pipeline::Pipeline& pipeline, const platform::Platform& platform,
    const HeuristicOptions& options);

/// "Minimize FP subject to latency <= L" over collected candidates, scanned
/// in order: a candidate replaces the incumbent only if it is strictly better
/// (better_min_fp), so ties go to the earlier one. The winner is polished by
/// local search (local_search.hpp). Reads `candidates` only, so concurrent
/// threshold workers can share one list. `local_search_rounds`, if given,
/// receives the improving rounds the polish took. Errors: "infeasible" if no
/// candidate meets L.
[[nodiscard]] Result best_min_fp_for_latency(const pipeline::Pipeline& pipeline,
                                             const platform::Platform& platform,
                                             std::span<const Solution> candidates,
                                             double max_latency,
                                             std::size_t* local_search_rounds = nullptr);

/// Collects the candidates and returns `best_min_fp_for_latency` over them.
/// Errors: "infeasible" as above, "cancelled" if `options.cancel` tripped.
[[nodiscard]] Result heuristic_min_fp_for_latency(const pipeline::Pipeline& pipeline,
                                                  const platform::Platform& platform,
                                                  double max_latency,
                                                  const HeuristicOptions& options = {});

/// Same for "minimize latency subject to FP <= F": the scan uses
/// better_min_latency and the polish local_search_min_latency.
[[nodiscard]] Result heuristic_min_latency_for_fp(const pipeline::Pipeline& pipeline,
                                                  const platform::Platform& platform,
                                                  double max_failure_probability,
                                                  const HeuristicOptions& options = {});

}  // namespace relap::algorithms
