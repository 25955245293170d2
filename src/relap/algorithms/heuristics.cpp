#include "relap/algorithms/heuristics.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>

#include "relap/algorithms/local_search.hpp"
#include "relap/exec/parallel.hpp"
#include "relap/mapping/mapping_lanes.hpp"
#include "relap/mapping/mapping_view.hpp"
#include "relap/util/simd.hpp"
#include "relap/util/strings.hpp"

namespace relap::algorithms {

namespace {

using Group = std::vector<platform::ProcessorId>;

/// Replica groups in one flat array: group g is
/// `members_[offsets_[g], offsets_[g + 1])`.
class GroupTable {
 public:
  [[nodiscard]] std::size_t size() const { return offsets_.size() - 1; }

  [[nodiscard]] std::span<const platform::ProcessorId> operator[](std::size_t g) const {
    return {members_.data() + offsets_[g], offsets_[g + 1] - offsets_[g]};
  }

  /// Appends the distinct candidate replica groups drawn from `available`
  /// (any order): the k most reliable, the k fastest, and the k best
  /// speed-reliability blends, for every k up to the replication cap, then
  /// every singleton. Each group is sorted ascending; a group equal to one
  /// appended earlier in the same call is skipped. Returns the first new
  /// group id (the new ids run to `size()`).
  std::size_t append_candidates(const platform::Platform& platform,
                                std::span<const platform::ProcessorId> available,
                                std::size_t max_replication) {
    const std::size_t first = size();
    const std::size_t k_max = std::min(available.size(), max_replication);

    Group by_rel(available.begin(), available.end());
    std::stable_sort(by_rel.begin(), by_rel.end(), [&](auto a, auto b) {
      return platform.failure_prob(a) < platform.failure_prob(b);
    });
    Group by_speed(available.begin(), available.end());
    std::stable_sort(by_speed.begin(), by_speed.end(),
                     [&](auto a, auto b) { return platform.speed(a) > platform.speed(b); });
    // Blend: prefer processors that are both fast and reliable; score is the
    // product of survival probability and speed.
    Group by_blend(available.begin(), available.end());
    std::stable_sort(by_blend.begin(), by_blend.end(), [&](auto a, auto b) {
      return (1.0 - platform.failure_prob(a)) * platform.speed(a) >
             (1.0 - platform.failure_prob(b)) * platform.speed(b);
    });

    Group g;
    for (const Group* order : {&by_rel, &by_speed, &by_blend}) {
      for (std::size_t k = 1; k <= k_max; ++k) {
        g.assign(order->begin(), order->begin() + static_cast<std::ptrdiff_t>(k));
        std::sort(g.begin(), g.end());
        append_unique(first, g);
      }
    }
    // Every singleton: on Fully Heterogeneous platforms the right processor
    // for an interval can be picked by its *links*, which none of the
    // orderings above see.
    for (const platform::ProcessorId& u : available) append_unique(first, {&u, 1});
    return first;
  }

 private:
  void append_unique(std::size_t from, std::span<const platform::ProcessorId> group) {
    for (std::size_t h = from; h < size(); ++h) {
      const std::span<const platform::ProcessorId> other = (*this)[h];
      if (std::equal(group.begin(), group.end(), other.begin(), other.end())) return;
    }
    members_.insert(members_.end(), group.begin(), group.end());
    offsets_.push_back(members_.size());
  }

  std::vector<platform::ProcessorId> members_;
  std::vector<std::size_t> offsets_{0};
};

Group all_processors(const platform::Platform& platform) {
  Group ids(platform.processor_count());
  for (std::size_t u = 0; u < ids.size(); ++u) ids[u] = u;
  return ids;
}

}  // namespace

void enumerate_single_interval_candidates(const pipeline::Pipeline& pipeline,
                                          const platform::Platform& platform,
                                          const HeuristicOptions& options,
                                          const CandidateSink& sink) {
  const std::size_t n = pipeline.stage_count();
  const std::vector<platform::ProcessorId> by_rel = platform.by_reliability();

  // Strategy sweeps from the candidate groups plus, for identical-link platforms,
  // the exact structure: for every speed floor, the k most reliable
  // processors at least that fast (contains the single-interval optimum,
  // see single_interval.hpp).
  GroupTable groups;
  groups.append_candidates(platform, all_processors(platform),
                           std::max<std::size_t>(options.max_replication,
                                                 platform.processor_count()));
  for (std::size_t g = 0; g < groups.size(); ++g) {
    sink(evaluate(pipeline, platform,
                  mapping::IntervalMapping::single_interval(
                      n, Group(groups[g].begin(), groups[g].end()))));
  }

  std::vector<double> floors(platform.speeds().begin(), platform.speeds().end());
  std::sort(floors.begin(), floors.end(), std::greater<>());
  floors.erase(std::unique(floors.begin(), floors.end()), floors.end());
  for (const double floor : floors) {
    Group eligible;
    for (const platform::ProcessorId u : by_rel) {
      if (platform.speed(u) >= floor) eligible.push_back(u);
    }
    for (std::size_t k = 1; k <= eligible.size(); ++k) {
      Group g(eligible.begin(), eligible.begin() + static_cast<std::ptrdiff_t>(k));
      sink(evaluate(pipeline, platform,
                    mapping::IntervalMapping::single_interval(n, std::move(g))));
    }
  }
}

void enumerate_greedy_split_candidates(const pipeline::Pipeline& pipeline,
                                       const platform::Platform& platform,
                                       const HeuristicOptions& options,
                                       const CandidateSink& sink) {
  const std::size_t n = pipeline.stage_count();
  const std::size_t m = platform.processor_count();

  // Augment every interval of `base` with extra reliable unused processors;
  // emits the latency/FP trade-offs replication buys on a fixed partition.
  const auto emit_replication_ladder = [&](const mapping::IntervalMapping& base) {
    std::vector<bool> used(m, false);
    for (const auto& a : base.intervals()) {
      for (const platform::ProcessorId u : a.processors) used[u] = true;
    }
    for (std::size_t target = 0; target < base.interval_count(); ++target) {
      Group unused_by_rel;
      for (const platform::ProcessorId u : platform.by_reliability()) {
        if (!used[u]) unused_by_rel.push_back(u);
      }
      std::vector<mapping::IntervalAssignment> intervals = base.intervals();
      for (std::size_t extra = 1;
           extra <= std::min(unused_by_rel.size(),
                             options.max_replication - std::min(options.max_replication,
                                                                intervals[target].processors.size()));
           ++extra) {
        intervals[target].processors.push_back(unused_by_rel[extra - 1]);
        sink(evaluate(pipeline, platform, mapping::IntervalMapping(intervals)));
      }
    }
  };

  // Latency-greedy descent: start from the best single processor and keep
  // applying the best single split (one interval cut in two, the new half
  // assigned the best unused processor) while it reduces latency. This is
  // the move that wins the paper's Figure 3/4 example.
  std::optional<Solution> current;
  for (const platform::ProcessorId u : all_processors(platform)) {
    Solution s = evaluate(pipeline, platform, mapping::IntervalMapping::single_interval(n, {u}));
    if (!current || s.latency < current->latency) current = std::move(s);
  }
  sink(*current);
  emit_replication_ladder(current->mapping);

  for (std::size_t round = 0; round < n; ++round) {
    std::optional<Solution> best_split;
    std::vector<bool> used(m, false);
    for (const auto& a : current->mapping.intervals()) {
      for (const platform::ProcessorId u : a.processors) used[u] = true;
    }
    Group unused;
    for (platform::ProcessorId u = 0; u < m; ++u) {
      if (!used[u]) unused.push_back(u);
    }
    if (unused.empty()) break;

    const auto& intervals = current->mapping.intervals();
    for (std::size_t j = 0; j < intervals.size(); ++j) {
      const auto& a = intervals[j];
      for (std::size_t cut = a.stages.first; cut < a.stages.last; ++cut) {
        for (const platform::ProcessorId fresh : unused) {
          // Keep the existing group on the left half, the fresh processor on
          // the right half (and the mirrored variant).
          for (const bool fresh_on_right : {true, false}) {
            std::vector<mapping::IntervalAssignment> next = intervals;
            mapping::IntervalAssignment left{{a.stages.first, cut}, a.processors};
            mapping::IntervalAssignment right{{cut + 1, a.stages.last}, {fresh}};
            if (!fresh_on_right) std::swap(left.processors, right.processors);
            next[j] = left;
            next.insert(next.begin() + static_cast<std::ptrdiff_t>(j) + 1, right);
            Solution s = evaluate(pipeline, platform, mapping::IntervalMapping(std::move(next)));
            sink(s);
            if (!best_split || s.latency < best_split->latency) best_split = std::move(s);
          }
        }
      }
    }
    if (!best_split || best_split->latency >= current->latency) break;
    current = std::move(best_split);
    emit_replication_ladder(current->mapping);
  }
}

namespace {

constexpr std::uint32_t kRootGroup = std::numeric_limits<std::uint32_t>::max();

/// Beam-search node. Stages [0, boundary) are assigned, where the boundary
/// is the level the node is stored at. The last interval [first, last] runs
/// on replica group `group`; its sender-side cost (compute + transfer to its
/// successor) is still pending because it depends on the successor's group.
/// The node that interval extended is the parent: it sits at level `first`,
/// index `parent`, in a level that was already pruned (so the index is
/// final). The root (the empty mapping) has group kRootGroup.
struct BeamNode {
  std::uint64_t used_mask = 0;
  double latency_prefix = 0.0;  ///< all terms except the pending interval's
  double log_survival = 0.0;    ///< includes the pending interval's group
  std::uint32_t first = 0;
  std::uint32_t last = 0;
  std::uint32_t group = kRootGroup;
  std::uint32_t parent = 0;
};

/// The candidate groups of one beam pass, memoized per used-processor set,
/// with the per-group terms the transitions and the pruning bound need.
class BeamGroups {
 public:
  BeamGroups(const platform::Platform& platform, std::size_t max_replication)
      : platform_(platform), max_replication_(max_replication) {}

  [[nodiscard]] std::span<const platform::ProcessorId> operator[](std::size_t g) const {
    return table_[g];
  }
  [[nodiscard]] std::uint64_t mask(std::size_t g) const { return mask_[g]; }
  [[nodiscard]] double log_survival(std::size_t g) const { return log_survival_[g]; }
  /// 1 / the group's slowest speed: its interval's compute runs at least
  /// this slow per unit of work.
  [[nodiscard]] double slowest_inv(std::size_t g) const { return slowest_inv_[g]; }

  /// Ids [first, second) of the candidate groups drawn from the processors
  /// outside `used_mask` (empty when none is left).
  std::pair<std::size_t, std::size_t> for_mask(std::uint64_t used_mask) {
    const auto [it, inserted] = by_mask_.try_emplace(used_mask);
    if (!inserted) return it->second;
    unused_.clear();
    for (platform::ProcessorId u = 0; u < platform_.processor_count(); ++u) {
      if (!(used_mask & (std::uint64_t{1} << u))) unused_.push_back(u);
    }
    const std::size_t first = table_.append_candidates(platform_, unused_, max_replication_);
    for (std::size_t g = first; g < table_.size(); ++g) {
      std::uint64_t mask = 0;
      double product = 1.0;
      double slowest_inv = 0.0;
      for (const platform::ProcessorId u : table_[g]) {
        mask |= std::uint64_t{1} << u;
        product *= platform_.failure_prob(u);
        slowest_inv = std::max(slowest_inv, 1.0 / platform_.speed(u));
      }
      mask_.push_back(mask);
      log_survival_.push_back(product >= 1.0 ? -std::numeric_limits<double>::infinity()
                                             : std::log1p(-product));
      slowest_inv_.push_back(slowest_inv);
    }
    it->second = {first, table_.size()};
    return it->second;
  }

 private:
  const platform::Platform& platform_;
  std::size_t max_replication_;
  GroupTable table_;
  std::vector<std::uint64_t> mask_;
  std::vector<double> log_survival_;
  std::vector<double> slowest_inv_;
  std::unordered_map<std::uint64_t, std::pair<std::size_t, std::size_t>> by_mask_;
  Group unused_;
};

/// Eq. (2) sender-side term of interval [first, last] on `group` when its
/// successor runs on `next`.
double pending_term(const pipeline::Pipeline& pipeline, const platform::Platform& platform,
                    std::size_t first, std::size_t last,
                    std::span<const platform::ProcessorId> group,
                    std::span<const platform::ProcessorId> next) {
  const double work = pipeline.work_sum(first, last);
  const double out_size = pipeline.data(last + 1);
  double worst = 0.0;
  for (const platform::ProcessorId u : group) {
    double term = work / platform.speed(u);
    for (const platform::ProcessorId v : next) term += out_size / platform.bandwidth(u, v);
    worst = std::max(worst, term);
  }
  return worst;
}

/// Evaluates the beam's surviving final mappings through the lane batch
/// kernel (ragged `push_intervals` staging), each chunk writing its own
/// solution slots. Lanes are consumed in push (= state index) order, so the
/// sink sees the same sequence at any thread count.
void evaluate_beam_finals(const pipeline::Pipeline& pipeline, const platform::Platform& platform,
                          std::vector<std::vector<mapping::IntervalAssignment>>& finals,
                          std::vector<std::optional<Solution>>& solutions,
                          exec::ThreadPool* pool) {
  const std::size_t n = pipeline.stage_count();
  const std::size_t m = platform.processor_count();
  constexpr std::size_t kStatesPerChunk = 8;
  exec::parallel_for_chunks(
      finals.size(), kStatesPerChunk,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        mapping::LaneEvalBatch<util::simd::kLaneWidth> batch(n, m);
        std::array<mapping::ViewEval, util::simd::kLaneWidth> evals;
        std::size_t base = begin;
        const auto flush = [&] {
          batch.evaluate(platform, evals);
          for (std::size_t l = 0; l < batch.size(); ++l) {
            const std::size_t i = base + l;
            solutions[i].emplace(Solution{mapping::IntervalMapping(std::move(finals[i])),
                                          evals[l].latency, evals[l].failure_probability});
          }
          base += batch.size();
          batch.clear();
        };
        for (std::size_t i = begin; i < end; ++i) {
          batch.push_intervals(pipeline, finals[i]);
          if (batch.full()) flush();
        }
        if (!batch.empty()) flush();
      },
      pool);
}

}  // namespace

void enumerate_beam_candidates(const pipeline::Pipeline& pipeline,
                               const platform::Platform& platform,
                               const HeuristicOptions& options, const CandidateSink& sink) {
  const std::size_t n = pipeline.stage_count();
  const std::size_t m = platform.processor_count();
  if (m > 64) return;  // the used-set bitmask caps the beam at 64 processors

  BeamGroups groups(platform, options.max_replication);
  // beams[i]: nodes whose assigned prefix is exactly stages [0, i).
  std::vector<std::vector<BeamNode>> beams(n + 1);
  beams[0].push_back(BeamNode{});

  // Admissible latency estimate for pruning: the prefix plus a lower bound
  // on the pending interval's unpaid term (its compute on the group's
  // slowest member; the outgoing transfers are bounded below by zero).
  // Pruning on the raw prefix alone would let a cheap-so-far state with a
  // huge pending compute (e.g. a slow reliable processor holding the whole
  // pipeline) shadow genuinely better completions.
  const auto optimistic_total = [&](const BeamNode& s) {
    if (s.group == kRootGroup) return s.latency_prefix;
    return s.latency_prefix + pipeline.work_sum(s.first, s.last) * groups.slowest_inv(s.group);
  };

  // Union-keep pruning: half the width goes to the latency-cheapest states,
  // the rest to the most reliable of the others. A Pareto-domination filter
  // would be wrong here: on Fully Heterogeneous platforms two states with the
  // same optimistic latency and ordered survivals can still complete
  // differently (the bound cannot see link identities), so "dominated"
  // states must survive as long as the beam has room.
  const auto prune = [&](std::vector<BeamNode>& states) {
    if (states.size() <= options.beam_width) return;
    const std::size_t half = std::max<std::size_t>(1, options.beam_width / 2);
    std::stable_sort(states.begin(), states.end(), [&](const BeamNode& a, const BeamNode& b) {
      return optimistic_total(a) < optimistic_total(b);
    });
    std::stable_sort(states.begin() + static_cast<std::ptrdiff_t>(half), states.end(),
                     [](const BeamNode& a, const BeamNode& b) {
                       return a.log_survival > b.log_survival;
                     });
    states.resize(std::max(half, options.beam_width));
    states.shrink_to_fit();  // children index only the kept nodes: free the rest
  };

  // Per-node scratch: the node's prefix after paying its pending term to
  // each candidate successor group (independent of where that group's
  // interval ends, so computed once per group, not once per end stage).
  std::vector<double> prefix_after;
  for (std::size_t i = 0; i < n; ++i) {
    // Cancellation poll per beam level: a cancelled solve stops extending
    // states and emits nothing (the entry points turn that into an error).
    if (util::cancel_requested(options.cancel)) return;
    prune(beams[i]);
    for (std::size_t s = 0; s < beams[i].size(); ++s) {
      const BeamNode& state = beams[i][s];
      const auto [g_begin, g_end] = groups.for_mask(state.used_mask);
      prefix_after.clear();
      for (std::size_t g = g_begin; g < g_end; ++g) {
        double prefix = state.latency_prefix;
        if (state.group == kRootGroup) {
          for (const platform::ProcessorId u : groups[g]) {
            prefix += pipeline.data(0) / platform.bandwidth_in(u);
          }
        } else {
          prefix += pending_term(pipeline, platform, state.first, state.last,
                                 groups[state.group], groups[g]);
        }
        prefix_after.push_back(prefix);
      }
      for (std::size_t j = i; j < n; ++j) {
        for (std::size_t g = g_begin; g < g_end; ++g) {
          beams[j + 1].push_back(BeamNode{state.used_mask | groups.mask(g),
                                          prefix_after[g - g_begin],
                                          state.log_survival + groups.log_survival(g),
                                          static_cast<std::uint32_t>(i),
                                          static_cast<std::uint32_t>(j),
                                          static_cast<std::uint32_t>(g),
                                          static_cast<std::uint32_t>(s)});
        }
      }
    }
  }

  prune(beams[n]);
  // Only the surviving final nodes become mappings: each walks its parent
  // links back to the root. The evaluated latency re-derives the prefix plus
  // the final pending term; the view kernel recomputes from scratch as the
  // single source of truth (bit-identical to evaluate()).
  std::vector<std::vector<mapping::IntervalAssignment>> finals(beams[n].size());
  for (std::size_t f = 0; f < finals.size(); ++f) {
    std::size_t depth = 0;
    for (const BeamNode* node = &beams[n][f]; node->group != kRootGroup;
         node = &beams[node->first][node->parent]) {
      ++depth;
    }
    std::vector<mapping::IntervalAssignment>& intervals = finals[f];
    intervals.resize(depth);
    const BeamNode* node = &beams[n][f];
    for (std::size_t k = depth; k-- > 0; node = &beams[node->first][node->parent]) {
      const std::span<const platform::ProcessorId> g = groups[node->group];
      intervals[k] =
          mapping::IntervalAssignment{{node->first, node->last}, Group(g.begin(), g.end())};
    }
  }
  beams.clear();

  // Evaluation is chunked over the surviving states through the lane batch
  // kernel (every state writes its own slot), and the sink consumes the
  // solutions serially in state-index order afterwards — the same
  // lowest-rank tie-breaking as the serial scan, so downstream first-wins
  // incumbents are identical at any thread count.
  std::vector<std::optional<Solution>> solutions(finals.size());
  evaluate_beam_finals(pipeline, platform, finals, solutions, options.pool);
  for (std::optional<Solution>& s : solutions) sink(*std::move(s));
}

std::vector<Solution> collect_heuristic_candidates(const pipeline::Pipeline& pipeline,
                                                   const platform::Platform& platform,
                                                   const HeuristicOptions& options) {
  std::vector<Solution> candidates;
  const CandidateSink sink = [&](Solution s) { candidates.push_back(std::move(s)); };
  enumerate_single_interval_candidates(pipeline, platform, options, sink);
  if (!util::cancel_requested(options.cancel)) {
    enumerate_greedy_split_candidates(pipeline, platform, options, sink);
  }
  if (!util::cancel_requested(options.cancel)) {
    enumerate_beam_candidates(pipeline, platform, options, sink);
  }
  return candidates;
}

namespace {

/// The read-only scan both constrained directions share: first-wins under
/// the strict comparator `better`, then the feasibility check.
Result pick_best(std::span<const Solution> candidates, double cap,
                 bool (*better)(const Solution&, const Solution&, double),
                 bool (*feasible)(const Solution&, double), const char* criterion) {
  const Solution* best = nullptr;
  for (const Solution& s : candidates) {
    if (best == nullptr || better(s, *best, cap)) best = &s;
  }
  if (best == nullptr || !feasible(*best, cap)) {
    return util::infeasible(std::string("no heuristic candidate meets the ") + criterion +
                            " threshold " + util::format_double(cap));
  }
  return *best;
}

Result cancelled() {
  return util::make_error("cancelled", "heuristic search was cancelled before completing");
}

}  // namespace

Result best_min_fp_for_latency(const pipeline::Pipeline& pipeline,
                               const platform::Platform& platform,
                               std::span<const Solution> candidates, double max_latency,
                               std::size_t* local_search_rounds) {
  Result best = pick_best(
      candidates, max_latency, &better_min_fp,
      [](const Solution& s, double cap) { return within_cap(s.latency, cap); }, "latency");
  if (!best) return best;
  return local_search_min_fp(pipeline, platform, std::move(best).take(), max_latency,
                             local_search_rounds);
}

Result heuristic_min_fp_for_latency(const pipeline::Pipeline& pipeline,
                                    const platform::Platform& platform, double max_latency,
                                    const HeuristicOptions& options) {
  const std::vector<Solution> candidates =
      collect_heuristic_candidates(pipeline, platform, options);
  if (util::cancel_requested(options.cancel)) return cancelled();
  return best_min_fp_for_latency(pipeline, platform, candidates, max_latency);
}

Result heuristic_min_latency_for_fp(const pipeline::Pipeline& pipeline,
                                    const platform::Platform& platform,
                                    double max_failure_probability,
                                    const HeuristicOptions& options) {
  const std::vector<Solution> candidates =
      collect_heuristic_candidates(pipeline, platform, options);
  if (util::cancel_requested(options.cancel)) return cancelled();
  Result best = pick_best(
      candidates, max_failure_probability, &better_min_latency,
      [](const Solution& s, double cap) { return within_cap(s.failure_probability, cap); },
      "failure-probability");
  if (!best) return best;
  return local_search_min_latency(pipeline, platform, std::move(best).take(),
                                  max_failure_probability);
}

}  // namespace relap::algorithms
