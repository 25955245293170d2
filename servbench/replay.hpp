#pragma once

// The traced replay: the requests a traced run sent over TCP are replayed
// in-process, in the same order, through the public entry point of each
// layer, each call wrapped in a span. Spans are kept in memory and written
// out when the run ends; per-layer numbers and self times come from them.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workload.hpp"

namespace servbench {

/// One timed call: name, start and end (seconds since the log's origin),
/// the index of the span it ran under (-1 for a root) and the request id.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

class SpanLog {
 public:
  SpanLog();
  /// Opens a span and returns its index.
  std::int64_t open(std::string name, std::int64_t parent, std::uint64_t request);
  /// Closes span `index` and returns its duration in seconds.
  double close(std::int64_t index);
  /// Records an already-measured interval.
  void add(std::string name, double start, double end, std::int64_t parent,
           std::uint64_t request);
  [[nodiscard]] double now() const;

  struct Totals {
    std::size_t count = 0;
    double total = 0.0;  ///< summed duration, seconds
    double self = 0.0;   ///< summed duration minus the time child spans cover
  };
  /// Per span name: count, total and self time.
  [[nodiscard]] std::map<std::string, Totals> totals() const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  /// One JSON object per line.
  bool write(const std::string& path) const;

 private:
  double origin_ = 0.0;
  std::vector<Span> spans_;
};

/// What the replay needs from the run.
struct ReplayPlan {
  /// (request id, pool index) of the traced requests, in id order.
  std::vector<std::pair<std::uint64_t, std::size_t>> requests;
  /// Snapshot of the server's primed cache (warm_wire), else empty.
  std::string snapshot_path;
  /// Scratch directory for the replay's journals.
  std::string work_dir;
  double budget_seconds = 10.0;
};

/// Per-request layer times of the replay (seconds), averaged where the
/// layer ran.
struct LayerTimes {
  std::size_t replayed = 0;
  double upload = 0.0;
  double solve_line = 0.0;
  double render_self = 0.0;  ///< solve line minus Broker::solve, cache hits only
  double reply_bytes = 0.0;
  double canonicalize = 0.0;
  double denormalize = 0.0;
  double format_double = 0.0;  ///< per call
  double format_calls_per_reply = 0.0;
  double journal_append = 0.0;
  double pareto = 0.0;  ///< heterogeneous-class solves
  double hom_pareto = 0.0;
  double beam = 0.0;
  double greedy_split = 0.0;
  double single_interval = 0.0;
  double beam_candidates = 0.0;
  double greedy_split_candidates = 0.0;
  double single_interval_candidates = 0.0;
  double generator_passes = 0.0;
  double exhaustive_candidates_per_s = 0.0;
  double front_points = 0.0;
  /// Server CPU time (upload + solve line) per replayed request id.
  std::map<std::uint64_t, double> server_seconds;
};

[[nodiscard]] LayerTimes replay(const Workload& workload, const ReplayPlan& plan, SpanLog& log);

}  // namespace servbench
