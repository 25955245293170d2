#pragma once

// Seeded workload generation: base instances, their presentations (random
// relabelings, some rescaled by powers of two) and the protocol text of every
// request, all produced before anything is timed.

#include <cstdint>
#include <string>
#include <vector>

#include "relap/pipeline/pipeline.hpp"
#include "relap/platform/platform.hpp"
#include "relap/service/request.hpp"

namespace servbench {

enum class Kind { WarmWire, ColdHet, MixedChurn };

/// Platform classes the workloads draw from.
enum class InstanceClass {
  Het6x8,        ///< fully heterogeneous, 6 stages x 8 processors (heuristic sweep)
  Het5x6,        ///< fully heterogeneous, 5 x 6 (auto picks exhaustive: exact)
  FullyHom6x12,  ///< fully homogeneous, 6 x 12 (paper Algorithms 1-2)
  CommHom6x12,   ///< comm-homogeneous, equal failure probabilities (Algorithms 3-4)
};

[[nodiscard]] bool is_polynomial(InstanceClass cls);

/// A validated instance in library form plus its wire records.
struct Instance {
  InstanceClass cls = InstanceClass::Het6x8;
  relap::pipeline::Pipeline pipeline;
  relap::platform::Platform platform;
  relap::service::InstanceData data;
};

/// One request of the pool: a presentation of base `base`, the library form
/// of that presentation (what the checker evaluates returned mappings on)
/// and its protocol text — an `instance` block followed by
/// `solve <name> obj=pareto`, sent as one write.
struct Request {
  std::size_t base = 0;
  Instance presented;
  std::string text;
};

struct Workload {
  std::string name;
  std::vector<Instance> bases;
  /// Requests of the measured phase, used in order (wrapping if exhausted).
  std::vector<Request> pool;
  /// Warm-up requests sent during set-up (warm_wire: one per base).
  std::vector<Request> priming;
  /// relap_serve settings besides `--port 0` (0 = the server default).
  std::size_t cache_entries = 0;
  /// With a journal, the runner passes `--journal <scratch file>`.
  bool journal = false;
  std::size_t journal_fsync_every = 1;
  /// Requests per connection before `quit` + reconnect (0 = long-lived).
  std::size_t requests_per_connection = 0;
  /// Bases whose served fronts are compared with the exact front.
  std::vector<std::size_t> quality_sample;
};

[[nodiscard]] bool parse_kind(const std::string& name, Kind& kind);

/// Builds every input of one run from `seed`. `seconds` sizes the pools of
/// fresh instances (cold_het, mixed_churn) so they are not exhausted.
[[nodiscard]] Workload make_workload(Kind kind, std::uint64_t seed, double seconds);

}  // namespace servbench
