#pragma once

// Output checks: every served front is re-evaluated on the instance the
// request presented, and compared with the checksum and exact front its base
// must have.

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "relap/algorithms/exhaustive.hpp"
#include "relap/util/expected.hpp"
#include "wire.hpp"
#include "workload.hpp"

namespace servbench {

using Front = std::vector<relap::algorithms::ParetoSolution>;

/// Checks one solve reply against the presentation it answers: the point
/// count matches `points=`, every mapping is valid for the instance, its
/// latency (Eq. 2) and failure probability re-evaluated with relap::mapping
/// equal the served values, the front is sorted by latency and
/// non-dominated, and `front=` is the checksum of the served points.
/// On success the parsed front is stored in `front`.
[[nodiscard]] bool verify_reply(const Instance& presented, const SolveReply& reply, Front& front,
                                std::string& why);

/// The exact latency/FP front of `instance`: exhaustive enumeration on the
/// heterogeneous classes, the paper's Algorithms 2 and 4 swept over the
/// replica count k on the polynomial ones.
[[nodiscard]] relap::util::Expected<Front> exact_front(const Instance& instance);

/// Same points (latency, FP) within the service's 1e-9 relative tolerance.
[[nodiscard]] bool same_points(const Front& a, const Front& b);

/// Thread-safe per-base expectations gathered while serving.
class Ledger {
 public:
  /// The first checksum seen for `base` becomes its expected one (priming
  /// records the cold checksum); every later reply must match it.
  bool expect_checksum(std::size_t base, std::uint64_t checksum, std::string& why);
  /// Keeps the first front served for `base` if `wanted` (quality sample) or
  /// the reply claims exactness.
  void keep_front(std::size_t base, bool exact, bool wanted, const Front& front);

  struct Kept {
    Front front;
    bool exact = false;
  };
  [[nodiscard]] std::unordered_map<std::size_t, Kept> kept() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::size_t, std::uint64_t> checksums_;
  std::unordered_map<std::size_t, Kept> kept_;
};

}  // namespace servbench
