#include "check.hpp"

#include <cstdio>
#include <limits>

#include "relap/algorithms/comm_hom.hpp"
#include "relap/algorithms/fully_hom.hpp"
#include "relap/io/instance_format.hpp"
#include "relap/mapping/latency.hpp"
#include "relap/mapping/reliability.hpp"
#include "relap/mapping/validate.hpp"
#include "relap/service/request.hpp"
#include "relap/util/pareto.hpp"
#include "relap/util/stats.hpp"

namespace servbench {

namespace {

std::string describe_point(std::size_t i, double latency, double fp) {
  char buffer[128];
  std::snprintf(buffer, sizeof buffer, "point %zu (latency %.17g, fp %.17g)", i, latency, fp);
  return buffer;
}

}  // namespace

bool verify_reply(const Instance& presented, const SolveReply& reply, Front& front,
                  std::string& why) {
  front.clear();
  if (reply.points.size() != reply.points_field || reply.points.empty()) {
    why = "points=" + std::to_string(reply.points_field) + " but " +
          std::to_string(reply.points.size()) + " point lines";
    return false;
  }
  for (std::size_t i = 0; i < reply.points.size(); ++i) {
    const ServedPoint& served = reply.points[i];
    auto mapping = relap::io::parse_mapping(served.mapping);
    if (!mapping.has_value()) {
      why = describe_point(i, served.latency, served.fp) + ": unparseable mapping " + served.mapping;
      return false;
    }
    if (!relap::mapping::validate(presented.pipeline, presented.platform, *mapping).has_value()) {
      why = describe_point(i, served.latency, served.fp) + ": invalid mapping " + served.mapping;
      return false;
    }
    const double latency =
        relap::mapping::latency_eq2(presented.pipeline, presented.platform, *mapping);
    const double fp = relap::mapping::failure_probability(presented.platform, *mapping);
    if (!relap::util::approx_equal(latency, served.latency) ||
        !relap::util::approx_equal(fp, served.fp)) {
      why = describe_point(i, served.latency, served.fp) + " re-evaluates to " +
            describe_point(i, latency, fp);
      return false;
    }
    if (i > 0 && !(served.latency > front.back().latency && served.fp < front.back().failure_probability)) {
      why = describe_point(i, served.latency, served.fp) + " is not after " +
            describe_point(i - 1, front.back().latency, front.back().failure_probability) +
            " on a sorted non-dominated front";
      return false;
    }
    front.push_back({served.latency, served.fp, std::move(*mapping)});
  }
  const std::uint64_t checksum = relap::service::front_checksum(front);
  if (checksum != reply.front_checksum) {
    why = "front= does not match the served points";
    return false;
  }
  return true;
}

relap::util::Expected<Front> exact_front(const Instance& instance) {
  if (!is_polynomial(instance.cls)) {
    relap::algorithms::ExhaustiveOptions options;
    options.max_evaluations = std::numeric_limits<std::uint64_t>::max();
    auto outcome = relap::algorithms::exhaustive_pareto(instance.pipeline, instance.platform,
                                                        options);
    if (!outcome.has_value()) return outcome.error();
    return std::move(outcome->front);
  }
  // Lemma 1: one interval is optimal here, and the front is the family of
  // k-replica single intervals. Each k's FP (its k most reliable processors)
  // is the threshold of one Algorithm 2 / 4 call.
  const std::size_t n = instance.pipeline.stage_count();
  const std::vector<relap::platform::ProcessorId> reliable = instance.platform.by_reliability();
  relap::util::ParetoFront pareto;
  std::vector<relap::algorithms::Solution> solutions;
  for (std::size_t k = 1; k <= reliable.size(); ++k) {
    const auto single = relap::mapping::IntervalMapping::single_interval(
        n, std::vector<relap::platform::ProcessorId>(reliable.begin(), reliable.begin() + k));
    const double threshold = relap::mapping::failure_probability(instance.platform, single);
    auto solved =
        instance.cls == InstanceClass::FullyHom6x12
            ? relap::algorithms::fully_hom_min_latency_for_fp(instance.pipeline,
                                                             instance.platform, threshold)
            : relap::algorithms::comm_hom_min_latency_for_fp(instance.pipeline,
                                                            instance.platform, threshold);
    if (!solved.has_value()) return solved.error();
    if (pareto.insert({solved->latency, solved->failure_probability, solutions.size()})) {
      solutions.push_back(std::move(*solved));
    }
  }
  Front front;
  for (const relap::util::ParetoPoint& point : pareto.points()) {
    relap::algorithms::Solution& solution = solutions[point.payload];
    front.push_back({solution.latency, solution.failure_probability, std::move(solution.mapping)});
  }
  return front;
}

bool same_points(const Front& a, const Front& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!relap::util::approx_equal(a[i].latency, b[i].latency) ||
        !relap::util::approx_equal(a[i].failure_probability, b[i].failure_probability)) {
      return false;
    }
  }
  return true;
}

bool Ledger::expect_checksum(std::size_t base, std::uint64_t checksum, std::string& why) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = checksums_.emplace(base, checksum);
  if (inserted || it->second == checksum) return true;
  char buffer[96];
  std::snprintf(buffer, sizeof buffer, "front=0x%016llx, base %zu was served 0x%016llx",
                static_cast<unsigned long long>(checksum), base,
                static_cast<unsigned long long>(it->second));
  why = buffer;
  return false;
}

void Ledger::keep_front(std::size_t base, bool exact, bool wanted, const Front& front) {
  if (!exact && !wanted) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (!kept_.contains(base)) kept_.emplace(base, Kept{front, exact});
}

std::unordered_map<std::size_t, Ledger::Kept> Ledger::kept() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return kept_;
}

}  // namespace servbench
