#include "replay.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>

#include "relap/algorithms/heuristics.hpp"
#include "relap/algorithms/solve.hpp"
#include "relap/service/broker.hpp"
#include "relap/service/canonical.hpp"
#include "relap/service/journal.hpp"
#include "relap/service/server.hpp"
#include "relap/util/strings.hpp"

namespace servbench {

namespace {

double steady_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<std::string_view> split_lines(std::string_view text) {
  std::vector<std::string_view> lines;
  while (!text.empty()) {
    const std::size_t newline = text.find('\n');
    lines.push_back(text.substr(0, newline));
    if (newline == std::string_view::npos) break;
    text.remove_prefix(newline + 1);
  }
  return lines;
}

/// A broker configured like the workload's relap_serve.
std::unique_ptr<relap::service::Broker> make_broker(const Workload& workload,
                                                    const ReplayPlan& plan,
                                                    const std::string& journal_name) {
  relap::service::BrokerOptions options;
  if (workload.cache_entries > 0) options.cache.capacity = workload.cache_entries;
  auto broker = std::make_unique<relap::service::Broker>(options);
  if (!plan.snapshot_path.empty()) (void)broker->load_snapshot(plan.snapshot_path);
  if (workload.journal) {
    const std::string path = plan.work_dir + "/" + journal_name;
    std::remove(path.c_str());
    (void)broker->recover("", path, relap::service::JournalOptions{workload.journal_fsync_every});
  }
  return broker;
}

/// Mean of `sum` over `count` (0 when nothing was counted).
double mean(double sum, std::size_t count) {
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

}  // namespace

SpanLog::SpanLog() : origin_(steady_seconds()) {}

double SpanLog::now() const { return steady_seconds() - origin_; }

std::int64_t SpanLog::open(std::string name, std::int64_t parent, std::uint64_t request) {
  spans_.push_back(Span{std::move(name), now(), 0.0, parent, request});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

double SpanLog::close(std::int64_t index) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end = now();
  return span.end - span.start;
}

void SpanLog::add(std::string name, double start, double end, std::int64_t parent,
                  std::uint64_t request) {
  spans_.push_back(Span{std::move(name), start, end, parent, request});
}

std::map<std::string, SpanLog::Totals> SpanLog::totals() const {
  // Children of one span run one after another here, so the time they cover
  // is the sum of their durations.
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) child_time[static_cast<std::size_t>(span.parent)] += span.end - span.start;
  }
  std::map<std::string, Totals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = totals[spans_[i].name];
    const double duration = spans_[i].end - spans_[i].start;
    ++t.count;
    t.total += duration;
    t.self += duration - child_time[i];
  }
  return totals;
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  char line[256];
  for (const Span& span : spans_) {
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,\"parent\":%lld,"
                  "\"request\":%llu}\n",
                  span.name.c_str(), span.start, span.end, static_cast<long long>(span.parent),
                  static_cast<unsigned long long>(span.request));
    out << line;
  }
  return static_cast<bool>(out);
}

LayerTimes replay(const Workload& workload, const ReplayPlan& plan, SpanLog& log) {
  namespace algorithms = relap::algorithms;
  namespace service = relap::service;

  // Broker A sits behind a protocol session, as in relap_serve; broker B,
  // in the same cache state, is called directly, so a solve line's own
  // parse/render time is the session call minus the direct one.
  auto session_broker = make_broker(workload, plan, "replay-session.journal");
  auto direct_broker = make_broker(workload, plan, "replay-direct.journal");
  service::SessionOptions session_options;
  session_options.batch_solves = true;
  service::Session session(*session_broker, session_options);

  std::unique_ptr<service::Journal> journal;
  if (workload.journal) {
    const std::string path = plan.work_dir + "/replay-append.journal";
    std::remove(path.c_str());
    auto opened = service::Journal::open(path, service::JournalOptions{workload.journal_fsync_every});
    if (opened.has_value()) journal = std::move(opened).take().journal;
  }

  algorithms::SolveOptions solve_options;  // the broker's defaults for obj=pareto
  const service::SolveRequest defaults;
  solve_options.auto_exhaustive_budget = defaults.max_evaluations;
  solve_options.exhaustive.max_evaluations = defaults.max_evaluations;
  solve_options.pareto_thresholds = defaults.pareto_thresholds;

  LayerTimes times;
  std::size_t misses = 0, het_solves = 0, hom_solves = 0, generator_runs = 0, exhaustive_runs = 0;
  std::size_t format_calls = 0, hits = 0;
  double format_seconds = 0.0, generator_seconds = 0.0, het_seconds = 0.0, exhaustive_cps = 0.0;
  double heuristic_seconds = 0.0;
  const double stop_at = log.now() + plan.budget_seconds;
  std::string out;

  for (const auto& [id, pool_index] : plan.requests) {
    if (log.now() >= stop_at) break;
    const Request& request = workload.pool[pool_index % workload.pool.size()];
    const std::vector<std::string_view> lines = split_lines(request.text);
    const std::int64_t root = log.open("request", -1, id);

    std::int64_t span = log.open("session.upload", root, id);
    for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
      out.clear();
      (void)session.handle_line(lines[i], out);
    }
    const double upload = log.close(span);
    out.clear();
    span = log.open("session.solve_line", root, id);
    (void)session.handle_line(lines.back(), out);
    const double solve_line = log.close(span);

    service::SolveRequest solve_request;
    solve_request.instance = request.presented.data;
    solve_request.objective = service::Objective::ParetoFront;
    span = log.open("broker.solve", root, id);
    const auto reply = direct_broker->solve(solve_request);
    const double broker_solve = log.close(span);

    span = log.open("canonical.canonicalize", root, id);
    const auto canonical = service::canonicalize(request.presented.data);
    const double canonicalize = log.close(span);
    if (!reply.has_value() || !canonical.has_value()) {
      log.close(root);
      continue;
    }
    span = log.open("canonical.denormalize", root, id);
    (void)service::denormalize_front(*canonical, reply->front);
    times.denormalize += log.close(span);

    span = log.open("strings.format_double", root, id);
    for (const algorithms::ParetoSolution& point : reply->front) {
      (void)relap::util::format_double(point.latency);
      (void)relap::util::format_double(point.failure_probability);
    }
    format_seconds += log.close(span);
    format_calls += 2 * reply->front.size();

    if (!reply->cache_hit) {
      ++misses;
      span = log.open("algorithms.solve_pareto_front", root, id);
      auto report = algorithms::solve_pareto_front(canonical->pipeline, canonical->platform,
                                                   solve_options);
      const double pareto = log.close(span);
      if (report.has_value()) {
        times.front_points += static_cast<double>(report->front.size());
        if (is_polynomial(request.presented.cls)) {
          times.hom_pareto += pareto;
          ++hom_solves;
        } else {
          het_seconds += pareto;
          ++het_solves;
        }
        if (report->evaluations > 0) {
          exhaustive_cps += static_cast<double>(report->evaluations) / pareto;
          ++exhaustive_runs;
        } else if (!is_polynomial(request.presented.cls)) {
          // One pass of the three candidate generators, each into a
          // counting sink.
          const std::int64_t pass = log.open("algorithms.generators", root, id);
          const struct {
            const char* name;
            void (*run)(const relap::pipeline::Pipeline&, const relap::platform::Platform&,
                        const algorithms::HeuristicOptions&, const algorithms::CandidateSink&);
            double* seconds;
            double* candidates;
          } generators[] = {
              {"algorithms.beam", algorithms::enumerate_beam_candidates, &times.beam,
               &times.beam_candidates},
              {"algorithms.greedy_split", algorithms::enumerate_greedy_split_candidates,
               &times.greedy_split, &times.greedy_split_candidates},
              {"algorithms.single_interval", algorithms::enumerate_single_interval_candidates,
               &times.single_interval, &times.single_interval_candidates},
          };
          for (const auto& generator : generators) {
            std::size_t count = 0;
            const algorithms::CandidateSink sink = [&count](algorithms::Solution) { ++count; };
            span = log.open(generator.name, pass, id);
            generator.run(canonical->pipeline, canonical->platform, solve_options.heuristic, sink);
            *generator.seconds += log.close(span);
            *generator.candidates += static_cast<double>(count);
          }
          generator_seconds += log.close(pass);
          heuristic_seconds += pareto;
          ++generator_runs;
        }
        if (journal != nullptr) {
          service::FrontCache::ExportedEntry entry{
              canonical->key_hash, canonical->key_bytes,
              std::make_shared<const algorithms::FrontReport>(std::move(*report))};
          span = log.open("journal.append", root, id);
          (void)journal->append(entry);
          times.journal_append += log.close(span);
        }
      }
    }
    log.close(root);

    ++times.replayed;
    times.upload += upload;
    times.solve_line += solve_line;
    times.canonicalize += canonicalize;
    if (reply->cache_hit) {
      // On a miss both calls solve, and solver noise would swamp the render.
      times.render_self += solve_line - broker_solve;
      ++hits;
    }
    times.reply_bytes += static_cast<double>(out.size());
    times.server_seconds[id] = upload + solve_line;
  }

  const std::size_t n = times.replayed;
  times.upload = mean(times.upload, n);
  times.solve_line = mean(times.solve_line, n);
  times.render_self = mean(times.render_self, hits);
  times.reply_bytes = mean(times.reply_bytes, n);
  times.canonicalize = mean(times.canonicalize, n);
  times.denormalize = mean(times.denormalize, n);
  times.format_double = mean(format_seconds, format_calls);
  times.format_calls_per_reply = mean(static_cast<double>(format_calls), n);
  times.journal_append = mean(times.journal_append, journal != nullptr ? misses : 0);
  times.pareto = mean(het_seconds, het_solves);
  times.hom_pareto = mean(times.hom_pareto, hom_solves);
  times.front_points = mean(times.front_points, het_solves + hom_solves);
  times.exhaustive_candidates_per_s = mean(exhaustive_cps, exhaustive_runs);
  for (double* value : {&times.beam, &times.greedy_split, &times.single_interval,
                        &times.beam_candidates, &times.greedy_split_candidates,
                        &times.single_interval_candidates}) {
    *value = mean(*value, generator_runs);
  }
  // Heuristic-path solves only: solve time over one generator pass.
  times.generator_passes = generator_seconds > 0.0 ? heuristic_seconds / generator_seconds : 0.0;
  return times;
}

}  // namespace servbench
