// servbench: the serving benchmark. Runs relap_serve as a child process and
// drives it over loopback TCP with a closed loop on 4 connections, checking
// every reply; with --trace 1 it instead measures the layers (see replay.hpp).
//
//   servbench --workload warm_wire|cold_het|mixed_churn --seed N --seconds S
//             --trace 0|1 --server PATH --work-dir DIR
//
// The last stdout line is the result:
//   {"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"},...}}
// Lines before it are a readable report and a `provenance {...}` line.
// Usually started through run.py, which builds the server and this binary.

#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "check.hpp"
#include "relap/algorithms/pareto_driver.hpp"
#include "replay.hpp"
#include "wire.hpp"
#include "workload.hpp"

#ifndef SERVBENCH_BUILD_TYPE
#define SERVBENCH_BUILD_TYPE "unknown"
#endif
#ifndef SERVBENCH_COMPILER
#define SERVBENCH_COMPILER "unknown"
#endif

namespace servbench {
namespace {

constexpr std::size_t kConnections = 4;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepetitions = 3;
/// Closed-loop time before measuring starts (not reported).
constexpr double kWarmupSeconds = 1.0;
/// Longest in-process replay of a traced run.
constexpr double kReplayBudgetSeconds = 10.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string server;
  std::string work_dir;
};

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + '"';
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile of sorted `values`; `beyond` = samples above it.
double percentile(const std::vector<double>& sorted, double p, std::size_t& beyond) {
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(sorted.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  beyond = sorted.size() - index - 1;
  return sorted[index];
}

struct Tail {
  double value = 0.0;
  std::string name = "max";
  std::size_t beyond = 0;
};

/// The highest of p99/p95/p90 with at least 10 samples beyond it (else the
/// maximum).
Tail tail_latency(std::vector<double> values) {
  Tail tail;
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  for (const auto& [p, name] : {std::pair{0.99, "p99"}, {0.95, "p95"}, {0.90, "p90"}}) {
    std::size_t beyond = 0;
    const double value = percentile(values, p, beyond);
    if (beyond >= 10) return Tail{value, name, beyond};
  }
  tail.value = values.back();
  return tail;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// One request as the client saw it.
struct Record {
  std::uint64_t id = 0;
  std::size_t pool_index = 0;
  double start = 0.0;  ///< steady-clock seconds
  double end = 0.0;
  bool ok = false;     ///< served and verified
  bool wrong = false;  ///< served, but the output failed a check
  bool exact = false;
  ServerSpans spans;
  std::string why;
};

struct Phase {
  std::vector<Record> records;
  double wall = 0.0;
  double client_cpu = 0.0;
  std::size_t connects = 0;
};

class Bench {
 public:
  Bench(const Args& args, const Workload& workload) : args_(args), w_(workload) {
    quality_.assign(w_.bases.size(), false);
    for (const std::size_t base : w_.quality_sample) quality_[base] = true;
  }

  std::vector<std::string> server_flags() const {
    std::vector<std::string> flags;
    if (w_.cache_entries > 0) {
      flags.insert(flags.end(), {"--cache-entries", std::to_string(w_.cache_entries)});
    }
    if (w_.journal) {
      flags.insert(flags.end(), {"--journal", journal_path(), "--journal-fsync-every",
                                 std::to_string(w_.journal_fsync_every)});
    }
    return flags;
  }

  std::string journal_path() const { return args_.work_dir + "/server.journal"; }

  /// Spawns the server, opens the connections and (warm_wire) primes the
  /// cache. Returns the set-up time, or a negative value on failure.
  double set_up(ServerProcess& server, std::vector<Connection>& conns) {
    std::remove(journal_path().c_str());
    const double start = now_seconds();
    std::string error;
    if (!server.start(args_.server, server_flags(), error)) {
      std::fprintf(stderr, "servbench: %s\n", error.c_str());
      return -1.0;
    }
    conns = std::vector<Connection>(kConnections);
    for (Connection& conn : conns) {
      if (!conn.open(server.port()) || request_line(conn, "ping\n") != "ok pong") {
        std::fprintf(stderr, "servbench: connection to relap_serve failed\n");
        return -1.0;
      }
    }
    std::atomic<bool> primed{true};
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        for (std::size_t b = c; b < w_.priming.size(); b += kConnections) {
          const Record record = serve_one(conns[c], w_.priming[b], 0, b);
          if (!record.ok) {
            std::fprintf(stderr, "servbench: priming base %zu failed: %s\n", b,
                         record.why.c_str());
            primed = false;
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    if (!primed) return -1.0;
    return now_seconds() - start;
  }

  /// Sends one request and checks its replies.
  Record serve_one(Connection& conn, const Request& request, std::uint64_t id,
                   std::size_t pool_index) {
    Record record;
    record.id = id;
    record.pool_index = pool_index;
    record.start = now_seconds();
    const bool sent = conn.send_all(request.text);
    const SolveReply reply = sent ? read_solve_reply(conn) : failed_reply("send failed");
    record.end = now_seconds();
    if (!reply.ok) {
      record.why = reply.error;
      return record;
    }
    record.exact = reply.exact;
    record.spans = reply.spans;
    Front front;
    if (!verify_reply(request.presented, reply, front, record.why) ||
        !ledger_.expect_checksum(request.base, reply.front_checksum, record.why)) {
      record.wrong = true;
      return record;
    }
    ledger_.keep_front(request.base, reply.exact, quality_[request.base], front);
    record.ok = true;
    return record;
  }

  /// The closed loop: each connection sends its next request when the
  /// previous reply is in. Requests started in the first `warmup` seconds
  /// are not recorded.
  Phase run(std::uint16_t port, std::vector<Connection>& conns, double warmup, double seconds) {
    const double measure_start = now_seconds() + warmup;
    const double measure_end = measure_start + seconds;
    std::vector<std::vector<Record>> recorded(kConnections);
    std::vector<std::size_t> connects(kConnections, 0);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        Connection& conn = conns[c];
        std::size_t on_connection = 0;
        while (now_seconds() < measure_end) {
          const std::uint64_t id = next_id_.fetch_add(1);
          if (!conn.is_open()) {
            on_connection = 0;
            if (!conn.open(port)) {
              Record refused;
              refused.id = id;
              refused.pool_index = id % w_.pool.size();
              refused.start = refused.end = now_seconds();
              refused.why = "connect failed";
              if (refused.start >= measure_start) recorded[c].push_back(refused);
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
              continue;
            }
            ++connects[c];
          }
          const std::size_t pool_index = id % w_.pool.size();
          Record record = serve_one(conn, w_.pool[pool_index], id, pool_index);
          if (!record.ok && !record.wrong) conn.close();
          if (record.start >= measure_start) recorded[c].push_back(std::move(record));
          if (w_.requests_per_connection > 0 && conn.is_open() &&
              ++on_connection == w_.requests_per_connection) {
            // Churn: end the session and wait for the server to close.
            std::string line;
            if (request_line(conn, "quit\n") == "ok bye") {
              while (conn.read_line(line)) {
              }
            }
            conn.close();
          }
        }
      });
    }
    const double sleep_for = measure_start - now_seconds();
    if (sleep_for > 0) std::this_thread::sleep_for(std::chrono::duration<double>(sleep_for));
    const double cpu_start = process_cpu_seconds();
    for (std::thread& thread : threads) thread.join();
    Phase phase;
    phase.client_cpu = process_cpu_seconds() - cpu_start;
    double last_end = measure_start;
    for (std::size_t c = 0; c < kConnections; ++c) {
      phase.connects += connects[c];
      for (Record& record : recorded[c]) {
        last_end = std::max(last_end, record.end);
        phase.records.push_back(std::move(record));
      }
    }
    std::sort(phase.records.begin(), phase.records.end(),
              [](const Record& a, const Record& b) { return a.id < b.id; });
    phase.wall = last_end - measure_start;
    return phase;
  }

  /// Compares kept fronts with exact ones: every exact=1 front must equal
  /// its reference, and the quality sample yields front_fp_ratio (mean over
  /// the sample of algorithms::front_fp_ratio). Returns the mismatches.
  std::size_t check_against_exact(double& fp_ratio, std::size_t& sampled) {
    std::size_t mismatches = 0;
    double ratio_sum = 0.0;
    sampled = 0;
    for (const auto& [base, kept] : ledger_.kept()) {
      auto reference = exact_front(w_.bases[base]);
      if (!reference.has_value()) {
        std::fprintf(stderr, "servbench: no exact front for base %zu: %s\n", base,
                     reference.error().to_string().c_str());
        ++mismatches;
        continue;
      }
      if (kept.exact && !same_points(kept.front, *reference)) {
        std::fprintf(stderr, "servbench: base %zu served exact=1 but differs from the exact front\n",
                     base);
        ++mismatches;
      }
      if (quality_[base]) {
        ratio_sum += relap::algorithms::front_fp_ratio(kept.front, *reference);
        ++sampled;
      }
    }
    fp_ratio = sampled == 0 ? 0.0 : ratio_sum / static_cast<double>(sampled);
    return mismatches;
  }

  std::atomic<std::uint64_t> next_id_{0};

 private:
  const Args& args_;
  const Workload& w_;
  Ledger ledger_;
  std::vector<bool> quality_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("metric %-36s %16s %s\n", metric.name.c_str(), number(metric.value).c_str(),
                metric.unit.c_str());
  }
  std::string json = "{\"correct\":" + std::string(correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(attempted) +
                     ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ',';
    json += quoted(metrics[i].name) + ":{\"value\":" + number(metrics[i].value) +
            ",\"unit\":" + quoted(metrics[i].unit) + '}';
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

struct Counts {
  std::size_t attempted = 0;
  std::size_t ok = 0;
  std::size_t wrong = 0;
  std::size_t inexact = 0;
  std::vector<double> latencies_ms;
};

Counts count(const Phase& phase) {
  Counts counts;
  for (const Record& record : phase.records) {
    ++counts.attempted;
    if (record.wrong) {
      ++counts.wrong;
      if (counts.wrong <= 5) {
        std::fprintf(stderr, "servbench: wrong reply to request %llu: %s\n",
                     static_cast<unsigned long long>(record.id), record.why.c_str());
      }
    }
    if (!record.ok) continue;
    ++counts.ok;
    if (!record.exact) ++counts.inexact;
    counts.latencies_ms.push_back((record.end - record.start) * 1e3);
  }
  return counts;
}

std::string provenance(const Args& args, const Workload& w, const std::vector<std::string>& flags,
                       double generate_s, std::size_t requests_issued) {
  std::string flag_list;
  for (const std::string& flag : flags) {
    flag_list += (flag_list.empty() ? "" : ",") +
                 quoted(flag.find('/') != std::string::npos ? "<scratch>/server.journal" : flag);
  }
  return "provenance {\"workload\":" + quoted(w.name) + ",\"seed\":" + std::to_string(args.seed) +
         ",\"seconds\":" + number(args.seconds) + ",\"trace\":" + std::to_string(args.trace) +
         ",\"server_flags\":[\"--port\",\"0\"" + (flag_list.empty() ? "" : ",") + flag_list +
         "],\"connections\":" + std::to_string(kConnections) +
         ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ",\"cpu\":" + quoted(cpu_model()) + ",\"compiler\":" + quoted(SERVBENCH_COMPILER) +
         ",\"build_type\":" + quoted(SERVBENCH_BUILD_TYPE) +
         ",\"bases\":" + std::to_string(w.bases.size()) +
         ",\"pool\":" + std::to_string(w.pool.size()) +
         ",\"pool_wrapped\":" + (requests_issued > w.pool.size() ? "true" : "false") +
         ",\"generate_s\":" + number(generate_s) + "}";
}

int run_untraced(const Args& args, const Workload& w, double generate_s) {
  Bench bench(args, w);
  ServerProcess server;
  std::vector<Connection> conns;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    if (rep > 0) {
      conns.clear();
      (void)server.stop();
    }
    const double setup = bench.set_up(server, conns);
    if (setup < 0) return 1;
    setups.push_back(setup);
  }
  const Phase phase = bench.run(server.port(), conns, kWarmupSeconds, args.seconds);
  const ProcStatus status = server.status();
  conns.clear();
  const int exit_status = server.stop();
  const bool clean_exit = WIFEXITED(exit_status) && WEXITSTATUS(exit_status) == 0;
  if (!clean_exit) {
    std::fprintf(stderr, "servbench: relap_serve did not exit cleanly; its stderr:\n%s\n",
                 server.log().c_str());
  }

  double fp_ratio = 0.0;
  std::size_t sampled = 0;
  const std::size_t mismatches = bench.check_against_exact(fp_ratio, sampled);
  const Counts counts = count(phase);
  const Tail tail = tail_latency(counts.latencies_ms);
  const double busy = phase.client_cpu / (phase.wall * static_cast<double>(kConnections));

  std::printf("%s\n", provenance(args, w, bench.server_flags(), generate_s,
                                 bench.next_id_.load()).c_str());
  std::printf("workload %s: %zu requests in %.3f s over %zu connection(s) opened, %zu verified\n",
              w.name.c_str(), counts.attempted, phase.wall, phase.connects + kConnections,
              counts.ok);
  std::printf("latency_tail_ms is %s with %zu samples beyond it (of %zu)\n", tail.name.c_str(),
              tail.beyond, counts.latencies_ms.size());
  std::printf("front_fp_ratio over %zu of %zu quality-set bases; client busy share %.4f\n",
              sampled, w.quality_sample.size(), busy);

  const double attempted = static_cast<double>(std::max<std::size_t>(counts.attempted, 1));
  const std::vector<Metric> metrics = {
      {"req_per_s", static_cast<double>(counts.ok) / phase.wall, "1/s"},
      {"latency_p50_ms", median(counts.latencies_ms), "ms"},
      {"latency_tail_ms", tail.value, "ms"},
      {"ok_rate", static_cast<double>(counts.ok) / attempted, "ratio"},
      {"setup_s", median(setups), "s"},
      {"server_peak_rss_mb", status.vm_hwm_mb, "MB"},
      {"front_fp_ratio", fp_ratio, "ratio"},
      {"inexact_share", static_cast<double>(counts.inexact) / std::max(1.0, double(counts.ok)),
       "ratio"},
  };
  const bool correct = counts.wrong == 0 && mismatches == 0 && clean_exit && counts.ok > 0;
  print_result(correct, counts.attempted, counts.attempted - counts.ok + mismatches, metrics);
  return 0;
}

/// `stats` JSON from a fresh control connection.
std::string fetch_stats(std::uint16_t port) {
  Connection conn;
  if (!conn.open(port)) return {};
  const std::string reply = request_line(conn, "stats\n");
  (void)request_line(conn, "quit\n");
  return reply;
}

int run_traced(const Args& args, const Workload& w, double generate_s) {
  Bench bench(args, w);
  ServerProcess server;
  std::vector<Connection> conns;
  if (bench.set_up(server, conns) < 0) return 1;
  ReplayPlan plan;
  plan.work_dir = args.work_dir;
  plan.budget_seconds = std::min(args.seconds, kReplayBudgetSeconds);
  // The same closed loop as an untraced run; comparing this phase's
  // end-to-end figures with the untraced run of the same seed gives the
  // tracing overhead. Layer counters are the server's stats deltas over it.
  (void)bench.run(server.port(), conns, 0.0, kWarmupSeconds);
  // The replay starts from the server's cache as the traced phase does.
  plan.snapshot_path = args.work_dir + "/replay-start.snap";
  {
    Connection control;
    if (!control.open(server.port()) ||
        request_line(control, "snapshot save " + plan.snapshot_path + "\n").rfind("ok", 0) != 0) {
      std::fprintf(stderr, "servbench: snapshot of the server cache failed\n");
      return 1;
    }
  }
  const std::string stats_before = fetch_stats(server.port());
  SpanLog log;
  const double log_origin = now_seconds() - log.now();
  const Phase traced = bench.run(server.port(), conns, 0.0, args.seconds);
  const std::string stats_after = fetch_stats(server.port());
  const ProcStatus status = server.status();
  conns.clear();
  (void)server.stop();

  ServerSpans span_sum;
  std::size_t solved = 0;
  for (const Record& record : traced.records) {
    log.add("wire.request", record.start - log_origin, record.end - log_origin, -1, record.id);
    plan.requests.emplace_back(record.id, record.pool_index);
    span_sum.queue_wait += record.spans.queue_wait;
    span_sum.canonicalize += record.spans.canonicalize;
    span_sum.cache_probe += record.spans.cache_probe;
    span_sum.denormalize += record.spans.denormalize;
    if (record.spans.solve > 0.0) {
      span_sum.solve += record.spans.solve;
      ++solved;
    }
  }
  const LayerTimes layers = replay(w, plan, log);

  std::vector<double> transport_ms;
  for (const Record& record : traced.records) {
    const auto it = layers.server_seconds.find(record.id);
    if (record.ok && it != layers.server_seconds.end()) {
      transport_ms.push_back((record.end - record.start - it->second) * 1e3);
    }
  }

  const std::string spans_path = args.work_dir + "/../spans-" + w.name + ".jsonl";
  const bool written = log.write(spans_path);
  std::printf("%s\n", provenance(args, w, bench.server_flags(), generate_s,
                                 bench.next_id_.load()).c_str());
  std::printf("traced %zu wire requests, replayed %zu in-process; %zu spans %s %s\n",
              traced.records.size(), layers.replayed, log.size(),
              written ? "written to" : "NOT written to", spans_path.c_str());
  std::printf("%-32s %8s %14s %14s\n", "span", "count", "total_ms", "self_ms");
  for (const auto& [name, totals] : log.totals()) {
    std::printf("%-32s %8zu %14.3f %14.3f\n", name.c_str(), totals.count, totals.total * 1e3,
                totals.self * 1e3);
  }

  const Counts counts = count(traced);
  const std::size_t n = std::max<std::size_t>(counts.attempted, 1);
  const auto delta = [&](std::string_view key, std::string_view after = {}) {
    const double d = json_number(stats_after, key, after) - json_number(stats_before, key, after);
    return std::isfinite(d) ? d : 0.0;
  };
  const double requests = delta("requests_total");
  const double hits = delta("hits");
  const double misses = delta("misses");
  const double records = delta("records_appended", "\"journal\"");
  const double bytes = delta("file_bytes", "\"journal\"");
  const auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const std::vector<Metric> metrics = {
      {"server.upload_us", layers.upload * 1e6, "us"},
      {"server.solve_line_us", layers.solve_line * 1e6, "us"},
      {"server.render_self_us", layers.render_self * 1e6, "us"},
      {"server.reply_bytes", layers.reply_bytes, "bytes"},
      {"server.transport_wait_ms", median(transport_ms), "ms"},
      {"server.threads_end", status.threads, "count"},
      {"server.vm_mb_end", status.vm_size_mb, "MB"},
      {"broker.queue_wait_us", span_sum.queue_wait / double(n) * 1e6, "us"},
      {"broker.canonicalize_us", span_sum.canonicalize / double(n) * 1e6, "us"},
      {"broker.cache_probe_us", span_sum.cache_probe / double(n) * 1e6, "us"},
      {"broker.denormalize_us", span_sum.denormalize / double(n) * 1e6, "us"},
      {"broker.solve_ms", per(span_sum.solve, double(solved)) * 1e3, "ms"},
      {"broker.dedup_share", per(delta("deduped_total"), requests), "ratio"},
      {"broker.solves", delta("solves_total"), "count"},
      {"broker.requests_total", requests, "count"},
      {"canonical.canonicalize_us", layers.canonicalize * 1e6, "us"},
      {"canonical.denormalize_us", layers.denormalize * 1e6, "us"},
      {"cache.hit_rate", per(hits, hits + misses), "ratio"},
      {"cache.hits", hits, "count"},
      {"cache.misses", misses, "count"},
      {"cache.evictions", delta("evictions"), "count"},
      {"journal.append_us", layers.journal_append * 1e6, "us"},
      {"journal.fsyncs", delta("fsyncs", "\"journal\""), "count"},
      {"journal.bytes_per_record", per(bytes, records), "bytes"},
      {"algorithms.pareto_ms", layers.pareto * 1e3, "ms"},
      {"algorithms.beam_ms", layers.beam * 1e3, "ms"},
      {"algorithms.greedy_split_ms", layers.greedy_split * 1e3, "ms"},
      {"algorithms.single_interval_ms", layers.single_interval * 1e3, "ms"},
      {"algorithms.beam_candidates", layers.beam_candidates, "count"},
      {"algorithms.greedy_split_candidates", layers.greedy_split_candidates, "count"},
      {"algorithms.single_interval_candidates", layers.single_interval_candidates, "count"},
      {"algorithms.generator_passes", layers.generator_passes, "ratio"},
      {"algorithms.hom_pareto_ms", layers.hom_pareto * 1e3, "ms"},
      {"algorithms.exhaustive_candidates_per_s", layers.exhaustive_candidates_per_s, "1/s"},
      {"algorithms.front_points", layers.front_points, "count"},
      {"strings.format_double_us", layers.format_double * 1e6, "us"},
      {"strings.format_calls_per_reply", layers.format_calls_per_reply, "count"},
      {"client.busy_share",
       traced.client_cpu / (traced.wall * static_cast<double>(kConnections)), "ratio"},
      {"trace.req_per_s", static_cast<double>(counts.ok) / traced.wall, "1/s"},
      {"trace.latency_p50_ms", median(counts.latencies_ms), "ms"},
      {"trace.replayed_requests", static_cast<double>(layers.replayed), "count"},
  };
  const bool correct = counts.wrong == 0 && counts.ok > 0 && layers.replayed > 0;
  print_result(correct, counts.attempted, counts.attempted - counts.ok, metrics);
  return 0;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0 && args.seconds <= 120.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1" ? 1 : 0;
    } else if (key == "--server") {
      args.server = value;
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0 && args.trace >= 0 &&
         !args.server.empty() && !args.work_dir.empty();
}

}  // namespace
}  // namespace servbench

int main(int argc, char** argv) {
  using namespace servbench;
  Args args;
  Kind kind = Kind::WarmWire;
  if (!parse_args(argc, argv, args) || !parse_kind(args.workload, kind)) {
    std::fprintf(stderr,
                 "usage: servbench --workload warm_wire|cold_het|mixed_churn --seed N "
                 "--seconds S --trace 0|1 --server PATH --work-dir DIR\n");
    return 2;
  }
  ::mkdir(args.work_dir.c_str(), 0755);
  char resolved[4096];
  if (::realpath(args.work_dir.c_str(), resolved) == nullptr) {
    std::fprintf(stderr, "servbench: bad work dir %s\n", args.work_dir.c_str());
    return 2;
  }
  args.work_dir = resolved;

  const double start = now_seconds();
  const Workload workload = make_workload(kind, args.seed, args.seconds);
  const double generate_s = now_seconds() - start;
  return args.trace == 1 ? run_traced(args, workload, generate_s)
                         : run_untraced(args, workload, generate_s);
}
