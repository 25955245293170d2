#pragma once

/// \file bench_util.hpp
/// Shared scaffolding for the bench binaries: every bench prints its
/// paper-shaped table(s) first (the reproduction artifact EXPERIMENTS.md
/// records), then runs its google-benchmark timings.
///
/// Benches also emit a machine-readable `BENCH_<name>.json` artifact via
/// `JsonReport` — flat key/value plus numeric arrays, enough for a CI
/// trajectory to track candidates/sec, wall times, thread counts and result
/// checksums without parsing the human tables.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "relap/util/hash.hpp"
#include "relap/util/simd.hpp"

// Build provenance macros, set per bench target by CMake; empty when a bench
// is compiled outside the CMake build.
#ifndef RELAP_BENCH_BUILD_TYPE
#define RELAP_BENCH_BUILD_TYPE ""
#endif
#ifndef RELAP_BENCH_FLAGS
#define RELAP_BENCH_FLAGS ""
#endif

/// Declares main(): print the reproduction tables, then run the registered
/// google-benchmark timings.
#define RELAP_BENCH_MAIN(print_fn)                                        \
  int main(int argc, char** argv) {                                      \
    print_fn();                                                           \
    ::benchmark::Initialize(&argc, argv);                                 \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;   \
    ::benchmark::RunSpecifiedBenchmarks();                                \
    ::benchmark::Shutdown();                                              \
    return 0;                                                             \
  }

namespace relap::benchutil {

inline void header(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

inline void note(const char* text) { std::printf("%s\n", text); }

/// Wall-clock seconds elapsed since `start` — the table timings' clock.
inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// FNV-1a 64-bit fingerprint over double bit patterns, integers and strings.
/// Used to pin a bench's result front in its JSON artifact: two runs agree
/// on the checksum iff they produced bit-identical results in the same
/// order, which is exactly the determinism contract CI exercises. The
/// implementation lives in util/hash.hpp so the service cache keys and the
/// determinism tests share it (known-answer tested there).
using Checksum = relap::util::Fnv1a;

/// Compiler name + version for the artifact metadata block.
inline std::string compiler_version() {
#if defined(__clang_version__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Minimal JSON object writer for the `BENCH_<name>.json` artifacts.
/// Supports the flat shapes the benches need: scalar fields and numeric
/// arrays. Doubles print with %.17g so the artifact round-trips exactly.
///
/// Every artifact opens with a `meta_*` provenance block — compiler, build
/// type and flags, SIMD ISA, lane width, hardware concurrency — so
/// `bench/compare_bench.py` can tell when two artifacts came from different
/// configurations instead of silently comparing their throughputs.
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {
    body_ += "{\n  \"bench\": \"" + name_ + '"';
    field("meta_compiler", compiler_version());
    field("meta_build_type", std::string(RELAP_BENCH_BUILD_TYPE));
    field("meta_flags", std::string(RELAP_BENCH_FLAGS));
    field("meta_isa", std::string(relap::util::simd::isa_name()));
    field("meta_lanes", static_cast<std::uint64_t>(relap::util::simd::kLaneWidth));
    field("meta_hardware_concurrency",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  }

  JsonReport& field(const char* key, double value) {
    begin_field(key);
    body_ += number(value);
    return *this;
  }

  JsonReport& field(const char* key, std::uint64_t value) {
    begin_field(key);
    body_ += std::to_string(value);
    return *this;
  }

  JsonReport& field(const char* key, const std::string& value) {
    begin_field(key);
    body_ += '"';
    for (const char c : value) {
      if (c == '"' || c == '\\') body_ += '\\';
      body_ += c;
    }
    body_ += '"';
    return *this;
  }

  JsonReport& field(const char* key, std::span<const double> values) {
    begin_field(key);
    body_ += '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) body_ += ", ";
      body_ += number(values[i]);
    }
    body_ += ']';
    return *this;
  }

  JsonReport& field(const char* key, std::span<const std::uint64_t> values) {
    begin_field(key);
    body_ += '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) body_ += ", ";
      body_ += std::to_string(values[i]);
    }
    body_ += ']';
    return *this;
  }

  /// Writes `BENCH_<name>.json` into the working directory and reports the
  /// path on stdout so bench logs point at their artifacts.
  void write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return;
    }
    std::fputs(body_.c_str(), out);
    std::fputs("\n}\n", out);
    std::fclose(out);
    std::printf("wrote %s\n", path.c_str());
  }

 private:
  void begin_field(const char* key) {
    body_ += ",\n  \"";
    body_ += key;
    body_ += "\": ";
  }

  static std::string number(double value) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
  }

  std::string name_;
  std::string body_;
};

}  // namespace relap::benchutil
