#pragma once

// The wire side of the benchmark: the relap_serve child process, a blocking
// loopback client, and the parser for one pipelined request's replies.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace servbench {

/// Figures read from /proc/<pid>/status.
struct ProcStatus {
  double vm_hwm_mb = 0.0;   ///< peak resident set (VmHWM)
  double vm_size_mb = 0.0;  ///< virtual size (VmSize)
  double threads = 0.0;     ///< Threads
};

/// `relap_serve --port 0 <flags>` as a child process, in the benchmark's
/// process group. `stop` (also run by the destructor) always reaps it.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess();

  /// Spawns the server and waits for its `listening on` line. Returns false
  /// (with `error` set) if it does not come up within 30 s.
  bool start(const std::string& binary, const std::vector<std::string>& flags,
             std::string& error);

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] ProcStatus status() const;

  /// SIGTERM (graceful drain), then SIGKILL after 10 s; reaps the child and
  /// collects its stderr. Returns the exit status as from waitpid.
  int stop();

  /// Everything the server wrote to stderr; read it only after `stop`.
  [[nodiscard]] const std::string& log() const { return log_; }

 private:
  pid_t pid_ = -1;
  int stderr_fd_ = -1;
  std::uint16_t port_ = 0;
  std::string log_;
  std::thread drain_;  ///< appends the child's stderr to log_ until EOF
};

/// A blocking loopback TCP client with no socket options beyond a receive
/// timeout: what a plain tenant opens.
class Connection {
 public:
  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() { close(); }

  bool open(std::uint16_t port);
  void close();
  [[nodiscard]] bool is_open() const { return fd_ >= 0; }

  /// Writes all of `bytes` (one send call unless the kernel takes less).
  bool send_all(std::string_view bytes);
  /// Reads one '\n'-terminated line (terminator stripped). False on
  /// connection loss or receive timeout.
  bool read_line(std::string& line);

 private:
  int fd_ = -1;
  std::string buffer_;
  std::size_t offset_ = 0;
};

/// One front point as served.
struct ServedPoint {
  double latency = 0.0;
  double fp = 0.0;
  std::string mapping;
};

/// Per-request spans the server reports on its `trace` line (seconds).
struct ServerSpans {
  double queue_wait = 0.0;
  double canonicalize = 0.0;
  double cache_probe = 0.0;
  double solve = 0.0;
  double denormalize = 0.0;
};

/// The replies to one pipelined request (`ok instance ...` then the solve
/// reply). `ok` is false on a transport failure or an `err` line.
struct SolveReply {
  bool ok = false;
  std::string error;
  bool cache_hit = false;
  bool exact = false;
  std::size_t points_field = 0;
  std::uint64_t front_checksum = 0;
  ServerSpans spans;
  std::vector<ServedPoint> points;
};

/// A reply that failed with `error`.
[[nodiscard]] SolveReply failed_reply(std::string error);

/// Reads the two replies one request produces.
[[nodiscard]] SolveReply read_solve_reply(Connection& conn);

/// Sends `line` and returns the single reply line ("" on failure).
[[nodiscard]] std::string request_line(Connection& conn, std::string_view line);

/// Numeric field `"key":<number>` inside `json` (first occurrence after
/// `after`, if given); NaN if absent.
[[nodiscard]] double json_number(std::string_view json, std::string_view key,
                                 std::string_view after = {});

}  // namespace servbench
