#include "wire.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>

namespace servbench {

namespace {

/// Receive timeout of benchmark connections: a reply slower than this counts
/// as timed out.
constexpr int kReceiveTimeoutSeconds = 30;

bool parse_hex(std::string_view text, std::uint64_t& value) {
  if (text.substr(0, 2) != "0x") return false;
  text.remove_prefix(2);
  const auto result = std::from_chars(text.data(), text.data() + text.size(), value, 16);
  return result.ec == std::errc{} && result.ptr == text.data() + text.size();
}

bool parse_number(std::string_view text, double& value) {
  const auto result = std::from_chars(text.data(), text.data() + text.size(), value);
  return result.ec == std::errc{} && result.ptr == text.data() + text.size();
}

/// Value of `key=` among the space-separated fields of `line`.
std::string_view field(std::string_view line, std::string_view key) {
  std::size_t pos = 0;
  while (pos < line.size()) {
    std::size_t end = line.find(' ', pos);
    if (end == std::string_view::npos) end = line.size();
    const std::string_view token = line.substr(pos, end - pos);
    if (token.size() > key.size() && token.substr(0, key.size()) == key &&
        token[key.size()] == '=') {
      return token.substr(key.size() + 1);
    }
    pos = end + 1;
  }
  return {};
}

/// Parses a solve reply already split into lines (header line first).
SolveReply parse_solve_reply(const std::vector<std::string>& lines) {
  SolveReply reply;
  if (lines.empty() || lines.front().rfind("ok solve ", 0) != 0) {
    reply.error = lines.empty() ? "empty reply" : lines.front();
    return reply;
  }
  const std::string_view header = lines.front();
  reply.cache_hit = field(header, "cache") == "hit";
  reply.exact = field(header, "exact") == "1";
  double points = 0.0;
  if (!parse_number(field(header, "points"), points) ||
      !parse_hex(field(header, "front"), reply.front_checksum)) {
    reply.error = "malformed solve header: " + lines.front();
    return reply;
  }
  reply.points_field = static_cast<std::size_t>(points);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string_view line = lines[i];
    if (line.rfind("trace ", 0) == 0) {
      reply.spans.queue_wait = json_number(line, "queue_wait_s");
      reply.spans.canonicalize = json_number(line, "canonicalize_s");
      reply.spans.cache_probe = json_number(line, "cache_probe_s");
      reply.spans.solve = json_number(line, "solve_s");
      reply.spans.denormalize = json_number(line, "denormalize_s");
    } else if (line.rfind("point ", 0) == 0) {
      ServedPoint point;
      // The mapping text has spaces between intervals: it runs to the end.
      const std::size_t at = line.find(" mapping=");
      if (at != std::string_view::npos) point.mapping = std::string(line.substr(at + 9));
      if (!parse_number(field(line, "latency"), point.latency) ||
          !parse_number(field(line, "fp"), point.fp) || point.mapping.empty()) {
        reply.error = "malformed point line: " + lines[i];
        return reply;
      }
      reply.points.push_back(std::move(point));
    }
  }
  reply.ok = true;
  return reply;
}

}  // namespace

ServerProcess::~ServerProcess() {
  if (pid_ > 0) (void)stop();
}

bool ServerProcess::start(const std::string& binary, const std::vector<std::string>& flags,
                          std::string& error) {
  port_ = 0;
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  std::vector<std::string> args = {binary, "--port", "0"};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  // posix_spawn, not fork: forking copies the page tables of this process,
  // whose request pools run to ~100 MB, and that copy would dominate the
  // set-up time measured for the server.
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDERR_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null", O_WRONLY, 0);
  pid_t pid = -1;
  const int spawned = ::posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipe_fds[1]);
  if (spawned != 0) {
    error = std::string("posix_spawn: ") + std::strerror(spawned);
    ::close(pipe_fds[0]);
    return false;
  }
  pid_ = pid;
  stderr_fd_ = pipe_fds[0];

  // Read stderr until the listening line shows the ephemeral port.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::string pending;
  while (port_ == 0) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) break;
    pollfd pfd{stderr_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left)) <= 0) continue;
    char chunk[1024];
    const ssize_t got = ::read(stderr_fd_, chunk, sizeof chunk);
    if (got <= 0) break;
    pending.append(chunk, static_cast<std::size_t>(got));
    const std::size_t at = pending.find("listening on 127.0.0.1:");
    const std::size_t eol = at == std::string::npos ? at : pending.find('\n', at);
    if (eol != std::string::npos) {
      unsigned value = 0;
      const char* first = pending.data() + at + std::strlen("listening on 127.0.0.1:");
      std::from_chars(first, pending.data() + eol, value);
      port_ = static_cast<std::uint16_t>(value);
    }
  }
  log_ = pending;
  if (port_ == 0) {
    error = "relap_serve did not report a port: " + pending;
    (void)stop();
    return false;
  }
  // Keep draining stderr so the child never blocks on a full pipe.
  drain_ = std::thread([this] {
    char chunk[4096];
    for (;;) {
      const ssize_t got = ::read(stderr_fd_, chunk, sizeof chunk);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) break;
      log_.append(chunk, static_cast<std::size_t>(got));
    }
  });
  return true;
}

ProcStatus ServerProcess::status() const {
  ProcStatus status;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  const auto kb = [](const std::string& text) {
    return std::strtod(text.c_str() + text.find(':') + 1, nullptr) / 1024.0;
  };
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) status.vm_hwm_mb = kb(line);
    if (line.rfind("VmSize:", 0) == 0) status.vm_size_mb = kb(line);
    if (line.rfind("Threads:", 0) == 0) status.threads = kb(line) * 1024.0;
  }
  return status;
}

int ServerProcess::stop() {
  int wait_status = 0;
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    pid_t reaped = 0;
    while ((reaped = ::waitpid(pid_, &wait_status, WNOHANG)) == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (reaped == 0) {
      ::kill(pid_, SIGKILL);
      (void)::waitpid(pid_, &wait_status, 0);
    }
    pid_ = -1;
  }
  if (drain_.joinable()) drain_.join();
  if (stderr_fd_ >= 0) {
    ::close(stderr_fd_);
    stderr_fd_ = -1;
  }
  return wait_status;
}

bool Connection::open(std::uint16_t port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  timeval timeout{kReceiveTimeoutSeconds, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address), sizeof address) != 0) {
    close();
    return false;
  }
  return true;
}

void Connection::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
  offset_ = 0;
}

bool Connection::send_all(std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t sent = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (sent < 0 && errno == EINTR) continue;
    if (sent <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(sent));
  }
  return true;
}

bool Connection::read_line(std::string& line) {
  for (;;) {
    const std::size_t newline = buffer_.find('\n', offset_);
    if (newline != std::string::npos) {
      line.assign(buffer_, offset_, newline - offset_);
      offset_ = newline + 1;
      if (offset_ == buffer_.size()) {
        buffer_.clear();
        offset_ = 0;
      }
      return true;
    }
    if (fd_ < 0) return false;
    char chunk[16384];
    const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(got));
  }
}

SolveReply failed_reply(std::string error) {
  SolveReply reply;
  reply.error = std::move(error);
  return reply;
}

SolveReply read_solve_reply(Connection& conn) {
  std::string line;
  if (!conn.read_line(line)) return failed_reply("connection lost or timed out");
  const bool upload_ok = line.rfind("ok instance ", 0) == 0;
  const std::string upload_error = upload_ok ? std::string() : "upload: " + line;
  // The solve line answers either one `err` line or a block ending `done`.
  std::vector<std::string> lines;
  for (;;) {
    if (!conn.read_line(line)) return failed_reply("connection lost or timed out");
    const bool last = line == "done" || (lines.empty() && line.rfind("err ", 0) == 0);
    if (line != "done") lines.push_back(line);
    if (last) break;
  }
  SolveReply reply = parse_solve_reply(lines);
  if (!upload_ok) {
    reply.ok = false;
    reply.error = upload_error;
  }
  return reply;
}

std::string request_line(Connection& conn, std::string_view line) {
  std::string reply;
  if (!conn.send_all(line) || !conn.read_line(reply)) return {};
  return reply;
}

double json_number(std::string_view json, std::string_view key, std::string_view after) {
  std::size_t from = 0;
  if (!after.empty()) {
    from = json.find(after);
    if (from == std::string_view::npos) return std::numeric_limits<double>::quiet_NaN();
  }
  std::string quoted(1, '"');
  quoted.append(key).append("\":");
  const std::size_t at = json.find(quoted, from);
  if (at == std::string_view::npos) return std::numeric_limits<double>::quiet_NaN();
  const char* first = json.data() + at + quoted.size();
  double value = 0.0;
  const auto result = std::from_chars(first, json.data() + json.size(), value);
  if (result.ec != std::errc{}) {
    const std::string_view rest(first, static_cast<std::size_t>(json.data() + json.size() - first));
    if (rest.starts_with("true")) return 1.0;
    if (rest.starts_with("false")) return 0.0;
    return std::numeric_limits<double>::quiet_NaN();
  }
  return value;
}

}  // namespace servbench
