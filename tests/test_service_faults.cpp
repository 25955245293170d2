// Fault-injection suite for the serving stack (service/faultpoint.hpp):
// every hardened failure path actually executes under test. Torn snapshot
// writes leave the committed snapshot intact, stalled solves are cancelled
// at their deadline (or degraded to a heuristic answer), skewed clocks
// expire budgets deterministically, short socket writes are retried, EOF
// mid-line still serves the final line, idle connections are reaped,
// overloaded servers refuse connections (and free the slot again once the
// occupant leaves), and an endless partial line is cut off — all as
// structured errors, never an assert, hang or torn state.

#include "relap/service/faultpoint.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "relap/gen/pipelines.hpp"
#include "relap/gen/platforms.hpp"
#include "relap/service/broker.hpp"
#include "relap/service/server.hpp"

namespace relap::service {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint64_t kSticky = std::numeric_limits<std::uint64_t>::max();

/// Every test starts and ends with a disarmed registry — a leaked armed
/// point would poison unrelated tests.
class Faults : public ::testing::Test {
 protected:
  void SetUp() override { faultpoint::clear(); }
  void TearDown() override { faultpoint::clear(); }
};

InstanceData small_instance(std::uint64_t seed) {
  const auto pipe = gen::random_uniform_pipeline(4, seed);
  gen::PlatformGenOptions options;
  options.processors = 4;
  const auto plat = gen::random_fully_heterogeneous(options, seed + 1);
  return InstanceData::from(pipe, plat);
}

SolveRequest pareto_request(std::uint64_t seed) {
  SolveRequest request;
  request.instance = small_instance(seed);
  request.objective = Objective::ParetoFront;
  return request;
}

std::string temp_path(const char* tag) {
  return std::string(::testing::TempDir()) + "relap_faults_" + tag + ".bin";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// --- The fault-point registry itself. ---------------------------------------

TEST_F(Faults, RegistrySkipTimesValueAndHitAccounting) {
  // Unarmed points never fire but (once anything is armed) count hits.
  faultpoint::arm("other.point");
  EXPECT_FALSE(faultpoint::should_fail("fp.test"));
  EXPECT_EQ(faultpoint::hits("fp.test"), 1U);

  // skip=1 times=2: one clean hit, two failures, then exhausted.
  faultpoint::ArmOptions options;
  options.skip = 1;
  options.times = 2;
  faultpoint::arm("fp.test", options);
  EXPECT_FALSE(faultpoint::should_fail("fp.test"));
  EXPECT_TRUE(faultpoint::should_fail("fp.test"));
  EXPECT_TRUE(faultpoint::should_fail("fp.test"));
  EXPECT_FALSE(faultpoint::should_fail("fp.test"));
  EXPECT_EQ(faultpoint::hits("fp.test"), 5U);

  // fire_value yields the armed payload exactly when the point fires.
  faultpoint::ArmOptions valued;
  valued.value = 2.5;
  faultpoint::arm("fp.value", valued);
  EXPECT_EQ(faultpoint::fire_value("fp.value"), std::optional<double>(2.5));
  EXPECT_EQ(faultpoint::fire_value("fp.value"), std::nullopt);

  // clear() disarms and zeroes counters.
  faultpoint::clear();
  EXPECT_EQ(faultpoint::hits("fp.test"), 0U);
  EXPECT_FALSE(faultpoint::should_fail("fp.value"));
  // With nothing armed, hits are not even counted (zero-cost fast path).
  EXPECT_EQ(faultpoint::hits("fp.value"), 0U);
}

// --- Torn snapshot writes. --------------------------------------------------

TEST_F(Faults, SnapshotWriteFailuresNeverTearTheCommittedSnapshot) {
  const std::string path = temp_path("torn");
  Broker broker;
  ASSERT_TRUE(broker.solve(pareto_request(1)).has_value());
  ASSERT_TRUE(broker.save_snapshot(path).has_value());
  const std::string committed = read_file(path);
  ASSERT_FALSE(committed.empty());

  // Grow the cache so a successful re-save WOULD change the file.
  ASSERT_TRUE(broker.solve(pareto_request(2)).has_value());

  for (const char* point :
       {"snapshot.open", "snapshot.write", "snapshot.fsync", "snapshot.rename"}) {
    faultpoint::arm(point);
    const auto saved = broker.save_snapshot(path);
    ASSERT_FALSE(saved.has_value()) << point;
    EXPECT_EQ(saved.error().code, "io") << point;
    EXPECT_GE(faultpoint::hits(point), 1U) << point;
    // The committed snapshot is untouched and the temp file is cleaned up.
    EXPECT_EQ(read_file(path), committed) << point;
    EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0) << point;
    // A fresh broker can still load the committed snapshot.
    Broker restored;
    const auto loaded = restored.load_snapshot(path);
    ASSERT_TRUE(loaded.has_value()) << point;
    EXPECT_EQ(loaded->entries, 1U) << point;
  }

  // With the faults cleared the save goes through and the file changes.
  faultpoint::clear();
  ASSERT_TRUE(broker.save_snapshot(path).has_value());
  EXPECT_NE(read_file(path), committed);
  std::remove(path.c_str());
}

// --- Deadline cancellation mid-solve (stalled solver). ----------------------

TEST_F(Faults, StalledSolveIsCancelledAtItsDeadline) {
  faultpoint::ArmOptions stall;
  stall.value = 0.4;  // seconds; comfortably past the 50 ms budget below
  faultpoint::arm("broker.solve_stall", stall);

  Broker broker;
  SolveRequest request = pareto_request(3);
  request.deadline = 0.05;
  const auto reply = broker.solve(request);
  ASSERT_FALSE(reply.has_value());
  EXPECT_EQ(reply.error().code, "deadline-exceeded");
  EXPECT_EQ(broker.metrics().cancelled_total.value(), 1U);
  EXPECT_EQ(broker.metrics().deadline_exceeded_total.value(), 1U);
  // The cancelled partial work was discarded, not cached.
  EXPECT_EQ(broker.cache_stats().entries, 0U);

  // The same request with no deadline solves fine afterwards.
  request.deadline = kInf;
  ASSERT_TRUE(broker.solve(request).has_value());
}

TEST_F(Faults, DegradeModeAnswersCancelledSolvesHeuristically) {
  faultpoint::ArmOptions stall;
  stall.value = 0.4;
  faultpoint::arm("broker.solve_stall", stall);

  BrokerOptions options;
  options.degrade_on_deadline = true;
  Broker broker(options);
  SolveRequest request = pareto_request(4);
  request.deadline = 0.05;
  const auto reply = broker.solve(request);
  ASSERT_TRUE(reply.has_value()) << reply.error().to_string();
  EXPECT_TRUE(reply->degraded);
  EXPECT_FALSE(reply->exact);
  EXPECT_FALSE(reply->front.empty());
  EXPECT_EQ(broker.metrics().degraded_total.value(), 1U);
  EXPECT_EQ(broker.metrics().cancelled_total.value(), 1U);
  // Degraded fronts are never cached: the next solve is a fresh miss that
  // produces the undegraded (exact-capable) answer.
  EXPECT_EQ(broker.cache_stats().entries, 0U);
  request.deadline = kInf;
  const auto exact = broker.solve(request);
  ASSERT_TRUE(exact.has_value());
  EXPECT_FALSE(exact->cache_hit);
  EXPECT_FALSE(exact->degraded);
}

// --- Clock skew. ------------------------------------------------------------

TEST_F(Faults, SkewedClockExpiresBudgetsDeterministically) {
  faultpoint::ArmOptions skew;
  skew.times = kSticky;
  skew.value = 3600.0;  // the broker believes an hour has passed
  faultpoint::arm("broker.clock_skew", skew);

  Broker broker;
  SolveRequest request = pareto_request(5);
  request.deadline = 60.0;
  const auto reply = broker.solve(request);
  ASSERT_FALSE(reply.has_value());
  EXPECT_EQ(reply.error().code, "deadline-exceeded");
  EXPECT_EQ(broker.metrics().solves_total.value(), 0U);  // rejected at dequeue

  // An unbounded request is immune to the skew.
  request.deadline = kInf;
  ASSERT_TRUE(broker.solve(request).has_value());
}

// --- Wire-level faults over TCP. --------------------------------------------

/// Minimal blocking loopback client; can half-close to simulate EOF mid-line.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address), sizeof address) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  void send_text(const std::string& text) {
    ASSERT_EQ(::send(fd_, text.data(), text.size(), 0), static_cast<ssize_t>(text.size()));
  }

  /// Half-close: the server sees EOF but can still respond.
  void finish_writing() { ::shutdown(fd_, SHUT_WR); }

  /// Reads until the peer closes the connection.
  std::string read_all() {
    std::string out;
    char buffer[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, buffer, sizeof buffer, 0);
      if (n <= 0) break;
      out.append(buffer, static_cast<std::size_t>(n));
    }
    return out;
  }

  /// Reads until `out` contains `token` (bounded by the peer closing).
  std::string read_until(const std::string& token) {
    std::string out;
    char buffer[4096];
    while (out.find(token) == std::string::npos) {
      const ssize_t n = ::recv(fd_, buffer, sizeof buffer, 0);
      if (n <= 0) break;
      out.append(buffer, static_cast<std::size_t>(n));
    }
    return out;
  }

 private:
  int fd_ = -1;
};

/// Binds an ephemeral server and runs its accept loop on a thread.
class ServerFixture {
 public:
  explicit ServerFixture(Broker& broker, ServerOptions options = {}) : options_(options) {
    auto bound = TcpServer::bind_localhost(0);
    if (!bound.has_value()) return;
    server_ = std::move(bound.value());
    thread_ = std::thread([this, &broker] { served_ = server_.serve(broker, options_); });
  }
  ~ServerFixture() {
    server_.request_stop();
    if (thread_.joinable()) thread_.join();
  }
  [[nodiscard]] std::uint16_t port() const { return server_.port(); }
  [[nodiscard]] bool running() const { return thread_.joinable(); }

 private:
  ServerOptions options_;
  TcpServer server_;
  std::thread thread_;
  std::size_t served_ = 0;
};

TEST_F(Faults, ShortSocketWritesAreRetriedToCompletion) {
  faultpoint::ArmOptions short_writes;
  short_writes.times = kSticky;  // every send is truncated to one byte
  faultpoint::arm("server.short_write", short_writes);

  Broker broker;
  ServerFixture server(broker);
  ASSERT_TRUE(server.running());
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  client.send_text("ping\nquit\n");
  EXPECT_EQ(client.read_all(), "ok pong\nok bye\n");
  // The retry loop really did go byte-by-byte.
  EXPECT_GE(faultpoint::hits("server.short_write"), 15U);
}

TEST_F(Faults, EofMidLineStillServesTheFinalLine) {
  Broker broker;
  ServerFixture server(broker);
  ASSERT_TRUE(server.running());
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  client.send_text("ping\nping");  // second line has no terminator
  client.finish_writing();
  EXPECT_EQ(client.read_all(), "ok pong\nok pong\n");
}

TEST_F(Faults, IdleConnectionsAreReapedWithATimeoutError) {
  Broker broker;
  ServerOptions options;
  options.read_timeout_ms = 100;
  ServerFixture server(broker, options);
  ASSERT_TRUE(server.running());
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  // Send nothing: the reaper closes us with one structured error line.
  const std::string response = client.read_all();
  EXPECT_EQ(response.rfind("err 0 timeout", 0), 0U) << response;
}

TEST_F(Faults, ConnectionsPastTheCapAreRefusedAsOverloaded) {
  Broker broker;
  ServerOptions options;
  options.max_connections = 1;
  ServerFixture server(broker, options);
  ASSERT_TRUE(server.running());

  Client occupant(server.port());
  ASSERT_TRUE(occupant.connected());
  occupant.send_text("ping\n");
  // Wait for the response: the occupant's connection is then registered.
  EXPECT_EQ(occupant.read_until("ok pong\n"), "ok pong\n");

  Client refused(server.port());
  ASSERT_TRUE(refused.connected());
  const std::string response = refused.read_all();
  EXPECT_EQ(response.rfind("err 0 overloaded", 0), 0U) << response;

  // The occupant is unaffected and can finish its session.
  occupant.send_text("quit\n");
  EXPECT_EQ(occupant.read_all(), "ok bye\n");

  // Its slot is free again once its connection ended: the next client is
  // served, not refused.
  Client next(server.port());
  ASSERT_TRUE(next.connected());
  next.send_text("ping\nquit\n");
  EXPECT_EQ(next.read_all(), "ok pong\nok bye\n");
  EXPECT_EQ(broker.metrics().connections_accepted_total.value(), 3U);
  EXPECT_EQ(broker.metrics().connections_refused_total.value(), 1U);
}

TEST_F(Faults, ZeroConnectionCapRefusesEveryConnection) {
  Broker broker;
  ServerOptions options;
  options.max_connections = 0;
  ServerFixture server(broker, options);
  ASSERT_TRUE(server.running());
  for (int i = 0; i < 2; ++i) {
    Client refused(server.port());
    ASSERT_TRUE(refused.connected());
    const std::string response = refused.read_all();
    EXPECT_EQ(response.rfind("err 0 overloaded", 0), 0U) << response;
  }
}

TEST_F(Faults, OversizedPartialLineIsRefusedAndClosed) {
  Broker broker;
  ServerOptions options;
  options.session.max_processor_records = 16;
  ServerFixture server(broker, options);
  ASSERT_TRUE(server.running());
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  // With 16 processor records the longest legitimate line (a `proc` row of
  // 16 link values) is a few hundred bytes; 2 KiB without a newline is past
  // the cap. (Small enough that the server reads all of it before closing.)
  client.send_text("ping\n");
  EXPECT_EQ(client.read_until("ok pong\n"), "ok pong\n");
  client.send_text(std::string(2048, 'x'));
  client.finish_writing();
  EXPECT_EQ(client.read_all(), "err 0 oversized line exceeds 704 bytes\n");
}

TEST_F(Faults, LateLinesAfterShutdownGetShuttingDown) {
  Broker broker;
  ServerFixture server(broker);
  ASSERT_TRUE(server.running());

  Client lingerer(server.port());
  ASSERT_TRUE(lingerer.connected());
  lingerer.send_text("ping\n");
  EXPECT_EQ(lingerer.read_until("ok pong\n"), "ok pong\n");

  Client controller(server.port());
  ASSERT_TRUE(controller.connected());
  controller.send_text("shutdown\n");
  EXPECT_EQ(controller.read_all(), "ok shutdown\n");

  // The lingering connection winds down with the one structured drain line
  // (a line racing ahead of the stop flag may still be served first), or a
  // bare close if the wind-down won the whole race.
  lingerer.send_text("ping\n");
  const std::string late = lingerer.read_all();
  const std::string drain_line = "err 0 shutting-down server is draining\n";
  EXPECT_TRUE(late.empty() ||
              (late.size() >= drain_line.size() &&
               late.compare(late.size() - drain_line.size(), drain_line.size(), drain_line) == 0))
      << late;
  // And the broker itself now refuses work.
  EXPECT_TRUE(broker.shutting_down());
  const auto refused = broker.solve(pareto_request(6));
  ASSERT_FALSE(refused.has_value());
  EXPECT_EQ(refused.error().code, "shutting-down");
}

}  // namespace
}  // namespace relap::service
