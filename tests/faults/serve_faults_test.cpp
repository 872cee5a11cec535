// Service-layer fault injection (docs/robustness.md, docs/service.md): the
// serve subsystem must turn every runtime fault into the PR 7 error
// taxonomy over HTTP — client disconnects cancel the request's own work,
// full admission queues shed synchronously with 429, engine-budget
// downgrades surface in the response diagnostics, and deadlines map to 504
// — while the server itself keeps answering.
#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "safeopt/serve/server.h"
#include "serve/serve_client.h"

namespace safeopt::serve {
namespace {

using tstu::http_request;
using tstu::json_document;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string corpus_1k_text() {
  return read_file(std::string(SAFEOPT_SOURCE_DIR) +
                   "/examples/corpus/corpus_1k.ft");
}

std::string cooling_system_text() {
  return read_file(std::string(SAFEOPT_SOURCE_DIR) +
                   "/examples/models/cooling_system.ft");
}

/// Sends `body` to /v1/quantify and immediately closes the socket without
/// reading the response — a client that went away mid-request.
void fire_and_disconnect(std::uint16_t port, const std::string& body) {
  TcpSocket socket = TcpSocket::connect_loopback(port);
  socket.write_all(concat("POST /v1/quantify HTTP/1.1\r\nContent-Length: ",
                          std::to_string(body.size()), "\r\n\r\n", body));
  socket.close();
}

TEST(ServeFaultsTest, ClientDisconnectCancelsTheRequestsOwnWork) {
  ServerOptions options;
  options.threads = 1;
  Server server(options);
  server.start();

  // corpus_1k's engine work is far from instant; a vanished client must
  // abort it at the first cooperative checkpoint instead of computing an
  // answer nobody reads.
  const std::string body =
      "{\"document\": " + json_document(corpus_1k_text()) + "}";
  fire_and_disconnect(server.port(), body);

  // The abort surfaces either as a thrown Error(kCancelled) (counted 499)
  // or as an aborted partial result (non-reusable, so never cached). Both
  // end with the scheduler idle again well before the full computation
  // could have finished.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    const SchedulerStats scheduler = server.scheduler_stats();
    if (scheduler.completed >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(server.scheduler_stats().completed, 1u);

  // Nothing request-specific leaked into the cache: a fresh, patient client
  // gets a clean, complete answer.
  const auto reply = http_request(server.port(), "POST", "/v1/quantify", body);
  EXPECT_EQ(reply.status, 200) << reply.raw;
  EXPECT_EQ(reply.body.find("\"aborted\": true"), std::string::npos)
      << "cancelled partial results must not be served to other clients";
  server.stop();
}

TEST(ServeFaultsTest, FullAdmissionQueueShedsWith429) {
  ServerOptions options;
  // Two workers so one can keep reading connections (reads run on the
  // pool too), but a single analysis slot: admission is what must shed.
  options.threads = 2;
  options.max_concurrent = 1;
  options.max_queue = 1;
  Server server(options);
  server.start();

  // One slow request occupies the single analysis slot: a huge adaptive-MC
  // budget with an unreachable target keeps it sampling until cancelled.
  const std::string slow_body =
      "{\"document\": " + json_document(std::string(tstu::kConstDoc)) +
      ", \"engine\": \"mc_adaptive\", \"engine_options\": "
      "[\"budget=400000000\", \"target_halfwidth=1e-12\", \"batch=4096\"]}";
  TcpSocket slow = TcpSocket::connect_loopback(server.port());
  slow.write_all(concat("POST /v1/quantify HTTP/1.1\r\nContent-Length: ",
                        std::to_string(slow_body.size()), "\r\n\r\n",
                        slow_body));

  // Wait until the slow job is actually running (not merely queued).
  const auto running_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < running_deadline &&
         server.scheduler_stats().running == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(server.scheduler_stats().running, 1u);

  // The next request queues (queue bound 1)...
  const std::string fast_body =
      "{\"document\": " + json_document(std::string(tstu::kConstDoc)) + "}";
  TcpSocket queued = TcpSocket::connect_loopback(server.port());
  queued.write_all(concat("POST /v1/quantify HTTP/1.1\r\nContent-Length: ",
                          std::to_string(fast_body.size()), "\r\n\r\n",
                          fast_body));
  const auto queued_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < queued_deadline &&
         server.scheduler_stats().queued == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // ... and the one after that is shed synchronously with 429 + the
  // resource_exhausted taxonomy category in the body.
  const auto shed =
      http_request(server.port(), "POST", "/v1/quantify", fast_body);
  EXPECT_EQ(shed.status, 429) << shed.raw;
  EXPECT_NE(shed.body.find("\"category\": \"resource_exhausted\""),
            std::string::npos)
      << shed.body;
  EXPECT_GE(server.stats().shed, 1u);
  EXPECT_GE(server.scheduler_stats().shed, 1u);

  // Cancel the hog so teardown is quick, and let the queued request finish.
  slow.close();
  server.stop();
}

TEST(ServeFaultsTest, EngineBudgetDowngradeSurfacesInTheHttpDiagnostics) {
  ServerOptions options;
  options.threads = 1;
  Server server(options);
  server.start();

  // The CLI's graceful-degradation smoke case, over HTTP: an impossible
  // 2-node BDD budget forces the fallback engine; the response is still 200
  // with the downgrade recorded in the result diagnostics.
  const std::string body =
      "{\"document\": " + json_document(cooling_system_text()) +
      ", \"engine\": \"bdd\", \"engine_options\": [\"bdd_node_budget=2\", "
      "\"fallback=mc_adaptive\", \"trials=65536\", "
      "\"target_halfwidth=0.1\"]}";
  const auto reply = http_request(server.port(), "POST", "/v1/quantify", body);
  EXPECT_EQ(reply.status, 200) << reply.raw;
  EXPECT_NE(reply.body.find("\"diagnostics\""), std::string::npos)
      << reply.body;
  EXPECT_NE(reply.body.find("mc_adaptive"), std::string::npos) << reply.body;
  server.stop();
}

TEST(ServeFaultsTest, DeadlineExceededMapsTo504) {
  ServerOptions options;
  options.threads = 1;
  Server server(options);
  server.start();

  // corpus_1k under a 1 ms deadline: engine construction hits the deadline
  // checkpoint and aborts with the kDeadlineExceeded taxonomy → 504.
  const std::string body =
      "{\"document\": " + json_document(corpus_1k_text()) +
      ", \"deadline_ms\": 1}";
  const auto reply = http_request(server.port(), "POST", "/v1/quantify", body);
  EXPECT_EQ(reply.status, 504) << reply.raw;
  EXPECT_NE(reply.body.find("\"category\": \"deadline_exceeded\""),
            std::string::npos)
      << reply.body;
  EXPECT_GE(server.stats().deadline, 1u);

  // The server is still healthy afterwards.
  const auto stats = http_request(server.port(), "GET", "/v1/stats", "");
  EXPECT_EQ(stats.status, 200);
  server.stop();
}

TEST(ServeFaultsTest, FtaEngineDeadlineMapsTo504) {
  // MOCUS polls the request's deadline, so the fta engine on corpus_1k
  // answers 504 soon after its 100 ms instead of expanding for seconds.
  // The 2 s bound is far above the poll period and far below the
  // unbounded run.
  ServerOptions options;
  options.threads = 1;
  Server server(options);
  server.start();
  const std::string body =
      "{\"document\": " + json_document(corpus_1k_text()) +
      ", \"engine\": \"fta\", \"deadline_ms\": 100}";
  const auto start = std::chrono::steady_clock::now();
  const auto reply = http_request(server.port(), "POST", "/v1/quantify", body);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(reply.status, 504) << reply.raw;
  EXPECT_NE(reply.body.find("minimal cut set generation"), std::string::npos)
      << reply.body;
  EXPECT_LT(elapsed, std::chrono::seconds(2));
  const auto stats = http_request(server.port(), "GET", "/v1/stats", "");
  EXPECT_EQ(stats.status, 200);
  server.stop();
}

TEST(ServeFaultsTest, DefaultDeadlineAppliesWhenTheRequestCarriesNone) {
  ServerOptions options;
  options.threads = 1;
  options.default_deadline_ms = 1;
  Server server(options);
  server.start();

  const std::string body =
      "{\"document\": " + json_document(corpus_1k_text()) + "}";
  const auto reply = http_request(server.port(), "POST", "/v1/quantify", body);
  EXPECT_EQ(reply.status, 504) << reply.raw;
  server.stop();
}

}  // namespace
}  // namespace safeopt::serve
