// End-to-end service tests over real loopback HTTP: response parity with
// the offline analysis graph (and therefore with the CLI's --json output,
// which prints the same rendered bytes), the error surface, multi-tenant
// accounting, and the compile-amortization acceptance bar (>= 99% cache
// hits on repeated documents).
#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "safeopt/serve/analysis_graph.h"
#include "safeopt/serve/server.h"
#include "safeopt/support/json.h"
#include "serve/serve_client.h"

namespace safeopt::serve {
namespace {

using tstu::http_request;
using tstu::json_document;

const std::string kDoc{tstu::kParamDoc};

ServerOptions small_server_options() {
  ServerOptions options;
  options.port = 0;
  options.threads = 2;
  return options;
}

std::string source_file(const std::string& relative) {
  std::ifstream in(std::string(SAFEOPT_SOURCE_DIR) + "/" + relative);
  EXPECT_TRUE(in.good()) << relative;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string quantify_body(const std::string& model) {
  return "{\"document\": " + json_document(kDoc) + ", \"model\": \"" + model +
         "\"}";
}

TEST(ServerTest, QuantifyMatchesTheOfflineGraphByteForByte) {
  Server server(small_server_options());
  server.start();

  const auto reply =
      http_request(server.port(), "POST", "/v1/quantify", quantify_body("m"));
  EXPECT_EQ(reply.status, 200) << reply.raw;

  AnalysisOptions options;
  options.model = "m";
  AnalysisGraph offline(1 << 20);
  EXPECT_EQ(reply.body, offline.quantify(kDoc, options, nullptr))
      << "the HTTP body and the offline render must be byte-identical";
  server.stop();
}

TEST(ServerTest, GridSearchPastItsDeadlineLeavesTheServerAnswering) {
  // Building the fta engine of a 6-of-16 vote outlasts a 1 ms deadline, so
  // grid_search starts its solve with the deadline spent. The refused first
  // evaluation unwinds the solve into a partial result (or the request
  // into a 504), and the server answers the next request.
  Server server(small_server_options());
  server.start();
  const std::string body =
      "{\"document\": " +
      json_document(source_file("tests/cli/grid_vote_6_of_16.ft")) +
      ", \"deadline_ms\": 1}";
  const auto reply = http_request(server.port(), "POST", "/v1/optimize", body);
  if (reply.status == 200) {
    EXPECT_NE(reply.body.find("\"converged\": false"), std::string::npos)
        << reply.body;
  } else {
    EXPECT_EQ(reply.status, 504) << reply.raw;
  }
  const auto next =
      http_request(server.port(), "POST", "/v1/quantify", quantify_body("m"));
  EXPECT_EQ(next.status, 200) << next.raw;
  server.stop();
}

TEST(ServerTest, GridSearchOverANanStudyIsABadRequestAndTheServerGoesOn) {
  // Every grid point of this study is NaN, so grid_search has no incumbent
  // to zoom on. It stops at the box center, the request is a 400 naming
  // the leaf, and the next request is answered.
  Server server(small_server_options());
  server.start();
  const auto reply = http_request(
      server.port(), "POST", "/v1/optimize",
      "{\"document\": " +
          json_document(source_file("tests/cli/grid_search_nan.ft")) + "}");
  EXPECT_EQ(reply.status, 400) << reply.raw;
  EXPECT_NE(reply.body.find("is not a number"), std::string::npos)
      << reply.body;
  const auto next =
      http_request(server.port(), "POST", "/v1/quantify", quantify_body("m"));
  EXPECT_EQ(next.status, 200) << next.raw;
  server.stop();
}

TEST(ServerTest, OptimizeAndValidateSucceed) {
  Server server(small_server_options());
  server.start();

  const auto validate =
      http_request(server.port(), "POST", "/v1/validate", quantify_body("m"));
  EXPECT_EQ(validate.status, 200) << validate.raw;
  EXPECT_NE(validate.body.find("\"problems\": []"), std::string::npos);

  const auto optimize = http_request(
      server.port(), "POST", "/v1/optimize",
      "{\"document\": " + json_document(kDoc) +
          ", \"model\": \"m\", \"seed\": 7}");
  EXPECT_EQ(optimize.status, 200) << optimize.raw;
  EXPECT_NE(optimize.body.find("\"optimum\""), std::string::npos);
  EXPECT_NE(optimize.body.find("\"converged\""), std::string::npos);
  server.stop();
}

TEST(ServerTest, RepeatedDocumentsAmortizeAtLeast99PercentOfCompiles) {
  Server server(small_server_options());
  server.start();

  constexpr int kRequests = 110;
  for (int i = 0; i < kRequests; ++i) {
    const auto reply =
        http_request(server.port(), "POST", "/v1/quantify", quantify_body("m"));
    ASSERT_EQ(reply.status, 200) << reply.raw;
  }

  const CacheStats cache = server.cache_stats();
  ASSERT_EQ(cache.passes.count("compile"), 1u);
  const auto& compile = cache.passes.at("compile");
  EXPECT_EQ(compile.misses, 1u) << "one compile for one document";
  const double amortized =
      static_cast<double>(compile.hits) /
      static_cast<double>(compile.hits + compile.misses);
  EXPECT_GE(amortized, 0.99) << compile.hits << " hits / " << compile.misses
                             << " misses";
  server.stop();
}

TEST(ServerTest, StatsEndpointReportsBuildCacheAndScheduler) {
  Server server(small_server_options());
  server.start();
  (void)http_request(server.port(), "POST", "/v1/quantify",
                     quantify_body("m"), "X-Tenant: team-a\r\n");

  const auto reply = http_request(server.port(), "GET", "/v1/stats", "");
  EXPECT_EQ(reply.status, 200) << reply.raw;

  const JsonValue stats = JsonValue::parse(reply.body);
  ASSERT_TRUE(stats.is_object());
  ASSERT_NE(stats.find("build"), nullptr);
  EXPECT_NE(stats.find("build")->as_string().find("safeopt"),
            std::string::npos);
  ASSERT_NE(stats.find("requests"), nullptr);
  EXPECT_GE(stats.find("requests")->find("ok")->as_number(), 1.0);
  ASSERT_NE(stats.find("cache"), nullptr);
  EXPECT_GT(stats.find("cache")->find("entries")->as_number(), 0.0);
  // The tenant from the X-Tenant header is accounted by name.
  const JsonValue* tenants = stats.find("scheduler")->find("tenants");
  ASSERT_NE(tenants, nullptr);
  EXPECT_NE(tenants->find("team-a"), nullptr) << reply.body;
  // The pass list is exposed for introspection.
  ASSERT_NE(stats.find("analysis_passes"), nullptr);
  EXPECT_EQ(stats.find("analysis_passes")->items().size(),
            analysis_passes().size());
  server.stop();
}

TEST(ServerTest, MixedTenantLoadKeepsResultsIdenticalAcrossTenants) {
  ServerOptions options = small_server_options();
  options.tenant_weights = {{"heavy", 3.0}, {"light", 1.0}};
  Server server(options);
  server.start();

  std::string heavy_body;
  std::string light_body;
  for (int i = 0; i < 6; ++i) {
    const bool heavy = i % 2 == 0;
    const auto reply = http_request(
        server.port(), "POST", "/v1/quantify", quantify_body("m"),
        heavy ? "X-Tenant: heavy\r\n" : "X-Tenant: light\r\n");
    ASSERT_EQ(reply.status, 200) << reply.raw;
    (heavy ? heavy_body : light_body) = reply.body;
  }
  EXPECT_EQ(heavy_body, light_body)
      << "tenancy affects scheduling, never results";

  // The client sees EOF when the job closes its socket, a moment before the
  // scheduler books the job as completed — poll briefly for the counters.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  SchedulerStats scheduler = server.scheduler_stats();
  while (std::chrono::steady_clock::now() < deadline &&
         (scheduler.tenants.at("heavy").completed < 3u ||
          scheduler.tenants.at("light").completed < 3u)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    scheduler = server.scheduler_stats();
  }
  EXPECT_EQ(scheduler.tenants.at("heavy").completed, 3u);
  EXPECT_EQ(scheduler.tenants.at("light").completed, 3u);
  EXPECT_EQ(scheduler.tenants.at("heavy").weight, 3.0);
  server.stop();
}

TEST(ServerTest, ErrorSurface) {
  Server server(small_server_options());
  server.start();
  const auto port = server.port();

  EXPECT_EQ(http_request(port, "POST", "/v1/nope", "{}").status, 404);
  EXPECT_EQ(http_request(port, "GET", "/v1/quantify", "").status, 405);
  EXPECT_EQ(http_request(port, "POST", "/v1/stats", "{}").status, 405);

  const auto bad_json =
      http_request(port, "POST", "/v1/quantify", "this is not json");
  EXPECT_EQ(bad_json.status, 400);
  EXPECT_NE(bad_json.body.find("\"category\": \"invalid_input\""),
            std::string::npos)
      << bad_json.body;

  EXPECT_EQ(http_request(port, "POST", "/v1/quantify", "{}").status, 400)
      << "a request without a document is invalid";

  const auto parse_error = http_request(
      port, "POST", "/v1/quantify",
      "{\"document\": \"tree Broken;\\ntoplevel Missing;\\n\"}");
  EXPECT_EQ(parse_error.status, 400) << parse_error.raw;

  // Unknown at-parameter: maps std::invalid_argument onto 400.
  const auto bad_at = http_request(
      port, "POST", "/v1/quantify",
      "{\"document\": " + json_document(kDoc) +
          ", \"at\": {\"NoSuchParam\": 0.5}}");
  EXPECT_EQ(bad_at.status, 400) << bad_at.raw;
  server.stop();
}

// "gradient_descent" is no longer a solver (it lost to other solvers on
// quality and time in bench_optimizers): a request naming it is refused
// with the "unknown solver" diagnostic like any unknown name.
TEST(ServerTest, RemovedSolverIsAnUnknownSolver) {
  Server server(small_server_options());
  server.start();
  const auto reply = http_request(
      server.port(), "POST", "/v1/optimize",
      "{\"document\": " + json_document(kDoc) +
          ", \"model\": \"m\", \"solver\": \"gradient_descent\"}");
  EXPECT_EQ(reply.status, 400) << reply.raw;
  EXPECT_NE(reply.body.find("\"category\": \"invalid_input\""),
            std::string::npos)
      << reply.body;
  EXPECT_NE(reply.body.find("unknown solver \\\"gradient_descent\\\""),
            std::string::npos)
      << reply.body;
  server.stop();
}

// Solver and engine option values are checked against their declared
// tables before any work: a value that used to reach a contract (and abort
// the whole process, for every tenant) is a 400, and the server goes on.
TEST(ServerTest, OutOfRangeOptionsAreBadRequestsAndTheServerGoesOn) {
  Server server(small_server_options());
  server.start();
  const auto port = server.port();
  std::string grid_doc = kDoc;
  const std::string solver_line =
      "solver multi_start starts = 2 inner = nelder_mead;";
  grid_doc.replace(grid_doc.find(solver_line), solver_line.size(),
                   "solver grid_search points_per_dimension = 1;");
  const auto grid = http_request(
      port, "POST", "/v1/optimize",
      "{\"document\": " + json_document(grid_doc) + ", \"model\": \"m\"}");
  EXPECT_EQ(grid.status, 400) << grid.raw;
  EXPECT_NE(grid.body.find("points_per_dimension"), std::string::npos)
      << grid.body;

  const auto unknown = http_request(
      port, "POST", "/v1/optimize",
      "{\"document\": " + json_document(kDoc) +
          ", \"extras\": [\"bogus_key=1\"]}");
  EXPECT_EQ(unknown.status, 400) << unknown.raw;
  EXPECT_NE(unknown.body.find("bogus_key"), std::string::npos)
      << unknown.body;

  const auto relative = http_request(
      port, "POST", "/v1/quantify",
      "{\"document\": " + json_document(kDoc) +
          ", \"engine\": \"mc_adaptive\", \"engine_options\": "
          "[\"relative=true\", \"target_halfwidth=2\"]}");
  EXPECT_EQ(relative.status, 400) << relative.raw;
  EXPECT_NE(relative.body.find("target_halfwidth"), std::string::npos)
      << relative.body;

  const auto healthy =
      http_request(port, "POST", "/v1/quantify", quantify_body("m"));
  EXPECT_EQ(healthy.status, 200) << healthy.raw;
  server.stop();
}

TEST(ServerTest, NonFiniteEvaluationPointIsBadRequest) {
  // The JSON decoder reads 1e999 as +inf; W - B at W = B = inf would be a
  // NaN leaf probability. The request is refused with 400 instead of
  // reaching an engine (whose precondition would abort the process).
  constexpr std::string_view kGapDoc = R"(
param W in [1, 2];
param B in [0, 1];
tree Gap;
toplevel T;
T or Clearance Steady;
Clearance prob = W - B;
Steady prob = 0.01;
hazard Gap cost = 1;
)";
  Server server(small_server_options());
  server.start();
  const auto reply = http_request(
      server.port(), "POST", "/v1/quantify",
      "{\"document\": " + json_document(kGapDoc) +
          ", \"at\": {\"W\": 1e999, \"B\": 1e999}}");
  EXPECT_EQ(reply.status, 400) << reply.raw;
  EXPECT_NE(reply.body.find("\"category\": \"invalid_input\""),
            std::string::npos)
      << reply.body;
  // The worker survived: a finite point on the same document still works.
  EXPECT_EQ(http_request(server.port(), "POST", "/v1/quantify",
                         "{\"document\": " + json_document(kGapDoc) +
                             ", \"at\": {\"W\": 1.5, \"B\": 0.5}}")
                .status,
            200);
  server.stop();
}

TEST(ServerTest, HugeDeadlinesMeanNeverAndIntegersPast2To53AreBadRequests) {
  // 1e13 ms is past the steady clock's range: the deadline saturates to
  // "never" instead of wrapping into one that expired before the request
  // started. Integers above 2^53 (and 1e999, read as +inf) are refused
  // before any conversion to an integer.
  Server server(small_server_options());
  server.start();
  const auto port = server.port();
  const auto with = [](const std::string& field) {
    return "{\"document\": " + json_document(kDoc) + ", " + field + "}";
  };
  const auto far = http_request(port, "POST", "/v1/quantify",
                                with("\"deadline_ms\": 1e13"));
  EXPECT_EQ(far.status, 200) << far.raw;
  for (const std::string field :
       {"\"seed\": 1e20", "\"seed\": 1e999", "\"deadline_ms\": 1e16"}) {
    const auto reply = http_request(port, "POST", "/v1/quantify", with(field));
    EXPECT_EQ(reply.status, 400) << field << "\n" << reply.raw;
    EXPECT_NE(reply.body.find("at most 2^53"), std::string::npos)
        << reply.body;
  }
  server.stop();
}

TEST(ServerTest, StalledClientDoesNotBlockOtherConnections) {
  // Request reading happens on the worker pool, not the accept thread: a
  // client that connects and sends nothing (slowloris) must not head-of-
  // line block other clients for its whole 10 s receive timeout.
  Server server(small_server_options());
  server.start();

  TcpSocket stalled = TcpSocket::connect_loopback(server.port());
  stalled.write_all("POST /v1/quantify HTTP/1.1\r\n");  // never finishes

  const auto begin = std::chrono::steady_clock::now();
  const auto reply = http_request(server.port(), "GET", "/v1/stats", "");
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - begin);
  EXPECT_EQ(reply.status, 200) << reply.raw;
  EXPECT_LT(elapsed.count(), 8000)
      << "a healthy client must be answered while the stalled one is still "
         "inside its receive timeout";
  stalled.close();
  server.stop();
}

TEST(ServerTest, MaxRequestsBoundsTheAcceptLoop) {
  ServerOptions options = small_server_options();
  options.max_requests = 2;
  Server server(options);
  server.start();
  (void)http_request(server.port(), "GET", "/v1/stats", "");
  (void)http_request(server.port(), "GET", "/v1/stats", "");
  server.wait();
  EXPECT_TRUE(server.finished());
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, 2u);
  server.stop();
}

TEST(ServerTest, StopIsIdempotentAndStartable) {
  Server server(small_server_options());
  server.start();
  const auto reply = http_request(server.port(), "GET", "/v1/stats", "");
  EXPECT_EQ(reply.status, 200);
  server.stop();
  server.stop();
}

}  // namespace
}  // namespace safeopt::serve
