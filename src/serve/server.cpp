#include "safeopt/serve/server.h"

#include <cmath>
#include <utility>

#include "safeopt/expr/eval_backend.h"
#include "safeopt/ftio/parser.h"
#include "safeopt/support/build_info.h"
#include "safeopt/support/error.h"
#include "safeopt/support/json.h"
#include "safeopt/support/options.h"
#include "safeopt/support/strings.h"

namespace safeopt::serve {
namespace {

/// Taxonomy → status for failures raised by the analysis passes.
int status_for(ErrorCategory category) noexcept {
  switch (category) {
    case ErrorCategory::kInvalidInput: return 400;
    case ErrorCategory::kResourceExhausted: return 429;
    case ErrorCategory::kDeadlineExceeded: return 504;
    case ErrorCategory::kCancelled: return 499;
    case ErrorCategory::kInternal: return 500;
  }
  return 500;
}

/// Taxonomy → status for failures while *reading* the request: the client
/// is at fault in different ways than a failing analysis.
int read_status_for(ErrorCategory category) noexcept {
  switch (category) {
    case ErrorCategory::kInvalidInput: return 400;
    case ErrorCategory::kResourceExhausted: return 413;
    case ErrorCategory::kDeadlineExceeded: return 408;
    default: return 500;
  }
}

std::string_view category_for_status(int status) noexcept {
  switch (status) {
    case 400: case 404: case 405: case 408: case 413: return "invalid_input";
    case 429: return "resource_exhausted";
    case 499: return "cancelled";
    case 504: return "deadline_exceeded";
    default: return "internal";
  }
}

struct ParsedRequest {
  std::string document;
  AnalysisOptions options;
  std::string tenant = "default";
  std::uint64_t deadline_ms = 0;  // 0 = none requested
};

/// A request count or seed: a whole number in [0, 2^53], the bound every
/// declared count option has (a larger double is not an exact integer, and
/// inf would not convert at all).
std::uint64_t to_u64(const JsonValue& value, std::string_view field) {
  const double number = value.as_number();
  if (!(number >= 0) || number != std::floor(number)) {
    throw Error(ErrorCategory::kInvalidInput,
                concat("field \"", field,
                       "\" must be a non-negative integer"));
  }
  if (number > kMaxCount) {
    throw Error(ErrorCategory::kInvalidInput,
                concat("field \"", field, "\" must be at most 2^53, got ",
                       format_double(number)));
  }
  return static_cast<std::uint64_t>(number);
}

/// Decodes the analysis-request body shared by quantify/optimize/validate.
ParsedRequest parse_request_body(const HttpRequest& request) {
  const JsonValue body = JsonValue::parse(request.body);
  if (!body.is_object()) {
    throw Error(ErrorCategory::kInvalidInput,
                "request body must be a JSON object");
  }
  ParsedRequest parsed;
  const JsonValue* document = body.find("document");
  if (document == nullptr) {
    throw Error(ErrorCategory::kInvalidInput,
                "request body needs a \"document\" string (the study text)");
  }
  parsed.document = document->as_string();
  parsed.options.model = "request";
  if (const JsonValue* model = body.find("model")) {
    parsed.options.model = model->as_string();
  }
  if (const JsonValue* engine = body.find("engine")) {
    parsed.options.engine = engine->as_string();
  }
  if (const JsonValue* opts = body.find("engine_options")) {
    for (const JsonValue& option : opts->items()) {
      parsed.options.engine_options.push_back(option.as_string());
    }
  }
  if (const JsonValue* solver = body.find("solver")) {
    parsed.options.solver = solver->as_string();
  }
  if (const JsonValue* extras = body.find("extras")) {
    for (const JsonValue& extra : extras->items()) {
      parsed.options.extras.push_back(extra.as_string());
    }
  }
  if (const JsonValue* seed = body.find("seed")) {
    parsed.options.seed = to_u64(*seed, "seed");
  }
  if (const JsonValue* at = body.find("at")) {
    for (const auto& [name, value] : at->members()) {
      parsed.options.at.emplace_back(name, value.as_number());
    }
  }
  if (const JsonValue* deadline = body.find("deadline_ms")) {
    parsed.deadline_ms = to_u64(*deadline, "deadline_ms");
  }
  if (const std::string* tenant = request.find_header("x-tenant")) {
    parsed.tenant = *tenant;
  } else if (const JsonValue* tenant = body.find("tenant")) {
    parsed.tenant = tenant->as_string();
  }
  return parsed;
}

JsonValue pass_stats_json(const CacheStats& cache) {
  JsonValue passes = JsonValue::object();
  for (const auto& [name, stats] : cache.passes) {
    JsonValue pass = JsonValue::object();
    pass.set("hits", JsonValue::number(static_cast<double>(stats.hits)));
    pass.set("misses", JsonValue::number(static_cast<double>(stats.misses)));
    passes.set(name, std::move(pass));
  }
  return passes;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      graph_(options_.cache_bytes),
      pool_(options_.threads) {
  SchedulerOptions scheduler_options;
  scheduler_options.pool = &pool_;
  scheduler_options.max_queue_per_tenant = options_.max_queue;
  scheduler_options.max_concurrent = options_.max_concurrent;
  scheduler_options.tenant_weights = options_.tenant_weights;
  scheduler_options.max_tenants = options_.max_tenants;
  scheduler_ = std::make_unique<AdmissionScheduler>(scheduler_options);
}

Server::~Server() { stop(); }

void Server::start() {
  listener_ = TcpListener::bind_loopback(options_.port);
  port_ = listener_.port();
  started_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (stopped_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  listener_.close();
  if (accept_thread_.joinable()) accept_thread_.join();
  scheduler_->drain();
}

void Server::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
}

ServerStats Server::stats() const {
  const MutexLock lock(stats_mutex_);
  return stats_;
}

void Server::accept_loop() {
  std::uint64_t accepted = 0;
  while (true) {
    std::optional<TcpSocket> socket = listener_.accept();
    if (!socket.has_value()) break;
    ++accepted;
    {
      const MutexLock lock(stats_mutex_);
      ++stats_.accepted;
    }
    // Read + parse on the worker pool, not here: a slow or malicious
    // client (slowloris) then stalls one worker for at most the receive
    // timeout instead of head-of-line blocking every other connection on
    // the single accept thread.
    auto connection = std::make_shared<TcpSocket>(std::move(*socket));
    {
      const MutexLock lock(connections_mutex_);
      ++open_connections_;
    }
    pool_.submit([this, connection] {
      try {
        handle_connection(connection);
      } catch (...) {
        // handle_connection answers its own failures; containment here
        // only keeps the connection accounting balanced on a handler bug.
      }
      // Notify under the lock so a waiter in accept_loop cannot finish its
      // predicate re-check and tear the condition variable down mid-notify.
      const MutexLock lock(connections_mutex_);
      --open_connections_;
      connections_cv_.notify_all();
    });
    if (options_.max_requests != 0 && accepted >= options_.max_requests) {
      listener_.close();
      break;
    }
  }
  // Once every accepted connection has been read and either answered or
  // handed to the scheduler, the drain below covers the analysis jobs too.
  {
    MutexLock lock(connections_mutex_);
    while (open_connections_ != 0) lock.wait(connections_cv_);
  }
  scheduler_->drain();
  finished_.store(true, std::memory_order_release);
}

void Server::handle_connection(const std::shared_ptr<TcpSocket>& socket) {
  const auto finish = [this, socket](HttpResponse response) {
    {
      const MutexLock lock(stats_mutex_);
      switch (response.status) {
        case 200: ++stats_.ok; break;
        case 429: ++stats_.shed; break;
        case 499: ++stats_.cancelled; break;
        case 504: ++stats_.deadline; break;
        case 500: ++stats_.internal; break;
        default: ++stats_.invalid; break;
      }
    }
    try {
      write_http_response(*socket, response);
    } catch (const Error&) {
      // Peer already gone; the outcome is still counted above.
    }
    socket->close();
  };
  const auto fail = [&finish](int status, std::string_view message) {
    finish(HttpResponse{status, "application/json",
                        render_error_response(category_for_status(status),
                                              message)});
  };

  std::optional<HttpRequest> request;
  try {
    request = read_http_request(*socket, options_.http_limits);
  } catch (const Error& error) {
    fail(read_status_for(error.category()), error.what());
    return;
  } catch (const std::exception& error) {
    fail(500, error.what());
    return;
  }
  if (!request.has_value()) return;  // probe connect, nothing to answer

  if (request->target == "/v1/stats") {
    if (request->method != "GET") {
      fail(405, "use GET /v1/stats");
      return;
    }
    finish(HttpResponse{200, "application/json", stats_body()});
    return;
  }
  const bool is_quantify = request->target == "/v1/quantify";
  const bool is_optimize = request->target == "/v1/optimize";
  const bool is_validate = request->target == "/v1/validate";
  if (!is_quantify && !is_optimize && !is_validate) {
    fail(404, concat("unknown path \"", request->target,
                     "\" (endpoints: /v1/quantify /v1/optimize /v1/validate "
                     "/v1/stats)"));
    return;
  }
  if (request->method != "POST") {
    fail(405, concat("use POST ", request->target));
    return;
  }

  ParsedRequest parsed;
  try {
    parsed = parse_request_body(*request);
  } catch (const Error& error) {
    fail(status_for(error.category()), error.what());
    return;
  }

  // Admission: shed synchronously (429) when the tenant's queue is full;
  // otherwise the job runs on the pool under weighted fair queuing and
  // answers the client itself.
  const std::string tenant = parsed.tenant;
  auto job = [this, socket, finish, parsed = std::move(parsed), is_quantify,
              is_optimize]() {
    const std::uint64_t deadline_ms = parsed.deadline_ms != 0
                                          ? parsed.deadline_ms
                                          : options_.default_deadline_ms;
    ExecutionControl control(deadline_ms != 0 ? Deadline::after_ms(deadline_ms)
                                              : Deadline::never());
    // Client-disconnect cancellation: the engines' cooperative checkpoints
    // poll this probe; a vanished client aborts its own request instead of
    // burning a worker on an answer nobody reads.
    control.probe = [socket]() -> ExecutionStatus {
      return socket->peer_closed() ? ExecutionStatus::kCancelled
                                   : ExecutionStatus::kRunning;
    };
    try {
      std::string body;
      if (is_quantify) {
        body = graph_.quantify(parsed.document, parsed.options, &control);
      } else if (is_optimize) {
        body = graph_.optimize(parsed.document, parsed.options, &control);
      } else {
        body = graph_.validate(parsed.document, parsed.options);
      }
      finish(HttpResponse{200, "application/json", std::move(body)});
    } catch (const ftio::ParseError& error) {
      finish(HttpResponse{400, "application/json",
                          render_error_response("invalid_input",
                                                error.what())});
    } catch (const Error& error) {
      finish(HttpResponse{status_for(error.category()), "application/json",
                          render_error_response(
                              category_name(error.category()),
                              error.what())});
    } catch (const std::invalid_argument& error) {
      finish(HttpResponse{400, "application/json",
                          render_error_response("invalid_input",
                                                error.what())});
    } catch (const std::exception& error) {
      finish(HttpResponse{500, "application/json",
                          render_error_response("internal", error.what())});
    }
  };
  try {
    scheduler_->submit(tenant, std::move(job));
  } catch (const Error& error) {
    fail(status_for(error.category()), error.what());
  }
}

std::string Server::stats_body() const {
  const CacheStats cache = graph_.cache_stats();
  const SchedulerStats scheduler = scheduler_->stats();
  const ServerStats server = stats();

  JsonValue root = JsonValue::object();
  root.set("build", JsonValue::string(build_info_string()));
  root.set("version",
           JsonValue::string(std::string(build_info().version)));
  root.set("backend",
           JsonValue::string(
               std::string(expr::BackendRegistry::active().name())));

  JsonValue requests = JsonValue::object();
  const auto count = [&requests](std::string_view name, std::uint64_t n) {
    requests.set(std::string(name),
                 JsonValue::number(static_cast<double>(n)));
  };
  count("accepted", server.accepted);
  count("ok", server.ok);
  count("invalid", server.invalid);
  count("shed", server.shed);
  count("deadline_exceeded", server.deadline);
  count("cancelled", server.cancelled);
  count("internal", server.internal);
  root.set("requests", std::move(requests));

  JsonValue cache_json = JsonValue::object();
  cache_json.set("hits", JsonValue::number(static_cast<double>(cache.hits)));
  cache_json.set("misses",
                 JsonValue::number(static_cast<double>(cache.misses)));
  cache_json.set("single_flight_waits",
                 JsonValue::number(
                     static_cast<double>(cache.single_flight_waits)));
  cache_json.set("single_flight_reruns",
                 JsonValue::number(
                     static_cast<double>(cache.single_flight_reruns)));
  cache_json.set("evictions",
                 JsonValue::number(static_cast<double>(cache.evictions)));
  cache_json.set("bytes_in_use",
                 JsonValue::number(static_cast<double>(cache.bytes_in_use)));
  cache_json.set("byte_budget",
                 JsonValue::number(static_cast<double>(cache.byte_budget)));
  cache_json.set("entries",
                 JsonValue::number(static_cast<double>(cache.entries)));
  cache_json.set("passes", pass_stats_json(cache));
  root.set("cache", std::move(cache_json));

  JsonValue scheduler_json = JsonValue::object();
  scheduler_json.set("submitted",
                     JsonValue::number(
                         static_cast<double>(scheduler.submitted)));
  scheduler_json.set("completed",
                     JsonValue::number(
                         static_cast<double>(scheduler.completed)));
  scheduler_json.set("shed",
                     JsonValue::number(static_cast<double>(scheduler.shed)));
  scheduler_json.set("queued",
                     JsonValue::number(
                         static_cast<double>(scheduler.queued)));
  scheduler_json.set("running",
                     JsonValue::number(
                         static_cast<double>(scheduler.running)));
  JsonValue tenants = JsonValue::object();
  for (const auto& [name, tenant] : scheduler.tenants) {
    JsonValue row = JsonValue::object();
    row.set("submitted",
            JsonValue::number(static_cast<double>(tenant.submitted)));
    row.set("completed",
            JsonValue::number(static_cast<double>(tenant.completed)));
    row.set("shed", JsonValue::number(static_cast<double>(tenant.shed)));
    row.set("weight", JsonValue::number(tenant.weight));
    tenants.set(name, std::move(row));
  }
  scheduler_json.set("tenants", std::move(tenants));
  root.set("scheduler", std::move(scheduler_json));

  JsonValue passes = JsonValue::array();
  for (const PassDesc& pass : analysis_passes()) {
    passes.push_back(JsonValue::string(std::string(pass.name)));
  }
  root.set("analysis_passes", std::move(passes));
  return root.dump();
}

}  // namespace safeopt::serve
