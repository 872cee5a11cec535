// One renderer per --json schema (response_json.h). The byte format is the
// contract: tests diff CLI stdout against HTTP bodies, so every separator
// and %.17g here is load-bearing.
#include "safeopt/serve/response_json.h"

#include <cinttypes>
#include <cstdio>

#include "safeopt/support/json.h"
#include "safeopt/support/strings.h"

namespace safeopt::serve {
namespace {

std::string fmt_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string fmt_u64(std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%" PRIu64, value);
  return buffer;
}

void append_string_array(std::string& out,
                         const std::vector<std::string>& items) {
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += concat(i > 0 ? ", " : "", "\"", json_escape(items[i]), "\"");
  }
}

void append_assignment_object(std::string& out,
                              const expr::ParameterAssignment& point) {
  for (std::size_t i = 0; i < point.entries().size(); ++i) {
    out += concat(i > 0 ? ", " : "", "\"",
                  json_escape(point.entries()[i].first),
                  "\": ", fmt_double(point.entries()[i].second));
  }
}

}  // namespace

std::string render_hazard_results(const HazardResults& results) {
  std::string out = "  \"hazards\": [";
  bool first = true;
  for (const auto& [hazard, result] : results) {
    out += concat(first ? "" : ",", "\n    {\"hazard\": \"",
                  json_escape(hazard),
                  "\", \"probability\": ", fmt_double(result.probability));
    if (result.ci95.has_value()) {
      out += concat(", \"ci95\": [", fmt_double(result.ci95->lo), ", ",
                    fmt_double(result.ci95->hi),
                    "], \"halfwidth\": ", fmt_double(result.halfwidth()),
                    ", \"trials\": ", fmt_u64(result.trials));
      if (result.ess.has_value()) {
        out += concat(", \"ess\": ", fmt_double(*result.ess));
      }
      if (result.converged.has_value()) {
        out += concat(", \"converged\": ",
                      *result.converged ? "true" : "false");
      }
      if (result.aborted.has_value()) {
        out += concat(", \"aborted\": ", *result.aborted ? "true" : "false");
      }
    }
    if (!result.diagnostics.empty()) {
      out += ", \"diagnostics\": [";
      append_string_array(out, result.diagnostics);
      out += "]";
    }
    if (result.preprocess.has_value()) {
      const core::PreprocessSummary& pre = *result.preprocess;
      out += concat(", \"preprocess\": {\"modules\": ",
                    std::to_string(pre.modules),
                    ", \"events_before\": ", std::to_string(pre.events_before),
                    ", \"events_after\": ", std::to_string(pre.events_after),
                    ", \"gates_before\": ", std::to_string(pre.gates_before),
                    ", \"gates_after\": ", std::to_string(pre.gates_after),
                    ", \"passes\": [");
      append_string_array(out, pre.passes);
      out += "]}";
    }
    out += "}";
    first = false;
  }
  out += "\n  ],\n";
  return out;
}

std::string render_quantify_response(std::string_view model,
                                     std::string_view engine,
                                     const expr::ParameterAssignment& at,
                                     const HazardResults& results,
                                     double cost) {
  std::string out =
      concat("{\n  \"model\": \"", json_escape(model), "\",\n  \"engine\": \"",
             json_escape(engine), "\",\n  \"at\": {");
  append_assignment_object(out, at);
  out += "},\n";
  out += render_hazard_results(results);
  out += concat("  \"cost\": ", fmt_double(cost), "\n}\n");
  return out;
}

std::string render_constant_quantify_response(std::string_view model,
                                              std::string_view engine,
                                              const HazardResults& results,
                                              double cost) {
  std::string out =
      concat("{\n  \"model\": \"", json_escape(model), "\",\n  \"engine\": \"",
             json_escape(engine), "\",\n");
  out += render_hazard_results(results);
  out += concat("  \"cost\": ", fmt_double(cost), "\n}\n");
  return out;
}

std::string render_optimize_response(std::string_view model,
                                     std::string_view solver,
                                     std::string_view engine, bool converged,
                                     std::size_t evaluations,
                                     const expr::ParameterAssignment& optimum,
                                     const HazardResults& results,
                                     double cost) {
  std::string out = concat(
      "{\n  \"model\": \"", json_escape(model), "\",\n  \"solver\": \"",
      json_escape(solver), "\",\n  \"engine\": \"", json_escape(engine),
      "\",\n  \"converged\": ", converged ? "true" : "false",
      ",\n  \"evaluations\": ", std::to_string(evaluations),
      ",\n  \"optimum\": {");
  append_assignment_object(out, optimum);
  out += "},\n";
  out += render_hazard_results(results);
  out += concat("  \"cost\": ", fmt_double(cost), "\n}\n");
  return out;
}

std::string render_validate_response(std::string_view model,
                                     std::size_t parameters,
                                     std::size_t trees, std::size_t hazards,
                                     const std::vector<std::string>&
                                         problems) {
  std::string out = concat(
      "{\n  \"model\": \"", json_escape(model),
      "\",\n  \"parameters\": ", std::to_string(parameters),
      ",\n  \"trees\": ", std::to_string(trees),
      ",\n  \"hazards\": ", std::to_string(hazards), ",\n  \"problems\": [");
  for (std::size_t i = 0; i < problems.size(); ++i) {
    out += concat(i > 0 ? "," : "", "\n    \"", json_escape(problems[i]),
                  "\"");
  }
  out += concat(problems.empty() ? "" : "\n  ", "],\n  \"valid\": ",
                problems.empty() ? "true" : "false", "\n}\n");
  return out;
}

std::string render_error_response(std::string_view category,
                                  std::string_view message) {
  return concat("{\n  \"error\": {\"category\": \"", json_escape(category),
                "\", \"message\": \"", json_escape(message), "\"}\n}\n");
}

}  // namespace safeopt::serve
