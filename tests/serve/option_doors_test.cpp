// One verdict per option value, whichever front door it comes through.
// Every declared solver option (each solver's table and the reserved rows)
// and every numeric engine option is sent its boundary values — below min,
// min, max, above max, NaN, numeric-looking text — plus an unknown key,
// through three doors:
//   * a document's `solver`/`engine` section (`safeopt validate` on it);
//   * `--extra` / `--engine-opt` (validate_problems with the overrides the
//     CLI builds);
//   * a POST /v1/validate request body's `extras` / `engine_options`.
// Each door must give the expected verdict, a refusal must name the key,
// and no value may reach a contract (an abort would end the test binary).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "safeopt/core/study.h"
#include "safeopt/ftio/parser.h"
#include "safeopt/ftio/study_document.h"
#include "safeopt/opt/solver.h"
#include "safeopt/serve/analysis_graph.h"
#include "safeopt/serve/server.h"
#include "safeopt/support/json.h"
#include "safeopt/support/options.h"
#include "serve/serve_client.h"

namespace safeopt::serve {
namespace {

using tstu::http_request;
using tstu::json_document;

// Two free parameters, so every solver that declares options runs on the
// box (differential_evolution needs two).
constexpr std::string_view kBase =
    "param X in [0.1, 0.9];\nparam Y in [0.1, 0.9];\n"
    "tree Main;\ntoplevel Top;\nTop or A B;\nA prob = X;\nB prob = 0.1 * Y;\n"
    "hazard Main cost = 1000;\n";

struct Case {
  bool engine = false;  // an engine option (else a solver option)
  std::string host;     // the solver or engine the option is given to
  std::string key;
  std::string value;
  bool accepted = false;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << (c.engine ? "engine " : "solver ") << c.host << " " << c.key << "="
      << c.value;
}

std::string number_text(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// The boundary values of `row`, each with the verdict the table implies.
std::vector<std::pair<std::string, bool>> boundary_values(
    const OptionSpec& row) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMaxCount = 9007199254740992.0;  // 2^53
  std::vector<std::pair<std::string, bool>> values = {{"nan", false},
                                                      {"8x", false}};
  if (row.kind == OptionKind::kFlag) {
    values.insert(values.end(),
                  {{"-1", false}, {"0", true}, {"1", true}, {"2", false}});
    return values;
  }
  const bool count = row.kind == OptionKind::kCount;
  if (row.min > -kInf) {
    const double below = row.min_exclusive ? row.min
                         : count           ? row.min - 1
                                           : std::nextafter(row.min, -kInf);
    const double lowest = row.min_exclusive ? std::nextafter(row.min, kInf)
                                            : row.min;
    values.emplace_back(number_text(below), false);
    values.emplace_back(number_text(lowest), true);
  } else {
    values.emplace_back("-inf", true);
  }
  const double highest = count ? std::min(row.max, kMaxCount) : row.max;
  if (highest < kInf) {
    values.emplace_back(number_text(highest), true);
    values.emplace_back(
        number_text(count ? highest + 2 : std::nextafter(highest, kInf)),
        false);
  } else {
    values.emplace_back("inf", true);
  }
  if (!row.zero_means.empty()) values.emplace_back("0", true);
  return values;
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  const auto add_rows = [&](bool engine, const std::string& host,
                            std::span<const OptionSpec> rows) {
    for (const OptionSpec& row : rows) {
      if (row.kind == OptionKind::kEnum) continue;  // words, no range
      for (auto [value, accepted] : boundary_values(row)) {
        // Two engine rules beyond a single row: `preprocess = false` asked
        // for a removed path, and a relative target half-width (relative
        // is on by default) must stay below 1.
        if (row.name == "preprocess" && value == "0") accepted = false;
        if (row.name == "target_halfwidth" && value == "inf") {
          accepted = false;
        }
        cases.push_back({engine, host, std::string(row.name), value,
                         accepted});
      }
    }
    cases.push_back({engine, host, "bogus_key", "1", false});
  };
  for (const std::string& name : opt::SolverRegistry::available()) {
    const opt::SolverTraits traits =
        opt::SolverRegistry::create(name)->traits();
    if (!traits.options.empty()) add_rows(false, name, traits.options);
  }
  add_rows(false, "nelder_mead", opt::reserved_solver_options());
  const std::vector<OptionSpec> engine_rows = core::engine_option_docs();
  add_rows(true, "fta", engine_rows);
  return cases;
}

struct Verdict {
  bool accepted = false;
  std::string problems;  // every problem, joined
};

Verdict verdict_of(const std::vector<std::string>& problems) {
  return {problems.empty(), join(problems, " | ")};
}

TEST(OptionDoorsTest, EveryDeclaredOptionGetsOneVerdictThroughEveryDoor) {
  ServerOptions server_options;
  server_options.port = 0;
  server_options.threads = 2;
  Server server(server_options);
  server.start();

  const std::vector<Case> cases = all_cases();
  // Every table is covered: 7 boundary values per row at least.
  ASSERT_GT(cases.size(), 150u);
  for (const Case& c : cases) {
    const std::string section = c.engine ? "engine " : "solver ";
    const std::string assignment = concat(c.key, "=", c.value);

    // 1. The document's own section.
    const std::string with_option =
        concat(kBase, section, c.host, " ", c.key, " = ", c.value, ";\n");
    Verdict document;
    try {
      document = verdict_of(validate_problems(ftio::parse_study(with_option)));
    } catch (const ftio::ParseError& error) {
      document = {false, error.what()};
    }

    // 2. The command line: the bare section plus --extra / --engine-opt.
    const std::string bare = concat(kBase, section, c.host, ";\n");
    core::StudyOverrides overrides;
    (c.engine ? overrides.engine_options : overrides.extras)
        .push_back(assignment);
    Verdict command_line;
    try {
      command_line =
          verdict_of(validate_problems(ftio::parse_study(bare), overrides));
    } catch (const std::invalid_argument& error) {
      command_line = {false, error.what()};  // parse_key_value_argument
    }

    // 3. A request body with `extras` / `engine_options`.
    const auto reply = http_request(
        server.port(), "POST", "/v1/validate",
        concat("{\"document\": ", json_document(bare), ", \"",
               c.engine ? "engine_options" : "extras", "\": [",
               json_document(assignment), "]}"));
    Verdict request;
    if (reply.status == 200) {
      const JsonValue body = JsonValue::parse(reply.body);
      std::vector<std::string> problems;
      for (const JsonValue& problem : body.find("problems")->items()) {
        problems.push_back(problem.as_string());
      }
      request = verdict_of(problems);
    } else {
      request = {false, reply.body};
    }

    for (const auto& [door, verdict] :
         {std::pair{"document", &document},
          std::pair{"command line", &command_line},
          std::pair{"request", &request}}) {
      EXPECT_EQ(verdict->accepted, c.accepted)
          << ::testing::PrintToString(c) << " via " << door << ": "
          << verdict->problems;
      if (!verdict->accepted) {
        EXPECT_NE(verdict->problems.find(c.key), std::string::npos)
            << ::testing::PrintToString(c) << " via " << door << ": "
            << verdict->problems;
      }
    }
  }
  server.stop();
}

}  // namespace
}  // namespace safeopt::serve
