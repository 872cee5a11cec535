#include "safeopt/support/options.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "safeopt/support/strings.h"

namespace safeopt {
namespace {

/// A finite bound as messages show it: a count's as a whole number
/// ("1000000", not "1e+06").
std::string bound_text(const OptionSpec& row, double bound) {
  return row.kind == OptionKind::kCount
             ? std::to_string(static_cast<long long>(bound))
             : format_double(bound);
}

/// The accepted range in words: "in [0, 1]", "> 0", ">= 2", "0 (auto) or
/// >= 4"; empty when any number but NaN fits.
std::string range_text(const OptionSpec& row) {
  const bool has_min = row.min > -std::numeric_limits<double>::infinity();
  const bool has_max = row.max < std::numeric_limits<double>::infinity();
  std::string range;
  if (has_min && has_max) {
    range = concat("in ", row.min_exclusive ? "(" : "[",
                   bound_text(row, row.min), ", ", bound_text(row, row.max),
                   "]");
  } else if (has_min) {
    range = concat(row.min_exclusive ? "> " : ">= ", bound_text(row, row.min));
  } else if (has_max) {
    range = concat("<= ", bound_text(row, row.max));
  }
  if (!row.zero_means.empty()) {
    range = concat("0 (", row.zero_means, ") or ", range);
  }
  return range;
}

bool in_range(const OptionSpec& row, double value) {
  if (value == 0.0 && !row.zero_means.empty()) return true;
  const bool above_min = row.min_exclusive ? value > row.min : value >= row.min;
  return above_min && value <= row.max;  // false for NaN
}

std::string quoted_text(const OptionValue& value) {
  return concat("\"", value.text, "\"");
}

/// Levenshtein distance, the "did you mean" metric (option names are short,
/// so the quadratic DP is fine).
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t substitution =
          diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      diagonal = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitution});
    }
  }
  return row[b.size()];
}

}  // namespace

OptionValue option_value(const KeyValueArgument& argument) {
  return argument.number.has_value()
             ? OptionValue::of(*argument.number)
             : OptionValue::of(std::string(argument.text));
}

std::string_view kind_name(OptionKind kind) noexcept {
  constexpr std::string_view kNames[] = {"count", "number", "flag", "enum"};
  return kNames[static_cast<std::size_t>(kind)];
}

double check_option(const OptionSpec& row, const OptionValue& value,
                    std::string_view owner) {
  const auto fail = [&](std::string_view what) {
    throw std::invalid_argument(
        concat(owner, " option \"", row.name, "\" ", what));
  };
  const bool text = value.kind == OptionValue::Kind::kText;
  if (text && !value.quoted && numeric_looking(value.text)) {
    // "8x", "1_000": a typo of a number, never a word.
    fail(concat("has a malformed numeric value ", quoted_text(value)));
  }
  switch (row.kind) {
    case OptionKind::kEnum:
      if (!text) {
        fail(concat("must be a name, got ", format_double(value.number)));
      }
      return 0.0;
    case OptionKind::kFlag:
      if (text && (value.text == "true" || value.text == "false")) {
        return value.text == "true" ? 1.0 : 0.0;
      }
      if (!text && (value.number == 0.0 || value.number == 1.0)) {
        return value.number;
      }
      fail(concat("must be 0/1 or true/false, got ",
                  text ? quoted_text(value)
                       : concat("\"", format_double(value.number), "\"")));
      break;
    case OptionKind::kCount:
    case OptionKind::kNumber: {
      if (text) fail(concat("must be numeric, got ", quoted_text(value)));
      const double number = value.number;
      const std::string range = range_text(row);
      if (row.kind == OptionKind::kCount &&
          !(std::isfinite(number) && number == std::floor(number) &&
            in_range(row, number) && number <= kMaxCount)) {
        fail(concat("must be an integer ", range,
                    number > kMaxCount && std::isfinite(number)
                        ? " (at most 2^53)"
                        : "",
                    ", got ", format_double(number)));
      }
      if (!in_range(row, number)) {
        fail(concat("must be a number", range.empty() ? "" : " ", range,
                    ", got ", format_double(number)));
      }
      return number;
    }
  }
  return 0.0;
}

const OptionSpec* find_option(std::span<const OptionSpec> rows,
                              std::string_view key) noexcept {
  for (const OptionSpec& row : rows) {
    if (row.name == key) return &row;
  }
  return nullptr;
}

void throw_unknown_option(std::string_view owner, std::string_view key,
                          std::span<const OptionSpec> rows,
                          std::span<const OptionSpec> also) {
  std::string_view nearest;
  std::size_t nearest_distance = key.size();
  std::string supported;
  for (const auto table : {rows, also}) {
    for (const OptionSpec& row : table) {
      if (!supported.empty()) supported += ", ";
      supported += row.name;
      const std::size_t distance = edit_distance(key, row.name);
      if (distance < nearest_distance) {
        nearest = row.name;
        nearest_distance = distance;
      }
    }
  }
  throw std::invalid_argument(concat(
      "unknown ", owner, " option \"", key, "\"",
      nearest.empty() || nearest_distance > 3
          ? ""
          : concat(" (did you mean \"", nearest, "\"?)"),
      "; supported: ", supported.empty() ? "none" : supported));
}

std::string describe_option(const OptionSpec& row) {
  const std::string range =
      row.kind == OptionKind::kCount || row.kind == OptionKind::kNumber
          ? range_text(row)
          : "";
  return concat(kind_name(row.kind), range.empty() ? "" : " ", range,
                ", default ",
                row.fallback_text.empty() ? format_double(row.fallback)
                                          : std::string(row.fallback_text));
}

}  // namespace safeopt
