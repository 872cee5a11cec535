#include "safeopt/support/strings.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <stdexcept>

namespace safeopt {

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view trim(std::string_view text) noexcept {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin])) != 0) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1])) != 0) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      fields.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return fields;
}

bool starts_with(std::string_view text, std::string_view prefix) noexcept {
  return text.substr(0, prefix.size()) == prefix;
}

std::string format_double(double value) {
  char buffer[64];
  const auto [end, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc{}) {
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
  }
  return std::string(buffer, end);
}

bool numeric_looking(std::string_view value) noexcept {
  if (value.empty()) return false;
  const char first = value.front();
  return (first >= '0' && first <= '9') || first == '-' || first == '+' ||
         first == '.';
}

KeyValueArgument parse_key_value_argument(std::string_view argument,
                                          std::string_view what) {
  const std::size_t equals = argument.find('=');
  if (equals == std::string_view::npos || equals == 0 ||
      equals + 1 == argument.size()) {
    throw std::invalid_argument(
        concat(what, " must be key=value, got \"", argument, "\""));
  }
  KeyValueArgument parsed{.key = argument.substr(0, equals),
                          .text = argument.substr(equals + 1),
                          .number = std::nullopt};
  const char* const first = parsed.text.data();
  const char* const last = first + parsed.text.size();
  double number = 0.0;
  const auto [end, ec] = std::from_chars(first, last, number);
  if (ec == std::errc{} && end == last) {
    parsed.number = number;
  } else if (numeric_looking(parsed.text)) {
    throw std::invalid_argument(
        concat(what, " \"", parsed.key, "\" has a malformed numeric value \"",
               parsed.text, "\""));
  }
  return parsed;
}

}  // namespace safeopt
