// Small string utilities shared across modules (parser diagnostics, report
// formatting). Kept deliberately minimal; anything heavier belongs in <format>
// once universally available.
#ifndef SAFEOPT_SUPPORT_STRINGS_H
#define SAFEOPT_SUPPORT_STRINGS_H

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace safeopt {

/// Joins `parts` with `sep` ("a", "b" -> "a, b" for sep ", ").
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

/// Concatenates string-like parts (std::string, string literals,
/// string_view) into one string with a single allocation. Use this instead
/// of `"literal" + std::string(...)` chains: besides saving the
/// intermediate strings, gcc 12's -Wrestrict reports a false-positive
/// overlap inside operator+(const char*, std::string&&) (GCC PR105651),
/// and routing concatenation through append() keeps -Werror viable.
template <typename... Parts>
[[nodiscard]] std::string concat(const Parts&... parts) {
  std::string out;
  out.reserve((std::string_view(parts).size() + ...));
  (out.append(std::string_view(parts)), ...);
  return out;
}

/// Strips ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view text) noexcept;

/// Splits on a single character separator; keeps empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view text, char sep);

/// True if `text` starts with `prefix`.
[[nodiscard]] bool starts_with(std::string_view text,
                               std::string_view prefix) noexcept;

/// Formats a double with enough digits to round-trip, trimming trailing zeros
/// ("0.25", "1e-06", "19.2").
[[nodiscard]] std::string format_double(double value);

/// True when `value` *starts* like a number ([0-9.+-]). Unquoted option text
/// that looks numeric but is not a number ("8x", "1_000") is a typo, not a
/// word: storing it as text would make numeric lookups silently fall back to
/// their defaults.
[[nodiscard]] bool numeric_looking(std::string_view value) noexcept;

/// One command-line `KEY=VALUE` argument (`--extra`, `--engine-opt`), typed
/// by one rule: `number` is set when the whole value parses as a double with
/// std::from_chars (locale-independent: no leading '+' or whitespace, no hex
/// prefix; "inf" and "nan" are numbers), otherwise the value is text.
struct KeyValueArgument {
  std::string_view key;
  std::string_view text;
  std::optional<double> number;
};

/// Splits and types `argument`; the views point into it. Throws
/// std::invalid_argument, naming `what` ("solver extra", "engine option"),
/// when there is no '=', the key or the value is empty, or the value is
/// numeric_looking() but not a number ("8x", "+5", "0x10").
[[nodiscard]] KeyValueArgument parse_key_value_argument(
    std::string_view argument, std::string_view what);

}  // namespace safeopt

#endif  // SAFEOPT_SUPPORT_STRINGS_H
