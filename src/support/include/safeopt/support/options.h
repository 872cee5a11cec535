// Declared options: the one checker behind every typed option table — each
// solver's SolverTraits::options and the engine option schema. A table is a
// list of OptionSpec rows (name, kind, range, default, doc). Every front door
// (a document's `solver`/`engine` section, `--extra`/`--engine-opt`, a
// request body) hands in the value as it read it, a number or a word, and
// check_option types and range-checks it against the row. So one value gets
// one verdict and one message whichever door it came through, and no value
// from user input reaches a contract.
#ifndef SAFEOPT_SUPPORT_OPTIONS_H
#define SAFEOPT_SUPPORT_OPTIONS_H

#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>

namespace safeopt {

/// One `key = value` option value as a front door read it: a number, or
/// text. A document's quoted string is text even when it looks numeric.
struct OptionValue {
  enum class Kind { kNumber, kText };
  Kind kind = Kind::kNumber;
  double number = 0.0;
  std::string text;
  bool quoted = false;  // writer detail: re-emit text values with quotes

  [[nodiscard]] static OptionValue of(double value) {
    OptionValue v;
    v.kind = Kind::kNumber;
    v.number = value;
    return v;
  }
  [[nodiscard]] static OptionValue of(std::string value, bool quoted = false) {
    OptionValue v;
    v.kind = Kind::kText;
    v.text = std::move(value);
    v.quoted = quoted;
    return v;
  }
  friend bool operator==(const OptionValue&, const OptionValue&) = default;
};

struct KeyValueArgument;  // strings.h

/// A command-line `KEY=VALUE` argument's value: its number, else its text.
[[nodiscard]] OptionValue option_value(const KeyValueArgument& argument);

/// The largest count a double holds exactly; larger "counts" would not
/// survive the conversion to an integer.
inline constexpr double kMaxCount = 9007199254740992.0;  // 2^53

enum class OptionKind : unsigned char {
  kCount,   // a whole number in [min, max], at most 2^53
  kNumber,  // a real number in [min, max] ((min, max] if min_exclusive)
  kFlag,    // 0/1 or true/false
  kEnum,    // a name; the row's owner checks it against its vocabulary
};

/// One declared option. Rows are constant tables; designated initializers
/// keep them readable: {.name = "starts", .kind = OptionKind::kCount,
/// .min = 1, .fallback = 8, .doc = "..."}.
struct OptionSpec {
  std::string_view name{};
  OptionKind kind = OptionKind::kNumber;
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
  bool min_exclusive = false;
  /// When non-empty, 0 is accepted besides [min, max] and means this.
  std::string_view zero_means{};
  /// The default a reader falls back to (a flag's as 0 or 1).
  double fallback = 0.0;
  /// The default of a kEnum row, or how to describe a default that is not
  /// a number.
  std::string_view fallback_text{};
  std::string_view doc{};
};

/// "count", "number", "flag" or "enum".
[[nodiscard]] std::string_view kind_name(OptionKind kind) noexcept;

/// Checks `value` against `row` and returns it as a number (a flag as 0 or
/// 1; 0 for a kEnum row, whose owner checks the name). Throws
/// std::invalid_argument naming `owner` ("engine", "grid_search"), the key
/// and the accepted range when the value does not fit: text for a numeric
/// row ("must be numeric"), unquoted text that looks numeric ("8x", a
/// typo: "has a malformed numeric value"), NaN, a fraction for a count, or
/// a number out of range.
double check_option(const OptionSpec& row, const OptionValue& value,
                    std::string_view owner);

/// The row of `rows` named `key`, or nullptr.
[[nodiscard]] const OptionSpec* find_option(std::span<const OptionSpec> rows,
                                            std::string_view key) noexcept;

/// Throws std::invalid_argument for an option `key` that `owner` does not
/// declare: the nearest name of `rows` and `also` when it is at most three
/// edits away ("did you mean"), then every name.
[[noreturn]] void throw_unknown_option(std::string_view owner,
                                       std::string_view key,
                                       std::span<const OptionSpec> rows,
                                       std::span<const OptionSpec> also = {});

/// The row's kind, range and default for help text ("count >= 2, default
/// 33").
[[nodiscard]] std::string describe_option(const OptionSpec& row);

}  // namespace safeopt

#endif  // SAFEOPT_SUPPORT_OPTIONS_H
