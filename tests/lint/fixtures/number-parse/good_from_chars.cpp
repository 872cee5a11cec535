// Fixture: exact parsing, near-miss identifiers and an allowed exception.
#include <charconv>
#include <cstdlib>
#include <string>
#include <string_view>

double my_strtod(const char* text);  // user function, not ::strtod
struct Reader;  // declares a member function named strtod

double f(std::string_view text, Reader& reader) {
  double x = 0.0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), x);
  (void)end;
  (void)ec;
  x += my_strtod("1");                 // "strtod" inside a longer name
  x += reader.strtod("2");             // member call, not the C function
  const std::string comment = "strtod(";  // literal bodies are blanked
  // std::stoi( in a comment is not code
  std::stop_token* token = nullptr;    // std::sto... but not a conversion
  (void)token;
  // safeopt-lint: allow(number-parse) — fixture for the allow pragma
  x += std::strtod("3", nullptr);
  return x + static_cast<double>(comment.size());
}
