// Fixture: lenient C and std string-to-number conversions.
#include <cstdlib>
#include <string>

double f(const std::string& text, const char* raw) {
  char* end = nullptr;
  double x = std::strtod(raw, &end);          // accepts "0x1p3" and "inf"
  x += strtof(raw, nullptr);                  // unqualified C call
  x += static_cast<double>(strtoull(raw, nullptr, 10));  // "-1" wraps
  x += static_cast<double>(std::strtol(raw, &end, 0));
  x += atof(raw);                             // no error reporting at all
  x += std::atoi(raw);
  x += std::stod(text);                       // trailing junk ignored
  x += static_cast<double>(std::stoull(text));
  return x;
}
