#include "safeopt/expr/parse.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "node.h"
#include "safeopt/stats/distribution.h"
#include "safeopt/support/strings.h"

namespace safeopt::expr {

ParseError::ParseError(std::size_t offset, const std::string& what)
    : std::runtime_error(what), offset_(offset) {}

// -------------------------------------------------------------- SymbolTable

SymbolTable::SymbolTable(std::initializer_list<std::string> names) {
  for (const std::string& name : names) add(name);
}

SymbolTable::SymbolTable(std::vector<std::string> names) {
  for (std::string& name : names) add(std::move(name));
}

void SymbolTable::add(std::string name) {
  const auto it = std::lower_bound(names_.begin(), names_.end(), name);
  if (it == names_.end() || *it != name) names_.insert(it, std::move(name));
}

bool SymbolTable::contains(std::string_view name) const noexcept {
  return std::binary_search(names_.begin(), names_.end(), name);
}

// ------------------------------------------------------------------- Lexer

namespace {

struct Token {
  enum class Kind {
    kNumber,
    kIdentifier,
    kLParen,
    kRParen,
    kLBracket,
    kRBracket,
    kComma,
    kPlus,
    kMinus,
    kStar,
    kSlash,
    kEnd,
  };
  Kind kind = Kind::kEnd;
  std::string_view text;
  double number = 0.0;
  std::size_t offset = 0;
};

[[nodiscard]] bool is_identifier_start(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

[[nodiscard]] bool is_identifier_char(char c) noexcept {
  return is_identifier_start(c) || (c >= '0' && c <= '9');
}

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Token next() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
    Token token;
    token.offset = pos_;
    if (pos_ >= text_.size()) return token;
    const char c = text_[pos_];
    const auto single = [&](Token::Kind kind) {
      token.kind = kind;
      token.text = text_.substr(pos_, 1);
      ++pos_;
      return token;
    };
    switch (c) {
      case '(': return single(Token::Kind::kLParen);
      case ')': return single(Token::Kind::kRParen);
      case '[': return single(Token::Kind::kLBracket);
      case ']': return single(Token::Kind::kRBracket);
      case ',': return single(Token::Kind::kComma);
      case '+': return single(Token::Kind::kPlus);
      case '-': return single(Token::Kind::kMinus);
      case '*': return single(Token::Kind::kStar);
      case '/': return single(Token::Kind::kSlash);
      default: break;
    }
    if ((c >= '0' && c <= '9') || c == '.') {
      // std::from_chars consumes the maximal valid double, which keeps
      // scientific forms ("1e-06", "1e+05") one token while stopping at
      // operators ("2*T1" -> "2", '*', "T1").
      const char* begin = text_.data() + pos_;
      const char* end = text_.data() + text_.size();
      double value = 0.0;
      const auto result = std::from_chars(begin, end, value);
      if (result.ec != std::errc{}) {
        throw ParseError(pos_, concat("malformed number starting at '",
                                      text_.substr(pos_, 8), "'"));
      }
      token.kind = Token::Kind::kNumber;
      token.number = value;
      token.text =
          text_.substr(pos_, static_cast<std::size_t>(result.ptr - begin));
      pos_ += token.text.size();
      return token;
    }
    if (is_identifier_start(c)) {
      const std::size_t start = pos_;
      while (pos_ < text_.size() && is_identifier_char(text_[pos_])) ++pos_;
      token.kind = Token::Kind::kIdentifier;
      token.text = text_.substr(start, pos_ - start);
      return token;
    }
    throw ParseError(pos_, concat("unexpected character '",
                                  std::string_view(&text_[pos_], 1),
                                  "' in expression"));
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

// ------------------------------------------------------------------ Parser

class Parser {
 public:
  Parser(std::string_view text, const SymbolTable& symbols)
      : lexer_(text), symbols_(symbols) {
    consume();
  }

  Expr parse_all() {
    if (current_.kind == Token::Kind::kEnd) {
      throw ParseError(current_.offset, "empty expression");
    }
    Expr result = parse_expression();
    if (current_.kind != Token::Kind::kEnd) {
      throw ParseError(current_.offset,
                       concat("unexpected trailing input at '", current_.text,
                              "'"));
    }
    return result;
  }

 private:
  void consume() { current_ = lexer_.next(); }

  [[nodiscard]] bool accept(Token::Kind kind) {
    if (current_.kind != kind) return false;
    consume();
    return true;
  }

  void expect(Token::Kind kind, const char* what) {
    if (current_.kind == kind) {
      consume();
      return;
    }
    if (current_.kind == Token::Kind::kEnd) {
      throw ParseError(current_.offset,
                       concat("expected ", what, " at end of expression"));
    }
    throw ParseError(current_.offset, concat("expected ", what, ", got '",
                                             current_.text, "'"));
  }

  Expr parse_expression() {
    Expr left = parse_term();
    while (true) {
      if (accept(Token::Kind::kPlus)) {
        left = std::move(left) + parse_term();
      } else if (accept(Token::Kind::kMinus)) {
        left = std::move(left) - parse_term();
      } else {
        return left;
      }
    }
  }

  Expr parse_term() {
    Expr left = parse_factor();
    while (true) {
      if (accept(Token::Kind::kStar)) {
        left = std::move(left) * parse_factor();
      } else if (accept(Token::Kind::kSlash)) {
        left = std::move(left) / parse_factor();
      } else {
        return left;
      }
    }
  }

  Expr parse_factor() {
    // Recursion guard: every nesting construct (parentheses, unary minus,
    // function arguments) re-enters the grammar through parse_factor, so
    // bounding it here caps total parser stack depth — a pathological
    // "((((...1...))))" or "----...-1" raises ParseError instead of
    // overflowing the stack. 256 is far beyond any legitimate formula.
    if (++depth_ > kMaxDepth) {
      throw ParseError(current_.offset,
                       concat("expression nesting exceeds the supported "
                              "depth (", std::to_string(kMaxDepth), ")"));
    }
    struct DepthGuard {
      std::size_t& depth;
      ~DepthGuard() { --depth; }
    } guard{depth_};
    if (accept(Token::Kind::kMinus)) {
      // "-2" is the constant -2, not neg(2): the printer renders negative
      // ConstNodes as signed literals, and round-tripping them back into
      // constants keeps parse ∘ print structure-preserving.
      if (current_.kind == Token::Kind::kNumber) {
        const double value = current_.number;
        consume();
        return constant(-value);
      }
      if (current_.kind == Token::Kind::kIdentifier &&
          current_.text == "inf") {
        consume();
        return constant(-std::numeric_limits<double>::infinity());
      }
      return -parse_factor();
    }
    return parse_primary();
  }

  Expr parse_primary() {
    if (current_.kind == Token::Kind::kNumber) {
      const double value = current_.number;
      consume();
      return constant(value);
    }
    if (accept(Token::Kind::kLParen)) {
      Expr inner = parse_expression();
      expect(Token::Kind::kRParen, "')'");
      return inner;
    }
    if (current_.kind != Token::Kind::kIdentifier) {
      throw ParseError(current_.offset,
                       current_.kind == Token::Kind::kEnd
                           ? std::string("unexpected end of expression")
                           : concat("unexpected '", current_.text,
                                    "' in expression"));
    }
    const Token name = current_;
    consume();
    if (current_.kind == Token::Kind::kLParen) return parse_call(name);
    if (current_.kind == Token::Kind::kLBracket) {
      return parse_distribution_call(name);
    }
    if (name.text == "inf") {
      return constant(std::numeric_limits<double>::infinity());
    }
    if (name.text == "nan") {
      return constant(std::numeric_limits<double>::quiet_NaN());
    }
    if (!symbols_.contains(name.text)) {
      throw ParseError(
          name.offset,
          concat("unknown parameter '", name.text, "' (declared: ",
                 symbols_.names().empty() ? "none"
                                          : join(symbols_.names(), ", "),
                 ")"));
    }
    return parameter(std::string(name.text));
  }

  Expr parse_call(const Token& name) {
    expect(Token::Kind::kLParen, "'('");
    if (name.text == "exp" || name.text == "log" || name.text == "sqrt") {
      Expr arg = parse_expression();
      expect(Token::Kind::kRParen, "')'");
      if (name.text == "exp") return exp(std::move(arg));
      if (name.text == "log") return log(std::move(arg));
      return sqrt(std::move(arg));
    }
    if (name.text == "min" || name.text == "max") {
      Expr a = parse_expression();
      expect(Token::Kind::kComma, "','");
      Expr b = parse_expression();
      expect(Token::Kind::kRParen, "')'");
      return name.text == "min" ? min(std::move(a), std::move(b))
                                : max(std::move(a), std::move(b));
    }
    if (name.text == "pow") {
      Expr base = parse_expression();
      expect(Token::Kind::kComma, "','");
      const double exponent = parse_constant_argument("pow exponent");
      expect(Token::Kind::kRParen, "')'");
      return pow(std::move(base), exponent);
    }
    if (name.text == "clamp") {
      Expr arg = parse_expression();
      expect(Token::Kind::kComma, "','");
      const double lo = parse_constant_argument("clamp lower bound");
      expect(Token::Kind::kComma, "','");
      const double hi = parse_constant_argument("clamp upper bound");
      expect(Token::Kind::kRParen, "')'");
      if (!(lo <= hi)) {
        throw ParseError(name.offset,
                         "clamp bounds must satisfy lower <= upper");
      }
      return clamp(std::move(arg), lo, hi);
    }
    if (name.text == "cdf" || name.text == "survival") {
      throw ParseError(name.offset,
                       concat(name.text,
                              " takes a distribution in brackets: ",
                              name.text, "[Normal(4, 2)](T1)"));
    }
    throw ParseError(
        name.offset,
        concat("unknown function '", name.text,
               "' (supported: exp, log, sqrt, pow, min, max, clamp, "
               "cdf[...], survival[...]; opaque function1 nodes cannot be "
               "written in text)"));
  }

  /// A constant argument slot (pow exponent, clamp bound): any constant
  /// subexpression works, a parameterized one is rejected.
  double parse_constant_argument(const char* what) {
    const std::size_t offset = current_.offset;
    const Expr value = parse_expression();
    if (!value.is_constant()) {
      throw ParseError(offset, concat(what, " must be a constant"));
    }
    return value.evaluate({});
  }

  /// A signed numeric literal inside distribution arguments.
  double parse_signed_number(const char* what) {
    const bool negative = accept(Token::Kind::kMinus);
    if (current_.kind == Token::Kind::kNumber) {
      const double value = current_.number;
      consume();
      return negative ? -value : value;
    }
    if (current_.kind == Token::Kind::kIdentifier && current_.text == "inf") {
      consume();
      const double inf = std::numeric_limits<double>::infinity();
      return negative ? -inf : inf;
    }
    throw ParseError(current_.offset,
                     concat("expected a number for ", what, ", got '",
                            current_.text, "'"));
  }

  Expr parse_distribution_call(const Token& name) {
    expect(Token::Kind::kLBracket, "'['");
    if (name.text != "cdf" && name.text != "survival") {
      throw ParseError(name.offset,
                       concat("unknown function '", name.text,
                              "'; only cdf[...] and survival[...] take a "
                              "distribution"));
    }
    const bool survival_call = name.text == "survival";
    std::shared_ptr<const stats::Distribution> dist = parse_distribution();
    expect(Token::Kind::kRBracket, "']'");
    expect(Token::Kind::kLParen, "'('");
    Expr arg = parse_expression();
    expect(Token::Kind::kRParen, "')'");
    return survival_call ? survival(std::move(dist), std::move(arg))
                         : cdf(std::move(dist), std::move(arg));
  }

  std::shared_ptr<const stats::Distribution> parse_distribution() {
    if (current_.kind != Token::Kind::kIdentifier) {
      throw ParseError(current_.offset, "expected a distribution name");
    }
    const Token name = current_;
    consume();
    expect(Token::Kind::kLParen, "'(' after the distribution name");

    const auto check = [&](bool ok, const char* message) {
      if (!ok) {
        throw ParseError(name.offset,
                         concat(name.text, ": ", message));
      }
    };

    std::shared_ptr<const stats::Distribution> dist;
    if (name.text == "Normal" || name.text == "LogNormal") {
      const double mu = parse_signed_number("mu");
      expect(Token::Kind::kComma, "','");
      const double sigma = parse_signed_number("sigma");
      check(std::isfinite(mu), "mu must be finite");
      check(std::isfinite(sigma) && sigma > 0.0, "sigma must be > 0");
      if (name.text == "Normal") {
        dist = std::make_shared<stats::Normal>(mu, sigma);
      } else {
        dist = std::make_shared<stats::LogNormal>(mu, sigma);
      }
    } else if (name.text == "TruncatedNormal") {
      const double mu = parse_signed_number("mu");
      expect(Token::Kind::kComma, "','");
      const double sigma = parse_signed_number("sigma");
      expect(Token::Kind::kComma, "','");
      expect(Token::Kind::kLBracket, "'[' before the truncation bounds");
      const double lo = parse_signed_number("the lower bound");
      expect(Token::Kind::kComma, "','");
      const double hi = parse_signed_number("the upper bound");
      expect(Token::Kind::kRBracket, "']' after the truncation bounds");
      check(std::isfinite(mu), "mu must be finite");
      check(std::isfinite(sigma) && sigma > 0.0, "sigma must be > 0");
      check(lo < hi, "truncation requires lower < upper");
      dist = std::make_shared<stats::TruncatedNormal>(mu, sigma, lo, hi);
    } else if (name.text == "Exponential") {
      const double rate = parse_signed_number("rate");
      check(std::isfinite(rate) && rate > 0.0, "rate must be > 0");
      dist = std::make_shared<stats::Exponential>(rate);
    } else if (name.text == "Weibull" || name.text == "Gamma") {
      const double shape = parse_signed_number("shape");
      expect(Token::Kind::kComma, "','");
      const double scale = parse_signed_number("scale");
      check(std::isfinite(shape) && shape > 0.0, "shape must be > 0");
      check(std::isfinite(scale) && scale > 0.0, "scale must be > 0");
      if (name.text == "Weibull") {
        dist = std::make_shared<stats::Weibull>(shape, scale);
      } else {
        dist = std::make_shared<stats::Gamma>(shape, scale);
      }
    } else if (name.text == "Uniform") {
      const double lo = parse_signed_number("the lower bound");
      expect(Token::Kind::kComma, "','");
      const double hi = parse_signed_number("the upper bound");
      check(std::isfinite(lo) && std::isfinite(hi) && lo < hi,
            "requires finite lower < upper");
      dist = std::make_shared<stats::Uniform>(lo, hi);
    } else {
      throw ParseError(
          name.offset,
          concat("unknown distribution '", name.text,
                 "' (supported: Normal, TruncatedNormal, Exponential, "
                 "Weibull, LogNormal, Uniform, Gamma)"));
    }
    expect(Token::Kind::kRParen, "')' after the distribution parameters");
    return dist;
  }

  static constexpr std::size_t kMaxDepth = 256;

  Lexer lexer_;
  Token current_;
  const SymbolTable& symbols_;
  std::size_t depth_ = 0;  // live parse_factor frames (see the guard there)
};

// ------------------------------------------------------ structural equality

using detail::Node;
using detail::NodeKind;

bool nodes_equal(const Node* a, const Node* b) noexcept {
  if (a == b) return true;
  if (a->kind() != b->kind()) return false;
  switch (a->kind()) {
    case NodeKind::kConst: {
      const auto* ca = static_cast<const detail::ConstNode*>(a);
      const auto* cb = static_cast<const detail::ConstNode*>(b);
      // Bit comparison: -0.0 != 0.0 and NaN == NaN here, which is what
      // "same tape, same bits" requires.
      const double x = ca->constant();
      const double y = cb->constant();
      return std::memcmp(&x, &y, sizeof(double)) == 0;
    }
    case NodeKind::kParam: {
      return static_cast<const detail::ParamNode*>(a)->name() ==
             static_cast<const detail::ParamNode*>(b)->name();
    }
    case NodeKind::kBinary: {
      const auto* ba = static_cast<const detail::BinaryNode*>(a);
      const auto* bb = static_cast<const detail::BinaryNode*>(b);
      return ba->op() == bb->op() &&
             nodes_equal(ba->lhs().get(), bb->lhs().get()) &&
             nodes_equal(ba->rhs().get(), bb->rhs().get());
    }
    case NodeKind::kUnary: {
      const auto* ua = static_cast<const detail::UnaryNode*>(a);
      const auto* ub = static_cast<const detail::UnaryNode*>(b);
      return ua->op() == ub->op() &&
             nodes_equal(ua->operand().get(), ub->operand().get());
    }
    case NodeKind::kPow: {
      const auto* pa = static_cast<const detail::PowNode*>(a);
      const auto* pb = static_cast<const detail::PowNode*>(b);
      const double x = pa->exponent();
      const double y = pb->exponent();
      return std::memcmp(&x, &y, sizeof(double)) == 0 &&
             nodes_equal(pa->operand().get(), pb->operand().get());
    }
    case NodeKind::kCdf: {
      const auto* ca = static_cast<const detail::CdfNode*>(a);
      const auto* cb = static_cast<const detail::CdfNode*>(b);
      return ca->is_survival() == cb->is_survival() &&
             ca->distribution()->name() == cb->distribution()->name() &&
             nodes_equal(ca->operand().get(), cb->operand().get());
    }
    case NodeKind::kFunction: {
      const auto* fa = static_cast<const detail::FunctionNode*>(a);
      const auto* fb = static_cast<const detail::FunctionNode*>(b);
      return fa->name() == fb->name() &&
             nodes_equal(fa->operand().get(), fb->operand().get());
    }
  }
  return false;
}

/// The value of `text` when it is one numeric literal, optionally negated
/// and padded with the lexer's whitespace ("0.25", " -1e-3 "); nullopt for
/// anything else. It is what the lexer reads for that literal, and the
/// parser negates it as parse_factor does.
std::optional<double> bare_literal(std::string_view text) {
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
  };
  while (!text.empty() && is_space(text.front())) text.remove_prefix(1);
  while (!text.empty() && is_space(text.back())) text.remove_suffix(1);
  const bool negative = !text.empty() && text.front() == '-';
  if (negative) text.remove_prefix(1);
  if (text.empty() || !((text.front() >= '0' && text.front() <= '9') ||
                        text.front() == '.')) {
    return std::nullopt;
  }
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    return std::nullopt;
  }
  return negative ? -value : value;
}

}  // namespace

Expr parse(std::string_view text, const SymbolTable& symbols) {
  if (const std::optional<double> literal = bare_literal(text)) {
    return constant(*literal);
  }
  Parser parser(text, symbols);
  return parser.parse_all();
}

bool structurally_equal(const Expr& a, const Expr& b) noexcept {
  return nodes_equal(a.node().get(), b.node().get());
}

}  // namespace safeopt::expr
