// Grammar v2 parser/writer (study_document.h) and the v1 entry point
// parse_fault_tree, which runs on the same machinery: one grammar, one
// lexer, one tree builder. The v1 dialect is the subset of v2 with a single
// tree and constant probabilities, and its diagnostics (messages and
// line:column positions) are pinned by tests/ftio/parser_test.cpp.
#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <utility>
#include <vector>

#include "safeopt/expr/parse.h"
#include "safeopt/ftio/parser.h"
#include "safeopt/ftio/study_document.h"
#include "safeopt/ftio/writer.h"
#include "safeopt/support/contracts.h"
#include "safeopt/support/error.h"
#include "safeopt/support/name_index.h"
#include "safeopt/support/strings.h"

namespace safeopt::ftio {
namespace {

// ------------------------------------------------------------------ lexer

struct Token {
  enum class Kind {
    kIdentifier,
    kNumber,
    kString,
    kEquals,
    kSemicolon,
    kLBracket,
    kRBracket,
    kComma,
    kEnd,
  };
  Kind kind = Kind::kEnd;
  /// A view into the document. For kString it is the text between the
  /// quotes with its escapes still in place (see unescape()).
  std::string_view text;
  double number = 0.0;
  std::size_t line = 1;
  std::size_t column = 1;
};

/// Resolves the lexer's \" and \\ escapes; any other backslash is literal.
std::string unescape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] == '\\' && i + 1 < raw.size() &&
        (raw[i + 1] == '"' || raw[i + 1] == '\\')) {
      ++i;
    }
    out += raw[i];
  }
  return out;
}

/// How a token reads in a diagnostic: a string's contents, escapes
/// resolved; any other token as written.
std::string spelling(const Token& token) {
  return token.kind == Token::Kind::kString ? unescape(token.text)
                                            : std::string(token.text);
}

/// A captured raw expression slice: everything between '=' and ';', with
/// comments blanked to spaces so expr::ParseError offsets still map onto
/// document positions. `text` views the document, or `blanked` when the
/// slice held a comment (heap-held, so the view survives moves).
struct RawExpression {
  std::string_view text;
  std::unique_ptr<std::string> blanked;
  std::size_t line = 1;
  std::size_t column = 1;
};

// ASCII character classes: the grammar is ASCII, and these are the
// "C"-locale answers of <cctype> without its per-call locale lookup.
constexpr bool is_digit(char c) { return c >= '0' && c <= '9'; }
constexpr bool is_alpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool is_identifier_start(char c) { return is_alpha(c) || c == '_'; }

/// [A-Za-z0-9_.+-] by character code: one load per character of a word.
constexpr std::array<bool, 256> kWordChars = [] {
  std::array<bool, 256> table{};
  for (int c = 0; c < 256; ++c) {
    const char ch = static_cast<char>(c);
    table[c] = is_alpha(ch) || is_digit(ch) || ch == '_' || ch == '.' ||
               ch == '+' || ch == '-';
  }
  return table;
}();
bool is_word_char(char c) { return kWordChars[static_cast<unsigned char>(c)]; }

bool can_start_number(char c) {
  return is_digit(c) || c == '-' || c == '.' || c == 'i' || c == 'I' ||
         c == 'n' || c == 'N';
}

class Lexer {
 public:
  Lexer(std::string_view text, std::string_view source)
      : text_(text), source_(source) {}

  Token next() {
    skip_whitespace_and_comments();
    Token token;
    token.line = line_;
    token.column = column();
    if (pos_ >= text_.size()) {
      token.kind = Token::Kind::kEnd;
      return token;
    }
    const char c = text_[pos_];
    switch (c) {
      case ';': return single(token, Token::Kind::kSemicolon);
      case '=': return single(token, Token::Kind::kEquals);
      case '[': return single(token, Token::Kind::kLBracket);
      case ']': return single(token, Token::Kind::kRBracket);
      case ',': return single(token, Token::Kind::kComma);
      case '"': {
        ++pos_;
        const std::size_t start = pos_;
        // The string ends at its line: no newline is stepped over here.
        while (pos_ < text_.size() && text_[pos_] != '"' &&
               text_[pos_] != '\n') {
          // \" and \\ escapes, so the writer can round-trip arbitrary
          // unit/desc strings; any other backslash is literal.
          if (text_[pos_] == '\\' && pos_ + 1 < text_.size() &&
              (text_[pos_ + 1] == '"' || text_[pos_ + 1] == '\\')) {
            ++pos_;
          }
          ++pos_;
        }
        if (pos_ >= text_.size() || text_[pos_] != '"') {
          throw ParseError(source_, token.line, token.column,
                           "unterminated string literal");
        }
        token.kind = Token::Kind::kString;
        token.text = text_.substr(start, pos_ - start);
        ++pos_;  // closing quote
        return token;
      }
      default: break;
    }
    if (is_word_char(c)) {
      // One maximal word of [A-Za-z0-9_.+-]; decide number vs identifier by
      // whether the whole word parses as a double. This keeps "1e-3" a
      // number while "2of3" (vote gates) and "timer-1" stay identifiers.
      // std::from_chars accepts only words that start with a digit, '-',
      // '.', or the first letter of inf/infinity/nan, so no other word is
      // handed to it.
      const std::size_t start = pos_;
      while (pos_ < text_.size() && is_word_char(text_[pos_])) ++pos_;
      token.text = text_.substr(start, pos_ - start);
      const std::string_view slice = token.text;
      if (can_start_number(slice.front())) {
        const auto [end, ec] = std::from_chars(
            slice.data(), slice.data() + slice.size(), token.number);
        if (ec == std::errc{} && end == slice.data() + slice.size()) {
          token.kind = Token::Kind::kNumber;
          return token;
        }
      }
      if (is_identifier_start(slice.front()) || is_digit(slice.front())) {
        token.kind = Token::Kind::kIdentifier;
        return token;
      }
      throw ParseError(source_, token.line, token.column,
                       concat("malformed token '", token.text, "'"));
    }
    throw ParseError(source_, line_, column(),
                     concat("unexpected character '", std::string(1, c), "'"));
  }

  /// Captures raw text up to (not including) the next ';' at the current
  /// position — called right after the '=' of "prob = <expression>", while
  /// no token has been lexed past it. Comments are blanked with spaces so
  /// the slice's character offsets still line up with the document.
  RawExpression capture_expression() {
    skip_whitespace_and_comments();
    RawExpression raw;
    raw.line = line_;
    raw.column = column();
    const std::size_t start = pos_;
    bool commented = false;
    while (pos_ < text_.size() && text_[pos_] != ';') {
      if (text_[pos_] == '#') {
        commented = true;
        skip_comment();
        continue;
      }
      advance();
    }
    raw.text = text_.substr(start, pos_ - start);
    if (commented) {
      raw.blanked = std::make_unique<std::string>(raw.text);
      std::string& blanked = *raw.blanked;
      bool in_comment = false;
      for (char& c : blanked) {
        if (c == '#') in_comment = true;
        if (c == '\n') in_comment = false;
        if (in_comment) c = ' ';
      }
      raw.text = blanked;
    }
    return raw;
  }

 private:
  /// The one-character token at pos_, of kind `kind`.
  Token single(Token& token, Token::Kind kind) {
    token.kind = kind;
    token.text = text_.substr(pos_, 1);
    ++pos_;
    return token;
  }

  /// 1-based column of pos_: characters since the line began.
  [[nodiscard]] std::size_t column() const noexcept {
    return pos_ - line_start_ + 1;
  }

  /// Steps over one character that may be a newline. Scans that cannot meet
  /// one (words, strings, comment bodies) step with ++pos_.
  void advance() {
    if (text_[pos_] == '\n') {
      ++line_;
      line_start_ = pos_ + 1;
    }
    ++pos_;
  }

  /// Skips a '#' comment up to, not including, its newline.
  void skip_comment() {
    while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
  }

  void skip_whitespace_and_comments() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (is_space(c)) {
        advance();
      } else if (c == '#') {
        skip_comment();
      } else {
        break;
      }
    }
  }

  std::string_view text_;
  std::string_view source_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::size_t line_start_ = 0;  // offset of the current line's first char
};

// ---------------------------------------------------- declaration capture

/// "2of3" -> (2, 3); anything else -> nullopt.
std::optional<std::pair<std::uint32_t, std::uint32_t>> parse_vote(
    std::string_view word) {
  const std::size_t of = word.find("of");
  if (of == std::string_view::npos || of == 0 || of + 2 >= word.size()) {
    return std::nullopt;
  }
  std::uint32_t k = 0;
  std::uint32_t n = 0;
  const auto head = word.substr(0, of);
  const auto tail = word.substr(of + 2);
  const auto r1 = std::from_chars(head.data(), head.data() + head.size(), k);
  const auto r2 = std::from_chars(tail.data(), tail.data() + tail.size(), n);
  if (r1.ec != std::errc{} || r1.ptr != head.data() + head.size() ||
      r2.ec != std::errc{} || r2.ptr != tail.data() + tail.size()) {
    return std::nullopt;
  }
  return std::pair{k, n};
}

// Declarations hold views into the document text, which outlives the parse.
// Every table is document-wide: a section's gates, leaves, operands and
// symbols are one contiguous range of each, because declarations always go
// to the section being read.

constexpr std::uint32_t kNone = NameIndex::kNone;

/// A name as one section uses it: the gate and the leaf declared under it,
/// either of which may be missing (a name declared as both resolves to the
/// gate when the tree is built).
struct Symbol {
  std::string_view name;
  std::uint32_t gate = kNone;  // into Declarations::gates
  std::uint32_t leaf = kNone;  // into Declarations::leaves
};

struct GateDecl {
  std::string_view name;
  fta::GateType type = fta::GateType::kOr;
  std::uint32_t k = 0;
  /// The operands: symbol ids in Declarations::operands[first_operand,
  /// first_operand + operand_count), in document order.
  std::uint32_t first_operand = 0;
  std::uint32_t operand_count = 0;
  std::size_t line = 0;
  std::size_t column = 0;
};

struct LeafDecl {
  std::string_view name;
  bool is_condition = false;
  RawExpression probability;
  std::size_t line = 0;
  std::size_t column = 0;
};

/// Half-open range of one document-wide table.
struct Range {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;

  [[nodiscard]] std::uint32_t size() const noexcept { return end - begin; }
};

/// One tree section's statement-level state: its ranges of the document's
/// gates, leaves and symbols, each in document order.
struct SectionDecl {
  std::string name = "fault-tree";
  bool explicit_stmt = false;  // introduced by a `tree` statement
  std::size_t line = 1;
  std::size_t column = 1;
  std::uint32_t toplevel = kNone;  // the top event's symbol
  std::size_t toplevel_line = 0;
  Range gates;
  Range leaves;
  Range symbols;

  [[nodiscard]] bool has_declarations() const noexcept {
    return toplevel != kNone || gates.size() != 0 || leaves.size() != 0;
  }
};

struct ParamRaw {
  ParameterDecl decl;
  std::size_t line = 0;
  std::size_t column = 0;
};

struct HazardRaw {
  HazardDecl decl;
  std::size_t line = 0;
  std::size_t column = 0;
};

/// Statement-level parse state gathered in the first pass.
struct Declarations {
  std::vector<ParamRaw> parameters;
  std::vector<SectionDecl> sections;
  std::vector<GateDecl> gates;
  std::vector<LeafDecl> leaves;
  std::vector<std::uint32_t> operands;  // symbol ids, gate by gate
  std::vector<Symbol> symbols;
  std::vector<HazardRaw> hazards;
  std::optional<SelectionDecl> solver;
  std::optional<SelectionDecl> engine;
  std::optional<std::string> formula;
};

class DocumentParser {
 public:
  DocumentParser(std::string_view text, std::string_view source)
      : lexer_(text, source), source_(source) {
    // Every gate or leaf statement ends in a ';', so their count bounds the
    // declarations and (in a valid document) the names: the tables and the
    // symbol index are sized once. No such statement is shorter than
    // "a or b;", which keeps a text of bare ';' from reserving more than a
    // document of that size could fill.
    constexpr std::size_t kShortestStatement = 7;
    const auto statements = std::min(
        static_cast<std::size_t>(std::count(text.begin(), text.end(), ';')),
        text.size() / kShortestStatement + 1);
    decls_.gates.reserve(statements);
    decls_.leaves.reserve(statements);
    decls_.symbols.reserve(statements);
    symbol_index_.reserve(statements);
    // Every node but the top is some gate's operand, so a tree has about
    // as many operands as statements: one reservation, rarely one more.
    decls_.operands.reserve(statements);
    consume();
  }

  Declarations parse() {
    begin_section();  // the implicit first section
    while (current_.kind != Token::Kind::kEnd) {
      parse_statement();
    }
    // An implicit section that never received a declaration is no tree at
    // all (e.g. a parameters-only document).
    auto& sections = decls_.sections;
    sections.erase(std::remove_if(sections.begin(), sections.end(),
                                  [](const SectionDecl& s) {
                                    return !s.explicit_stmt &&
                                           !s.has_declarations();
                                  }),
                   sections.end());
    return std::move(decls_);
  }

 private:
  [[noreturn]] void fail(std::size_t line, std::size_t column,
                         std::string message) const {
    throw ParseError(source_, line, column, message);
  }

  void consume() { current_ = lexer_.next(); }

  Token expect_kind(Token::Kind kind, const char* what) {
    if (current_.kind != kind) {
      fail(current_.line, current_.column,
           concat("expected ", what, ", got '", spelling(current_), "'"));
    }
    const Token token = current_;
    consume();
    return token;
  }
  Token expect_identifier(const char* what) {
    return expect_kind(Token::Kind::kIdentifier, what);
  }
  Token expect_number(const char* what) {
    return expect_kind(Token::Kind::kNumber, what);
  }
  Token expect_string(const char* what) {
    return expect_kind(Token::Kind::kString, what);
  }
  void expect_token(Token::Kind kind, const char* what) {
    (void)expect_kind(kind, what);
  }

  void expect_semicolon() {
    if (current_.kind != Token::Kind::kSemicolon) {
      fail(current_.line, current_.column,
           concat("expected ';' before '", spelling(current_), "'"));
    }
    consume();
  }

  SectionDecl& section() { return decls_.sections.back(); }

  void begin_section() {
    const auto here = [](const auto& table) {
      const auto at = static_cast<std::uint32_t>(table.size());
      return Range{at, at};
    };
    SectionDecl& next = decls_.sections.emplace_back();
    next.gates = here(decls_.gates);
    next.leaves = here(decls_.leaves);
    next.symbols = here(decls_.symbols);
  }

  /// The current section's symbol for `name`, made on first use. Symbols of
  /// earlier sections stay in the index but read as no name, so each
  /// section sees only its own.
  std::uint32_t intern(std::string_view name) {
    SectionDecl& current = section();
    const auto id = static_cast<std::uint32_t>(decls_.symbols.size());
    const std::uint32_t first = current.symbols.begin;
    const std::uint32_t symbol = symbol_index_.insert(
        name, id, [this, first](std::uint32_t other) -> std::string_view {
          return other < first ? std::string_view{}
                               : decls_.symbols[other].name;
        });
    if (symbol == id) {
      decls_.symbols.push_back(Symbol{name});
      current.symbols.end = id + 1;
    }
    return symbol;
  }

  void parse_statement() {
    const Token head = expect_identifier("a statement");
    if (head.text == "tree") {
      const Token name = expect_identifier("the tree name");
      expect_semicolon();
      if (section().has_declarations() || section().explicit_stmt) {
        begin_section();  // a new tree section begins
      }
      section().name = std::string(name.text);
      section().explicit_stmt = true;
      section().line = head.line;
      section().column = head.column;
      return;
    }
    if (head.text == "toplevel") {
      if (section().toplevel != kNone) {
        fail(head.line, head.column, "duplicate 'toplevel' declaration");
      }
      const Token top = expect_identifier("the toplevel node name");
      section().toplevel = intern(top.text);
      section().toplevel_line = top.line;
      expect_semicolon();
      return;
    }
    if (head.text == "param") {
      parse_param();
      return;
    }
    if (head.text == "hazard") {
      parse_hazard();
      return;
    }
    if (head.text == "solver" || head.text == "engine") {
      parse_selection(head);
      return;
    }
    if (head.text == "formula") {
      if (decls_.formula.has_value()) {
        fail(head.line, head.column, "duplicate 'formula' declaration");
      }
      const Token name = expect_identifier("a formula name");
      if (name.text != "rare_event" && name.text != "min_cut_upper_bound") {
        fail(name.line, name.column,
             concat("unknown formula '", name.text,
                    "' (expected rare_event or min_cut_upper_bound)"));
      }
      decls_.formula = std::string(name.text);
      expect_semicolon();
      return;
    }

    // "<name> <kind> ...": gate definition or leaf declaration.
    const Token kind = expect_identifier("a gate kind or 'prob'/'condition'");
    if (kind.text == "prob") {
      declare_leaf(head, /*is_condition=*/false);
      return;
    }
    if (kind.text == "condition") {
      const Token prob_kw = expect_identifier("'prob'");
      if (prob_kw.text != "prob") {
        fail(prob_kw.line, prob_kw.column,
             "expected 'prob' after 'condition'");
      }
      declare_leaf(head, /*is_condition=*/true);
      return;
    }

    GateDecl gate;
    gate.name = head.text;
    gate.line = head.line;
    gate.column = head.column;
    if (kind.text == "or") {
      gate.type = fta::GateType::kOr;
    } else if (kind.text == "and") {
      gate.type = fta::GateType::kAnd;
    } else if (kind.text == "xor") {
      gate.type = fta::GateType::kXor;
    } else if (kind.text == "inhibit") {
      gate.type = fta::GateType::kInhibit;
    } else if (const auto vote = parse_vote(kind.text)) {
      gate.type = fta::GateType::kKofN;
      gate.k = vote->first;
      if (vote->first < 1) {
        fail(kind.line, kind.column, "vote threshold must be >= 1");
      }
    } else {
      fail(kind.line, kind.column,
           concat("unknown gate kind '", kind.text, "'"));
    }
    std::vector<std::uint32_t>& operands = decls_.operands;
    gate.first_operand = static_cast<std::uint32_t>(operands.size());
    while (current_.kind == Token::Kind::kIdentifier) {
      operands.push_back(intern(current_.text));
      consume();
    }
    gate.operand_count =
        static_cast<std::uint32_t>(operands.size()) - gate.first_operand;
    expect_semicolon();
    if (gate.operand_count == 0) {
      fail(kind.line, kind.column,
           concat("gate '", head.text, "' has no children"));
    }
    if (gate.type == fta::GateType::kInhibit && gate.operand_count != 2) {
      fail(kind.line, kind.column,
           concat("inhibit gate '", head.text,
                  "' needs exactly two operands (cause, condition)"));
    }
    if (gate.type == fta::GateType::kKofN && gate.k > gate.operand_count) {
      fail(kind.line, kind.column,
           concat("vote gate '", head.text,
                  "' has fewer children than its threshold"));
    }
    Symbol& symbol = decls_.symbols[intern(head.text)];
    if (symbol.gate != kNone) {
      fail(head.line, head.column,
           concat("duplicate definition of gate '", head.text, "'"));
    }
    symbol.gate = static_cast<std::uint32_t>(decls_.gates.size());
    decls_.gates.push_back(gate);
    section().gates.end = symbol.gate + 1;
  }

  void declare_leaf(const Token& name, bool is_condition) {
    LeafDecl leaf;
    leaf.name = name.text;
    leaf.is_condition = is_condition;
    leaf.line = name.line;
    leaf.column = name.column;
    if (current_.kind != Token::Kind::kEquals) {
      fail(current_.line, current_.column, "expected '=' after 'prob'");
    }
    // The expression is captured raw (to the terminating ';') and parsed in
    // the semantic pass, once every `param` of the document is known.
    leaf.probability = lexer_.capture_expression();
    consume();
    expect_semicolon();
    Symbol& symbol = decls_.symbols[intern(name.text)];
    if (symbol.leaf != kNone) {
      fail(name.line, name.column,
           concat("duplicate declaration of leaf '", name.text, "'"));
    }
    symbol.leaf = static_cast<std::uint32_t>(decls_.leaves.size());
    decls_.leaves.push_back(std::move(leaf));
    section().leaves.end = symbol.leaf + 1;
  }

  void parse_param() {
    ParamRaw param;
    const Token name = expect_identifier("the parameter name");
    param.decl.name = std::string(name.text);
    param.line = name.line;
    param.column = name.column;
    const Token in = expect_identifier("'in' after the parameter name");
    if (in.text != "in") {
      fail(in.line, in.column, "expected 'in' after the parameter name");
    }
    expect_token(Token::Kind::kLBracket, "'[' before the parameter domain");
    const Token lower = expect_number("the lower bound");
    expect_token(Token::Kind::kComma, "','");
    const Token upper = expect_number("the upper bound");
    expect_token(Token::Kind::kRBracket, "']' after the parameter domain");
    param.decl.lower = lower.number;
    param.decl.upper = upper.number;
    if (!std::isfinite(param.decl.lower) || !std::isfinite(param.decl.upper) ||
        param.decl.lower > param.decl.upper) {
      fail(lower.line, lower.column,
           concat("parameter '", param.decl.name,
                  "' needs a finite domain with lower <= upper"));
    }
    while (current_.kind == Token::Kind::kIdentifier) {
      const Token clause = current_;
      consume();
      if (clause.text == "unit") {
        param.decl.unit = unescape(expect_string("a quoted unit").text);
      } else if (clause.text == "desc") {
        param.decl.description =
            unescape(expect_string("a quoted description").text);
      } else {
        fail(clause.line, clause.column,
             concat("unknown parameter clause '", clause.text,
                    "' (expected unit or desc)"));
      }
    }
    expect_semicolon();
    for (const ParamRaw& existing : decls_.parameters) {
      if (existing.decl.name == param.decl.name) {
        fail(param.line, param.column,
             concat("duplicate declaration of parameter '", param.decl.name, "'"));
      }
    }
    decls_.parameters.push_back(std::move(param));
  }

  void parse_hazard() {
    HazardRaw hazard;
    const Token tree = expect_identifier("the hazard's tree name");
    hazard.decl.tree = std::string(tree.text);
    hazard.line = tree.line;
    hazard.column = tree.column;
    const Token cost = expect_identifier("'cost' after the tree name");
    if (cost.text != "cost") {
      fail(cost.line, cost.column, "expected 'cost' after the tree name");
    }
    if (current_.kind != Token::Kind::kEquals) {
      fail(current_.line, current_.column, "expected '=' after 'cost'");
    }
    consume();
    const Token value = expect_number("the hazard cost");
    if (!std::isfinite(value.number) || value.number < 0.0) {
      fail(value.line, value.column,
           concat("hazard cost must be a finite non-negative number, got ",
                  value.text));
    }
    hazard.decl.cost = value.number;
    expect_semicolon();
    for (const HazardRaw& existing : decls_.hazards) {
      if (existing.decl.tree == hazard.decl.tree) {
        fail(hazard.line, hazard.column,
             concat("duplicate hazard for tree '", hazard.decl.tree, "'"));
      }
    }
    decls_.hazards.push_back(std::move(hazard));
  }

  void parse_selection(const Token& head) {
    auto& slot = head.text == "solver" ? decls_.solver : decls_.engine;
    if (slot.has_value()) {
      fail(head.line, head.column,
           concat("duplicate '", head.text, "' declaration"));
    }
    SelectionDecl selection;
    selection.name = std::string(expect_identifier("a registry name").text);
    while (current_.kind == Token::Kind::kIdentifier) {
      const Token key = current_;
      consume();
      if (current_.kind != Token::Kind::kEquals) {
        fail(current_.line, current_.column,
             concat("expected '=' after option '", key.text, "'"));
      }
      consume();
      OptionValue value;
      if (current_.kind == Token::Kind::kNumber) {
        value = OptionValue::of(current_.number);
      } else if (current_.kind == Token::Kind::kIdentifier) {
        value = OptionValue::of(std::string(current_.text));
      } else if (current_.kind == Token::Kind::kString) {
        value = OptionValue::of(unescape(current_.text), /*quoted=*/true);
      } else {
        fail(current_.line, current_.column,
             concat("expected a value for option '", key.text, "', got '",
                    current_.text, "'"));
      }
      consume();
      if (selection.find_option(key.text) != nullptr) {
        fail(key.line, key.column,
             concat("duplicate option '", key.text, "'"));
      }
      selection.options.emplace_back(std::string(key.text), std::move(value));
    }
    expect_semicolon();
    slot = std::move(selection);
  }

  Lexer lexer_;
  std::string_view source_;
  Token current_;
  Declarations decls_;
  NameIndex symbol_index_;  // name -> symbol of the current section
};

// ------------------------------------------------------------ tree builder

/// A section's built tree, plus the declaration behind each leaf: the
/// section-relative index of every basic event's and condition's LeafDecl,
/// in ordinal order.
struct BuiltTree {
  fta::FaultTree tree;
  std::vector<std::uint32_t> basic_decl;
  std::vector<std::uint32_t> condition_decl;
};

/// Second pass: build the FaultTree bottom-up from one section's
/// declarations, detecting cycles and undefined references. Operands are
/// symbol ids already, so building resolves no name.
class TreeBuilder {
 public:
  TreeBuilder(const Declarations& decls, const SectionDecl& section,
              std::string_view source)
      : decls_(decls),
        section_(section),
        source_(source),
        built_{fta::FaultTree(section.name), {}, {}},
        node_of_(section.symbols.size(), kUnbuilt) {
    // Every declaration becomes at most one node and every gate operand at
    // most one child reference, so the counts bound the tree: its tables
    // and the leaf-declaration lists are sized once.
    std::size_t operands = 0;
    for (std::uint32_t g = section.gates.begin; g < section.gates.end; ++g) {
      operands += decls.gates[g].operand_count;
    }
    std::size_t conditions = 0;
    for (std::uint32_t l = section.leaves.begin; l < section.leaves.end; ++l) {
      conditions += decls.leaves[l].is_condition ? 1 : 0;
    }
    const std::size_t basic_events = section.leaves.size() - conditions;
    built_.tree.reserve(basic_events, conditions, section.gates.size(),
                        operands);
    built_.basic_decl.reserve(basic_events);
    built_.condition_decl.reserve(conditions);
  }

  BuiltTree build() {
    const fta::NodeId top =
        build_node(section_.toplevel, section_.toplevel_line);
    if (built_.tree.kind(top) == fta::NodeKind::kCondition) {
      throw ParseError(source_, section_.toplevel_line, 1,
                       concat("toplevel '",
                              decls_.symbols[section_.toplevel].name,
                              "' is a condition leaf; the top event must be a "
                              "gate or a basic event"));
    }
    built_.tree.set_top(top);
    // A leaf is reachable when its name was built, as the leaf or as the
    // gate of the same name (the gate wins). Of several unreachable
    // leaves, the first by name is reported.
    const LeafDecl* unreachable = nullptr;
    for (std::uint32_t s = section_.symbols.begin; s < section_.symbols.end;
         ++s) {
      const Symbol& symbol = decls_.symbols[s];
      if (symbol.leaf == kNone || node_of(s) != kUnbuilt) continue;
      const LeafDecl& leaf = decls_.leaves[symbol.leaf];
      if (unreachable == nullptr || leaf.name < unreachable->name) {
        unreachable = &leaf;
      }
    }
    if (unreachable != nullptr) {
      throw ParseError(source_, unreachable->line, unreachable->column,
                       concat("leaf '", unreachable->name,
                              "' is declared but not reachable from "
                              "toplevel"));
    }
    return std::move(built_);
  }

 private:
  /// Gate-nesting cap: build_node recurses once per gate level, so a
  /// linear 10k-deep chain of gates would otherwise overflow the stack
  /// before the cycle check can help. Real trees nest a few dozen levels;
  /// anything past this bound is an adversarial or corrupted document.
  static constexpr std::size_t kMaxGateDepth = 512;

  /// node_of_ states besides a built NodeId.
  static constexpr fta::NodeId kUnbuilt = UINT32_MAX;
  static constexpr fta::NodeId kInProgress = UINT32_MAX - 1;

  /// The node built for a symbol of the section, by document symbol id.
  fta::NodeId& node_of(std::uint32_t symbol) {
    return node_of_[symbol - section_.symbols.begin];
  }

  fta::NodeId build_node(std::uint32_t symbol_id, std::size_t ref_line) {
    fta::FaultTree& tree = built_.tree;
    const Symbol& symbol = decls_.symbols[symbol_id];
    fta::NodeId& node = node_of(symbol_id);  // node_of_ never grows
    if (node == kInProgress) {
      throw ParseError(source_, ref_line, 1,
                       concat("cycle through node '", symbol.name, "'"));
    }
    if (node != kUnbuilt) return node;
    if (symbol.gate != kNone) {
      const GateDecl& gate = decls_.gates[symbol.gate];
      if (depth_ >= kMaxGateDepth) {
        throw ParseError(source_, gate.line, gate.column,
                         concat("gate nesting exceeds the supported depth (",
                                std::to_string(kMaxGateDepth),
                                ") at gate '", symbol.name, "'"));
      }
      node = kInProgress;
      ++depth_;
      // The children of every gate on the build path sit on one stack,
      // innermost gate last.
      const std::size_t base = children_.size();
      for (std::uint32_t i = 0; i < gate.operand_count; ++i) {
        const fta::NodeId child =
            build_node(decls_.operands[gate.first_operand + i], gate.line);
        children_.push_back(child);
      }
      --depth_;
      node = add_gate(
          gate, std::span<const fta::NodeId>(children_).subspan(base));
      children_.resize(base);
      return node;
    }
    if (symbol.leaf != kNone) {
      const std::uint32_t leaf = symbol.leaf - section_.leaves.begin;
      if (decls_.leaves[symbol.leaf].is_condition) {
        node = tree.add_condition(std::string(symbol.name));
        built_.condition_decl.push_back(leaf);
      } else {
        node = tree.add_basic_event(std::string(symbol.name));
        built_.basic_decl.push_back(leaf);
      }
      return node;
    }
    throw ParseError(source_, ref_line, 1,
                     concat("undefined node '", symbol.name, "'"));
  }

  fta::NodeId add_gate(const GateDecl& gate,
                       std::span<const fta::NodeId> children) {
    fta::FaultTree& tree = built_.tree;
    if (gate.type == fta::GateType::kInhibit &&
        tree.kind(children[1]) != fta::NodeKind::kCondition) {
      throw ParseError(source_, gate.line, gate.column,
                       concat("second operand of inhibit gate '", gate.name,
                              "' must be a condition leaf"));
    }
    return tree.add_gate(std::string(gate.name), gate.type, gate.k, children);
  }

  const Declarations& decls_;
  const SectionDecl& section_;
  std::string_view source_;
  BuiltTree built_;
  std::vector<fta::NodeId> node_of_;   // by section-relative symbol
  std::vector<fta::NodeId> children_;  // operand stack of build_node
  std::size_t depth_ = 0;              // gates under construction
};

// --------------------------------------------------------- semantic pass

/// Maps an expr::ParseError offset (into the captured slice, comments
/// blanked) back onto document line:column.
std::pair<std::size_t, std::size_t> position_at_offset(
    const RawExpression& raw, std::size_t offset) {
  std::size_t line = raw.line;
  std::size_t column = raw.column;
  const std::size_t end = std::min(offset, raw.text.size());
  for (std::size_t i = 0; i < end; ++i) {
    if (raw.text[i] == '\n') {
      ++line;
      column = 1;
    } else {
      ++column;
    }
  }
  return {line, column};
}

expr::Expr parse_leaf_expression(const RawExpression& raw,
                                 const expr::SymbolTable& symbols,
                                 std::string_view source) {
  const std::string_view trimmed = trim(raw.text);
  if (trimmed.empty()) {
    throw ParseError(source, raw.line, raw.column,
                     "expected a probability expression");
  }
  try {
    return expr::parse(raw.text, symbols);
  } catch (const expr::ParseError& error) {
    const auto [line, column] = position_at_offset(raw, error.offset());
    throw ParseError(source, line, column, error.what());
  }
}

/// Leaf-expression parsing plus the constant [0, 1] range check.
expr::Expr checked_leaf_expression(const LeafDecl& leaf,
                                   const expr::SymbolTable& symbols,
                                   std::string_view source) {
  expr::Expr probability =
      parse_leaf_expression(leaf.probability, symbols, source);
  if (probability.is_constant()) {
    const double p = probability.evaluate({});
    if (!(p >= 0.0 && p <= 1.0)) {
      throw ParseError(
          source, leaf.probability.line, leaf.probability.column,
          concat("probability must lie in [0, 1], got ",
                 trim(leaf.probability.text)));
    }
  }
  return probability;
}

/// Every leaf expression of the section, checked, then the ordinal-ordered
/// LeafProbability list of its built tree.
std::vector<LeafProbability> resolve_leaves(const Declarations& decls,
                                            const SectionDecl& section,
                                            BuiltTree& built,
                                            const expr::SymbolTable& symbols,
                                            std::string_view source) {
  const std::span<const LeafDecl> section_leaves =
      std::span<const LeafDecl>(decls.leaves)
          .subspan(section.leaves.begin, section.leaves.size());
  std::vector<expr::Expr> parsed;
  parsed.reserve(section_leaves.size());
  try {
    for (const LeafDecl& leaf : section_leaves) {
      parsed.push_back(checked_leaf_expression(leaf, symbols, source));
    }
  } catch (...) {
    // Of several faulty leaves, the first by name is reported: re-check in
    // name order, which throws at that leaf.
    std::vector<const LeafDecl*> by_name;
    by_name.reserve(section_leaves.size());
    for (const LeafDecl& leaf : section_leaves) by_name.push_back(&leaf);
    std::sort(by_name.begin(), by_name.end(),
              [](const LeafDecl* a, const LeafDecl* b) {
                return a->name < b->name;
              });
    for (const LeafDecl* leaf : by_name) {
      (void)checked_leaf_expression(*leaf, symbols, source);
    }
    throw;
  }
  std::vector<LeafProbability> leaves;
  leaves.reserve(built.basic_decl.size() + built.condition_decl.size());
  const fta::FaultTree& tree = built.tree;
  for (std::size_t i = 0; i < built.basic_decl.size(); ++i) {
    leaves.push_back(LeafProbability{tree.node_name(tree.basic_events()[i]),
                                     false,
                                     std::move(parsed[built.basic_decl[i]])});
  }
  for (std::size_t i = 0; i < built.condition_decl.size(); ++i) {
    leaves.push_back(
        LeafProbability{tree.node_name(tree.conditions()[i]), true,
                        std::move(parsed[built.condition_decl[i]])});
  }
  return leaves;
}

StudyDocument build_document(Declarations decls, std::string_view source) {
  StudyDocument doc;
  doc.source = std::string(source);

  expr::SymbolTable symbols;
  for (ParamRaw& param : decls.parameters) {
    symbols.add(param.decl.name);
    doc.parameters.push_back(std::move(param.decl));
  }

  for (const SectionDecl& section : decls.sections) {
    if (section.toplevel == kNone) {
      // An explicit `tree` statement anchors the error; a v1 document
      // without one reports at the document head, as the v1 parser did.
      if (section.explicit_stmt) {
        throw ParseError(source, section.line, section.column,
                         concat("missing 'toplevel' declaration for tree '",
                                section.name, "'"));
      }
      throw ParseError(source, 1, 1, "missing 'toplevel' declaration");
    }
    for (const TreeModel& existing : doc.trees) {
      if (existing.tree.name() == section.name) {
        throw ParseError(source, section.line, section.column,
                         concat("duplicate tree '", section.name, "'"));
      }
    }
    BuiltTree built = TreeBuilder(decls, section, source).build();
    std::vector<LeafProbability> leaves =
        resolve_leaves(decls, section, built, symbols, source);
    doc.trees.push_back(TreeModel{std::move(built.tree), std::move(leaves)});
  }

  for (HazardRaw& hazard : decls.hazards) {
    if (doc.find_tree(hazard.decl.tree) == nullptr) {
      throw ParseError(source, hazard.line, hazard.column,
                       concat("hazard names unknown tree '", hazard.decl.tree,
                              "'"));
    }
    doc.hazards.push_back(std::move(hazard.decl));
  }

  doc.solver = std::move(decls.solver);
  doc.engine = std::move(decls.engine);
  doc.formula = std::move(decls.formula);
  return doc;
}

StudyDocument parse_document(std::string_view text,
                             std::string_view source_name) {
  DocumentParser parser(text, source_name);
  return build_document(parser.parse(), source_name);
}

}  // namespace

// ------------------------------------------------------------- public API

const LeafProbability* TreeModel::find_leaf(
    std::string_view name) const noexcept {
  for (const LeafProbability& leaf : leaves) {
    if (leaf.name == name) return &leaf;
  }
  return nullptr;
}

fta::QuantificationInput TreeModel::constant_input() const {
  fta::QuantificationInput input =
      fta::QuantificationInput::for_tree(tree, 0.0);
  std::vector<double>& basic = input.basic_event_probability;
  SAFEOPT_EXPECTS(leaves.size() ==
                  basic.size() + input.condition_probability.size());
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    const bool is_condition = i >= basic.size();
    SAFEOPT_EXPECTS(leaves[i].is_condition == is_condition);
    const double p = leaves[i].probability.evaluate({});
    SAFEOPT_EXPECTS(p >= 0.0 && p <= 1.0);
    (is_condition ? input.condition_probability[i - basic.size()]
                  : basic[i]) = p;
  }
  return input;
}

const OptionValue* SelectionDecl::find_option(
    std::string_view key) const noexcept {
  for (const auto& [name, value] : options) {
    if (name == key) return &value;
  }
  return nullptr;
}

const TreeModel* StudyDocument::find_tree(
    std::string_view name) const noexcept {
  for (const TreeModel& model : trees) {
    if (model.tree.name() == name) return &model;
  }
  return nullptr;
}

const ParameterDecl* StudyDocument::find_parameter(
    std::string_view name) const noexcept {
  for (const ParameterDecl& parameter : parameters) {
    if (parameter.name == name) return &parameter;
  }
  return nullptr;
}

std::vector<std::string> StudyDocument::parameter_names() const {
  std::vector<std::string> names;
  names.reserve(parameters.size());
  for (const ParameterDecl& parameter : parameters) {
    names.push_back(parameter.name);
  }
  return names;
}

StudyDocument parse_study(std::string_view text,
                          std::string_view source_name) {
  return parse_document(text, source_name);
}

StudyDocument load_study(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    throw Error(ErrorCategory::kInvalidInput,
                concat("cannot read model file '", path, "'"));
  }
  std::ostringstream contents;
  contents << file.rdbuf();
  return parse_document(contents.str(), path);
}

ParsedFaultTree parse_fault_tree(std::string_view text) {
  StudyDocument doc = parse_document(text, {});
  if (doc.trees.empty()) {
    throw ParseError(1, 1, "missing 'toplevel' declaration");
  }
  if (doc.trees.size() > 1) {
    throw ParseError(1, 1,
                     "document declares multiple trees; load it with "
                     "parse_study");
  }
  TreeModel& model = doc.trees.front();
  for (const LeafProbability& leaf : model.leaves) {
    if (!leaf.probability.is_constant()) {
      throw ParseError(1, 1,
                       concat("leaf '", leaf.name,
                              "' has a parameterized probability; load the "
                              "document with parse_study"));
    }
  }
  fta::QuantificationInput input = model.constant_input();
  return ParsedFaultTree{std::move(model.tree), std::move(input)};
}

namespace {

/// Inverse of the lexer's \" / \\ escapes.
std::string quote_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string write_study(const StudyDocument& doc) {
  std::string out;
  for (const ParameterDecl& parameter : doc.parameters) {
    out += concat("param ", parameter.name, " in [",
                  format_double(parameter.lower), ", ",
                  format_double(parameter.upper), "]");
    if (!parameter.unit.empty()) {
      out += concat(" unit ", quote_string(parameter.unit));
    }
    if (!parameter.description.empty()) {
      out += concat(" desc ", quote_string(parameter.description));
    }
    out += ";\n";
  }
  if (!doc.parameters.empty()) out += "\n";

  for (const TreeModel& model : doc.trees) {
    write_structure(model.tree, out);
    for (const LeafProbability& leaf : model.leaves) {
      out += concat(leaf.name, leaf.is_condition ? " condition prob = "
                                                 : " prob = ",
                    leaf.probability.to_string(), ";\n");
    }
    out += "\n";
  }

  for (const HazardDecl& hazard : doc.hazards) {
    out += concat("hazard ", hazard.tree, " cost = ",
                  format_double(hazard.cost), ";\n");
  }
  const auto write_selection = [&out](const char* keyword,
                                      const SelectionDecl& selection) {
    out += concat(keyword, " ", selection.name);
    for (const auto& [key, value] : selection.options) {
      out += concat(" ", key, " = ");
      if (value.kind == OptionValue::Kind::kNumber) {
        out += format_double(value.number);
      } else if (value.quoted) {
        out += quote_string(value.text);
      } else {
        out += value.text;
      }
    }
    out += ";\n";
  };
  if (doc.solver.has_value()) write_selection("solver", *doc.solver);
  if (doc.engine.has_value()) write_selection("engine", *doc.engine);
  if (doc.formula.has_value()) {
    out += concat("formula ", *doc.formula, ";\n");
  }
  return out;
}

}  // namespace safeopt::ftio
