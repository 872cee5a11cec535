// The lexer's word rule, pinned word by word: a maximal run of
// [A-Za-z0-9_.+-] is a number when std::from_chars reads all of it, else an
// identifier when it starts with a letter, '_' or a digit, else a
// malformed token. Each word sits in an option-value slot, where a number
// and an identifier are both legal, so the parsed value shows the token
// kind. The expected column was captured with the lexer that called
// from_chars on every word and classified characters through <cctype>.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "safeopt/ftio/parser.h"
#include "safeopt/ftio/study_document.h"
#include "safeopt/support/strings.h"

namespace safeopt::ftio {
namespace {

/// "number <%a>", "identifier <text>", or the parse error's message.
std::string lex_word(const std::string& word) {
  const std::string document =
      concat("tree T;\ntoplevel A;\nA prob = 0.5;\nsolver nelder_mead x = ",
             word, ";\n");
  try {
    const StudyDocument doc = parse_study(document);
    const OptionValue& value = doc.solver->options.front().second;
    if (value.kind == OptionValue::Kind::kText) {
      return concat("identifier ", value.text);
    }
    char bits[64];
    std::snprintf(bits, sizeof bits, "%a", value.number);
    return concat("number ", bits);
  } catch (const ParseError& error) {
    return error.what();
  }
}

TEST(LexerWordRuleTest, EveryWordKeepsItsKindOrDiagnostic) {
  struct Row {
    const char* word;
    const char* outcome;
  };
  for (const Row& row : {
           Row{"inf", "number inf"},
           Row{"nan", "number nan"},
           Row{"NaN", "number nan"},
           Row{"-1e-3", "number -0x1.0624dd2f1a9fcp-10"},
           Row{".5", "number 0x1p-1"},
           Row{"+5", "4:24: malformed token '+5'"},
           Row{"0x10", "identifier 0x10"},
           Row{"2of3", "identifier 2of3"},
           Row{"timer-1", "identifier timer-1"},
           Row{"in", "identifier in"},
           Row{"node", "identifier node"},
           Row{"i", "identifier i"},
           Row{"n", "identifier n"},
           Row{"Infinity", "number inf"},
           Row{"-inf", "number -inf"},
           Row{"-", "4:24: malformed token '-'"},
           Row{"-x", "4:24: malformed token '-x'"},
           Row{"1e", "identifier 1e"},
           Row{"1.5.2", "identifier 1.5.2"},
           Row{"_a", "identifier _a"},
           Row{"Node", "identifier Node"},
       }) {
    EXPECT_EQ(lex_word(row.word), row.outcome) << row.word;
  }
}

}  // namespace
}  // namespace safeopt::ftio
