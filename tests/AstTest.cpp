//===- tests/AstTest.cpp - Mini lexer/parser/encoder unit tests ------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ast/AstEncoder.h"
#include "ast/Lexer.h"
#include "ast/Parser.h"
#include "core/StringSerializer.h"

#include <gtest/gtest.h>

using namespace kast;

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

TEST(LexerTest, KeywordsAndIdentifiers) {
  auto Tokens = lexProgram("fn foo let iffy if");
  ASSERT_TRUE(Tokens.hasValue());
  ASSERT_EQ(Tokens->size(), 6u); // 5 tokens + EOF.
  EXPECT_EQ((*Tokens)[0].Kind, TokKind::KwFn);
  EXPECT_EQ((*Tokens)[1].Kind, TokKind::Identifier);
  EXPECT_EQ((*Tokens)[2].Kind, TokKind::KwLet);
  EXPECT_EQ((*Tokens)[3].Kind, TokKind::Identifier); // Not 'if'!
  EXPECT_EQ((*Tokens)[4].Kind, TokKind::KwIf);
  EXPECT_EQ((*Tokens)[5].Kind, TokKind::EndOfFile);
}

TEST(LexerTest, TwoCharOperators) {
  auto Tokens = lexProgram("<= >= == != && || < > = !");
  ASSERT_TRUE(Tokens.hasValue());
  std::vector<std::string> Spellings;
  for (const LexToken &T : *Tokens)
    if (T.Kind == TokKind::Operator)
      Spellings.push_back(T.Text);
  EXPECT_EQ(Spellings,
            (std::vector<std::string>{"<=", ">=", "==", "!=", "&&", "||",
                                      "<", ">", "=", "!"}));
}

TEST(LexerTest, NumbersAndPunctuation) {
  auto Tokens = lexProgram("f(1, 23);");
  ASSERT_TRUE(Tokens.hasValue());
  ASSERT_EQ(Tokens->size(), 8u);
  EXPECT_EQ((*Tokens)[2].Text, "1");
  EXPECT_EQ((*Tokens)[3].Kind, TokKind::Comma);
  EXPECT_EQ((*Tokens)[4].Text, "23");
  EXPECT_EQ((*Tokens)[6].Kind, TokKind::Semicolon);
}

TEST(LexerTest, CommentsSkipped) {
  auto Tokens = lexProgram("a // rest ignored\nb");
  ASSERT_TRUE(Tokens.hasValue());
  ASSERT_EQ(Tokens->size(), 3u);
  EXPECT_EQ((*Tokens)[1].Text, "b");
  EXPECT_EQ((*Tokens)[1].Line, 2u);
}

TEST(LexerTest, PositionsTracked) {
  auto Tokens = lexProgram("ab\n  cd");
  ASSERT_TRUE(Tokens.hasValue());
  EXPECT_EQ((*Tokens)[0].Line, 1u);
  EXPECT_EQ((*Tokens)[0].Column, 1u);
  EXPECT_EQ((*Tokens)[1].Line, 2u);
  EXPECT_EQ((*Tokens)[1].Column, 3u);
}

TEST(LexerTest, RejectsStrayCharacters) {
  EXPECT_FALSE(lexProgram("a $ b").hasValue());
  EXPECT_FALSE(lexProgram("a & b").hasValue()); // Lone ampersand.
  Expected<std::vector<LexToken>> E = lexProgram("x\n  @");
  ASSERT_FALSE(E.hasValue());
  EXPECT_NE(E.message().find("2:3"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

TEST(ParserTest, MinimalFunction) {
  Expected<Ast> Tree = parseProgram("fn main() { }");
  ASSERT_TRUE(Tree.hasValue()) << Tree.message();
  EXPECT_EQ(Tree->dump(), "module\n"
                          "  function main\n"
                          "    block\n");
}

TEST(ParserTest, ParamsAndStatements) {
  Expected<Ast> Tree = parseProgram("fn f(a, b) { let c = a + b; return c; }");
  ASSERT_TRUE(Tree.hasValue()) << Tree.message();
  EXPECT_EQ(Tree->dump(), "module\n"
                          "  function f\n"
                          "    param a\n"
                          "    param b\n"
                          "    block\n"
                          "      let c\n"
                          "        binary +\n"
                          "          var a\n"
                          "          var b\n"
                          "      return\n"
                          "        var c\n");
}

TEST(ParserTest, PrecedenceAndAssociativity) {
  Expected<Ast> Tree = parseProgram("fn f() { return 1 + 2 * 3 - 4; }");
  ASSERT_TRUE(Tree.hasValue()) << Tree.message();
  // (1 + (2*3)) - 4: '-' at top (left associative), '*' below '+'.
  EXPECT_EQ(Tree->dump(), "module\n"
                          "  function f\n"
                          "    block\n"
                          "      return\n"
                          "        binary -\n"
                          "          binary +\n"
                          "            number 1\n"
                          "            binary *\n"
                          "              number 2\n"
                          "              number 3\n"
                          "          number 4\n");
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  Expected<Ast> Tree = parseProgram("fn f() { return (1 + 2) * 3; }");
  ASSERT_TRUE(Tree.hasValue()) << Tree.message();
  EXPECT_NE(Tree->dump().find("binary *\n"
                              "          binary +\n"),
            std::string::npos);
}

TEST(ParserTest, ComparisonAndLogicalPrecedence) {
  Expected<Ast> Tree =
      parseProgram("fn f(a, b) { return a < 3 && b >= 2 || !a; }");
  ASSERT_TRUE(Tree.hasValue()) << Tree.message();
  // || at top, && on its left, unary ! on its right.
  std::string Dump = Tree->dump();
  size_t Or = Dump.find("binary ||");
  size_t And = Dump.find("binary &&");
  size_t Not = Dump.find("unary !");
  EXPECT_NE(Or, std::string::npos);
  EXPECT_NE(And, std::string::npos);
  EXPECT_NE(Not, std::string::npos);
  EXPECT_LT(Or, And);
  EXPECT_LT(And, Not);
}

TEST(ParserTest, IfElseChains) {
  Expected<Ast> Tree = parseProgram(
      "fn f(x) { if (x < 0) { return 0; } else if (x == 0) { return 1; } "
      "else { return 2; } }");
  ASSERT_TRUE(Tree.hasValue()) << Tree.message();
  // Outer if has 3 children: cond, then-block, nested if; nested if
  // has cond, then-block, else-block.
  const AstNode &Module = Tree->node(Tree->root());
  const AstNode &Fn = Tree->node(Module.Children[0]);
  const AstNode &Block = Tree->node(Fn.Children.back());
  const AstNode &OuterIf = Tree->node(Block.Children[0]);
  ASSERT_EQ(OuterIf.Kind, AstKind::If);
  ASSERT_EQ(OuterIf.Children.size(), 3u);
  const AstNode &InnerIf = Tree->node(OuterIf.Children[2]);
  EXPECT_EQ(InnerIf.Kind, AstKind::If);
  EXPECT_EQ(InnerIf.Children.size(), 3u);
}

TEST(ParserTest, WhileAndAssignment) {
  Expected<Ast> Tree =
      parseProgram("fn f(n) { let i = 0; while (i < n) { i = i + 1; } }");
  ASSERT_TRUE(Tree.hasValue()) << Tree.message();
  std::string Dump = Tree->dump();
  EXPECT_NE(Dump.find("while\n"), std::string::npos);
  EXPECT_NE(Dump.find("assign i\n"), std::string::npos);
}

TEST(ParserTest, CallsWithArguments) {
  Expected<Ast> Tree = parseProgram("fn f() { g(1, h(2), 3); }");
  ASSERT_TRUE(Tree.hasValue()) << Tree.message();
  EXPECT_EQ(Tree->dump(), "module\n"
                          "  function f\n"
                          "    block\n"
                          "      exprstmt\n"
                          "        call g\n"
                          "          number 1\n"
                          "          call h\n"
                          "            number 2\n"
                          "          number 3\n");
}

TEST(ParserTest, MultipleFunctions) {
  Expected<Ast> Tree = parseProgram("fn a() { } fn b() { }");
  ASSERT_TRUE(Tree.hasValue()) << Tree.message();
  EXPECT_EQ(Tree->node(Tree->root()).Children.size(), 2u);
}

TEST(ParserTest, ErrorsCarryPositions) {
  Expected<Ast> Tree = parseProgram("fn f() { let = 3; }");
  ASSERT_FALSE(Tree.hasValue());
  EXPECT_NE(Tree.message().find("variable name"), std::string::npos);
  EXPECT_NE(Tree.message().find("1:"), std::string::npos);
}

TEST(ParserTest, RejectsMalformedPrograms) {
  EXPECT_FALSE(parseProgram("fn f( { }").hasValue());
  EXPECT_FALSE(parseProgram("fn f() { return 1 + ; }").hasValue());
  EXPECT_FALSE(parseProgram("fn f() { while i < 3 { } }").hasValue());
  EXPECT_FALSE(parseProgram("f() { }").hasValue());
  EXPECT_FALSE(parseProgram("fn f() {").hasValue());
}

/// Parses \p Source expecting the nesting-depth error, with a
/// line:column position.
void expectTooDeep(const std::string &Source, const char *Shape) {
  Expected<Ast> Tree = parseProgram(Source);
  ASSERT_FALSE(Tree.hasValue()) << Shape;
  EXPECT_NE(Tree.message().find("nesting too deep at 1:"), std::string::npos)
      << Shape << ": " << Tree.message();
}

std::string repeat(const std::string &S, size_t Times) {
  std::string Out;
  Out.reserve(S.size() * Times);
  for (size_t I = 0; I < Times; ++I)
    Out += S;
  return Out;
}

// Each shape nests once per repetition, so 100,000 repetitions would
// recurse 100,000 deep in the parser or, for the else-if chain, in the
// encoder; the parser must refuse them with a positioned error.
TEST(ParserTest, DeepParenthesesAreRejected) {
  expectTooDeep("fn f() { return " + repeat("(", 100000) + "1" +
                    repeat(")", 100000) + "; }",
                "parentheses");
}

TEST(ParserTest, DeepBlocksAreRejected) {
  expectTooDeep("fn f() " + repeat("{", 100000) + repeat("}", 100000),
                "blocks");
}

TEST(ParserTest, DeepUnaryChainsAreRejected) {
  expectTooDeep("fn f() { return " + repeat("-", 100000) + "1; }", "unary");
}

TEST(ParserTest, LongElseIfChainsAreRejected) {
  expectTooDeep("fn f(x) { if (x) { } " + repeat("else if (x) { } ", 100000) +
                    "}",
                "else-if chain");
  // A left-associative operator chain nests the same way in the tree.
  expectTooDeep("fn f() { return 1" + repeat(" + 1", 100000) + "; }",
                "binary chain");
}

TEST(ParserTest, NestingBelowTheLimitParsesAndEncodes) {
  // 120 parenthesized binary links are 240 levels, inside the bound;
  // the encoder walks the resulting tree.
  Expected<Ast> Tree = parseProgram("fn f(x) { return " + repeat("(x + ", 120) +
                                    "1" + repeat(")", 120) + "; }");
  ASSERT_TRUE(Tree.hasValue()) << Tree.message();
  auto Table = TokenTable::create();
  EXPECT_GT(encodeAst(*Tree, Table).size(), 0u);
}

//===----------------------------------------------------------------------===//
// Encoder
//===----------------------------------------------------------------------===//

TEST(AstEncoderTest, LiteralsWithAndWithoutAbstraction) {
  Expected<Ast> Tree = parseProgram("fn f(x) { return x + 1; }");
  ASSERT_TRUE(Tree.hasValue());
  auto Table = TokenTable::create();

  AstEncodeOptions Concrete;
  Concrete.AbstractIdentifiers = false;
  Concrete.AbstractLiterals = false;
  WeightedString C = encodeAst(*Tree, Table, Concrete);
  EXPECT_EQ(formatWeightedString(C),
            "module:1 function[f]:1 param[x]:1 [LEVEL_UP]:1 block:1 "
            "return:1 binary[+]:1 var[x]:1 [LEVEL_UP]:1 number[1]:1");

  WeightedString A = encodeAst(*Tree, Table); // Abstracted (default).
  EXPECT_EQ(formatWeightedString(A),
            "module:1 function[]:1 param[]:1 [LEVEL_UP]:1 block:1 "
            "return:1 binary[+]:1 var[]:1 [LEVEL_UP]:1 number[]:1");
}

TEST(AstEncoderTest, SiblingRunsCollapse) {
  // Three copies of the same statement collapse to weight 3.
  Expected<Ast> Tree =
      parseProgram("fn f(a) { a = a + 1; a = a + 1; a = a + 1; }");
  ASSERT_TRUE(Tree.hasValue());
  auto Table = TokenTable::create();
  WeightedString S = encodeAst(*Tree, Table);
  EXPECT_EQ(formatWeightedString(S),
            "module:1 function[]:1 param[]:1 [LEVEL_UP]:1 block:1 "
            "assign[]:3 binary[+]:1 var[]:1 [LEVEL_UP]:1 number[]:1");
}

TEST(AstEncoderTest, AbstractionEnablesCollapse) {
  // Different variables, same shape: collapses only when abstracted.
  Expected<Ast> Tree = parseProgram("fn f(a, b) { a = a + 1; b = b + 1; }");
  ASSERT_TRUE(Tree.hasValue());
  auto Table = TokenTable::create();

  WeightedString Abstracted = encodeAst(*Tree, Table);
  AstEncodeOptions Concrete;
  Concrete.AbstractIdentifiers = false;
  WeightedString Kept = encodeAst(*Tree, Table, Concrete);
  EXPECT_LT(Abstracted.size(), Kept.size());
}

TEST(AstEncoderTest, CollapseCanBeDisabled) {
  Expected<Ast> Tree = parseProgram("fn f(a) { a = 1; a = 1; }");
  ASSERT_TRUE(Tree.hasValue());
  auto Table = TokenTable::create();
  AstEncodeOptions NoCollapse;
  NoCollapse.CollapseSiblingRuns = false;
  WeightedString S = encodeAst(*Tree, Table, NoCollapse);
  // Both assignments present individually.
  size_t Assigns = 0;
  for (size_t I = 0; I < S.size(); ++I)
    if (S.literal(I) == "assign[]")
      ++Assigns;
  EXPECT_EQ(Assigns, 2u);
}

TEST(AstEncoderTest, IdenticalFunctionsCollapseUnderAbstraction) {
  // Two empty functions are encoded-identical subtrees: the run
  // collapses into one occurrence of weight 2.
  Expected<Ast> Tree = parseProgram("fn f() { } fn g() { }");
  ASSERT_TRUE(Tree.hasValue());
  auto Table = TokenTable::create();
  WeightedString S = encodeAst(*Tree, Table);
  EXPECT_EQ(formatWeightedString(S), "module:1 function[]:2 block:1");
}

TEST(AstEncoderTest, LevelUpWeightsReflectAscents) {
  // Different bodies do not collapse; ascending from the first
  // function's return value (depth 4) to the next function (depth 1)
  // jumps 4 levels.
  Expected<Ast> Tree =
      parseProgram("fn f() { return 1; } fn g(x) { }");
  ASSERT_TRUE(Tree.hasValue());
  auto Table = TokenTable::create();
  WeightedString S = encodeAst(*Tree, Table);
  EXPECT_EQ(formatWeightedString(S),
            "module:1 function[]:1 block:1 return:1 number[]:1 "
            "[LEVEL_UP]:4 function[]:1 param[]:1 [LEVEL_UP]:1 block:1");
}
