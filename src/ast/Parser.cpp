//===- ast/Parser.cpp - Mini-language parser --------------------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ast/Parser.h"
#include "ast/Lexer.h"

using namespace kast;

namespace {

/// The deepest nesting a program may have: blocks, if/else-if links,
/// parenthesized groups, call argument lists, unary operators and
/// binary-operator links each count one level. Parsing recurses once
/// per level and the tree grows at most a few nodes deeper per level,
/// so this bound also bounds the recursion of every later tree walk
/// (the encoder, the interpreter) — deep input is an error, never a
/// stack overflow.
constexpr size_t MaxNestingDepth = 256;

/// Binding power of a binary operator spelling; 0 = not binary.
int precedenceOf(const std::string &Op) {
  if (Op == "||")
    return 1;
  if (Op == "&&")
    return 2;
  if (Op == "==" || Op == "!=")
    return 3;
  if (Op == "<" || Op == "<=" || Op == ">" || Op == ">=")
    return 4;
  if (Op == "+" || Op == "-")
    return 5;
  if (Op == "*" || Op == "/" || Op == "%")
    return 6;
  return 0;
}

/// The recursive-descent parser proper. Errors are returned through
/// the Failed flag + Message to keep signatures simple; the entry
/// point converts them to Expected.
class Parser {
public:
  explicit Parser(std::vector<LexToken> Tokens)
      : Tokens(std::move(Tokens)) {}

  Expected<Ast> run() {
    while (!Failed && !at(TokKind::EndOfFile))
      parseFunction(Tree.root());
    if (Failed)
      return Expected<Ast>::error(Message);
    return std::move(Tree);
  }

private:
  const LexToken &peek(size_t Ahead = 0) const {
    size_t I = std::min(Position + Ahead, Tokens.size() - 1);
    return Tokens[I];
  }
  bool at(TokKind Kind) const { return peek().Kind == Kind; }
  bool atOperator(const char *Spelling) const {
    return peek().Kind == TokKind::Operator && peek().Text == Spelling;
  }
  const LexToken &advance() {
    const LexToken &Tok = Tokens[Position];
    if (Position + 1 < Tokens.size())
      ++Position;
    return Tok;
  }

  void fail(const std::string &What) {
    if (Failed)
      return;
    Failed = true;
    Message = "expected " + What + " but found " +
              tokKindName(peek().Kind) +
              (peek().Text.empty() ? "" : " '" + peek().Text + "'") +
              " at " + std::to_string(peek().Line) + ":" +
              std::to_string(peek().Column);
  }

  /// Enters one nesting level, or fails with a "nesting too deep"
  /// error at the current token once MaxNestingDepth levels are open.
  bool enter() {
    if (Depth < MaxNestingDepth) {
      ++Depth;
      return true;
    }
    if (!Failed) {
      Failed = true;
      Message = "nesting too deep at " + std::to_string(peek().Line) + ":" +
                std::to_string(peek().Column) + " (more than " +
                std::to_string(MaxNestingDepth) + " levels)";
    }
    return false;
  }

  /// One nesting level held for the scope of a recursive production.
  struct Nested {
    explicit Nested(Parser &P) : P(P), Entered(P.enter()) {}
    ~Nested() {
      if (Entered)
        --P.Depth;
    }
    Parser &P;
    const bool Entered;
  };

  /// Consumes a token of \p Kind or fails.
  bool expect(TokKind Kind) {
    if (at(Kind)) {
      advance();
      return true;
    }
    fail(tokKindName(Kind));
    return false;
  }

  void parseFunction(AstNodeId Parent) {
    if (!expect(TokKind::KwFn))
      return;
    if (!at(TokKind::Identifier))
      return fail("function name");
    AstNodeId Fn =
        Tree.addNode(Parent, AstKind::Function, advance().Text);
    if (!expect(TokKind::LParen))
      return;
    if (!at(TokKind::RParen)) {
      do {
        if (!at(TokKind::Identifier))
          return fail("parameter name");
        Tree.addNode(Fn, AstKind::Param, advance().Text);
      } while (at(TokKind::Comma) && (advance(), true));
    }
    if (!expect(TokKind::RParen))
      return;
    parseBlock(Fn);
  }

  void parseBlock(AstNodeId Parent) {
    Nested Level(*this);
    if (!Level.Entered || !expect(TokKind::LBrace))
      return;
    AstNodeId Block = Tree.addNode(Parent, AstKind::Block);
    while (!Failed && !at(TokKind::RBrace) && !at(TokKind::EndOfFile))
      parseStatement(Block);
    expect(TokKind::RBrace);
  }

  void parseStatement(AstNodeId Parent) {
    if (at(TokKind::KwLet)) {
      advance();
      if (!at(TokKind::Identifier))
        return fail("variable name after 'let'");
      AstNodeId Let = Tree.addNode(Parent, AstKind::Let, advance().Text);
      if (!atOperator("="))
        return fail("'='");
      advance();
      parseExpression(Let);
      expect(TokKind::Semicolon);
      return;
    }
    if (at(TokKind::KwIf)) {
      parseIf(Parent);
      return;
    }
    if (at(TokKind::KwWhile)) {
      advance();
      AstNodeId While = Tree.addNode(Parent, AstKind::While);
      if (!expect(TokKind::LParen))
        return;
      parseExpression(While);
      if (!expect(TokKind::RParen))
        return;
      parseBlock(While);
      return;
    }
    if (at(TokKind::KwReturn)) {
      advance();
      AstNodeId Ret = Tree.addNode(Parent, AstKind::Return);
      if (!at(TokKind::Semicolon))
        parseExpression(Ret);
      expect(TokKind::Semicolon);
      return;
    }
    if (at(TokKind::LBrace)) {
      parseBlock(Parent);
      return;
    }
    // Assignment ("x = e;") or expression statement.
    if (at(TokKind::Identifier) && peek(1).Kind == TokKind::Operator &&
        peek(1).Text == "=") {
      AstNodeId Assign =
          Tree.addNode(Parent, AstKind::Assign, advance().Text);
      advance(); // '='
      parseExpression(Assign);
      expect(TokKind::Semicolon);
      return;
    }
    AstNodeId Stmt = Tree.addNode(Parent, AstKind::ExprStmt);
    parseExpression(Stmt);
    expect(TokKind::Semicolon);
  }

  void parseIf(AstNodeId Parent) {
    // Else-if links nest in the else slot, so each link is a level.
    Nested Level(*this);
    if (!Level.Entered)
      return;
    advance(); // 'if'
    AstNodeId If = Tree.addNode(Parent, AstKind::If);
    if (!expect(TokKind::LParen))
      return;
    parseExpression(If);
    if (!expect(TokKind::RParen))
      return;
    parseBlock(If);
    if (at(TokKind::KwElse)) {
      advance();
      if (at(TokKind::KwIf))
        parseIf(If); // else-if chains nest in the else slot.
      else
        parseBlock(If);
    }
  }

  void parseExpression(AstNodeId Parent) {
    AstNodeId Expr = parseUnaryAndClimb(1);
    if (!Failed)
      attach(Expr, Parent);
  }

  /// Precedence climbing over detached nodes; left-associative.
  AstNodeId parseUnaryAndClimb(int MinPrecedence) {
    AstNodeId Lhs = parseUnary();
    const size_t Entered = Depth;
    while (!Failed) {
      int Precedence = peek().Kind == TokKind::Operator
                           ? precedenceOf(peek().Text)
                           : 0;
      if (Precedence < MinPrecedence)
        break;
      // Each link puts the expression so far one level deeper.
      if (!enter())
        break;
      std::string Op = advance().Text;
      AstNodeId Rhs = parseUnaryAndClimb(Precedence + 1);
      if (Failed)
        break;
      AstNodeId Bin = makeDetached(AstKind::Binary, Op);
      reparent(Lhs, Bin);
      reparent(Rhs, Bin);
      Lhs = Bin;
    }
    Depth = Entered;
    return Lhs;
  }

  /// Parses a unary expression, detached from any parent.
  AstNodeId parseUnary() {
    if (atOperator("!") || atOperator("-")) {
      Nested Level(*this);
      if (!Level.Entered)
        return makeDetached(AstKind::Number, "0"); // Error placeholder.
      std::string Op = advance().Text;
      AstNodeId Un = makeDetached(AstKind::Unary, Op);
      AstNodeId Operand = parseUnary();
      if (!Failed)
        reparent(Operand, Un);
      return Un;
    }
    return parsePrimary();
  }

  AstNodeId parsePrimary() {
    if (at(TokKind::Number))
      return makeDetached(AstKind::Number, advance().Text);
    if (at(TokKind::Identifier)) {
      std::string Name = advance().Text;
      if (!at(TokKind::LParen))
        return makeDetached(AstKind::Var, Name);
      Nested Level(*this);
      AstNodeId Call = makeDetached(AstKind::Call, Name);
      if (!Level.Entered)
        return Call;
      advance(); // '('
      if (!at(TokKind::RParen)) {
        do {
          AstNodeId Arg = parseUnaryAndClimb(1);
          if (Failed)
            return Call;
          reparent(Arg, Call);
        } while (at(TokKind::Comma) && (advance(), true));
      }
      expect(TokKind::RParen);
      return Call;
    }
    if (at(TokKind::LParen)) {
      Nested Level(*this);
      if (!Level.Entered)
        return makeDetached(AstKind::Number, "0"); // Error placeholder.
      advance();
      // Parenthesized expressions do not produce a node; the detached
      // chain from the climb is the result.
      AstNodeId Inner = parseUnaryAndClimb(1);
      expect(TokKind::RParen);
      return Inner;
    }
    fail("an expression");
    return makeDetached(AstKind::Number, "0"); // Error placeholder.
  }

  /// Creates a node with no parent (attached later).
  AstNodeId makeDetached(AstKind Kind, std::string Text = "") {
    AstNodeId Id = Tree.addNode(Tree.root(), Kind, std::move(Text));
    Tree.node(Tree.root()).Children.pop_back();
    Tree.node(Id).Parent = InvalidAstNodeId;
    return Id;
  }

  /// Attaches a detached node under \p Parent.
  void attach(AstNodeId Id, AstNodeId Parent) {
    assert(Tree.node(Id).Parent == InvalidAstNodeId &&
           "node already attached");
    Tree.node(Id).Parent = Parent;
    Tree.node(Parent).Children.push_back(Id);
  }

  /// Moves \p Id (detached) under \p NewParent.
  void reparent(AstNodeId Id, AstNodeId NewParent) { attach(Id, NewParent); }

  std::vector<LexToken> Tokens;
  size_t Position = 0;
  /// Nesting levels currently open (see MaxNestingDepth).
  size_t Depth = 0;
  Ast Tree;
  bool Failed = false;
  std::string Message;
};

} // namespace

Expected<Ast> kast::parseProgram(std::string_view Source) {
  Expected<std::vector<LexToken>> Tokens = lexProgram(Source);
  if (!Tokens)
    return Expected<Ast>::error(Tokens.message());
  Parser P(Tokens.take());
  return P.run();
}
