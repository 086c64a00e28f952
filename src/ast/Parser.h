//===- ast/Parser.h - Mini-language parser ---------------------*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for Mini with precedence-climbing
/// expressions. Grammar:
///
///   program  := function*
///   function := 'fn' ident '(' params? ')' block
///   params   := ident (',' ident)*
///   block    := '{' stmt* '}'
///   stmt     := 'let' ident '=' expr ';'
///             | ident '=' expr ';'
///             | 'if' '(' expr ')' block ('else' (block | ifstmt))?
///             | 'while' '(' expr ')' block
///             | 'return' expr? ';'
///             | block
///             | expr ';'
///   expr     := binary operators by precedence:
///               || < && < == != < < <= > >= < + - < * / % < unary ! -
///   primary  := number | ident | ident '(' args? ')' | '(' expr ')'
///
/// Errors carry line:column positions and the expected construct.
/// Nesting is bounded: past 256 levels (blocks, else-if links,
/// parentheses, call arguments, unary operators, binary-operator
/// links) the parse fails with a "nesting too deep" error, so no input
/// can exhaust the stack here or in a later walk over the tree.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_AST_PARSER_H
#define KAST_AST_PARSER_H

#include "ast/Ast.h"
#include "util/Error.h"

#include <string_view>

namespace kast {

/// Parses a whole Mini program.
Expected<Ast> parseProgram(std::string_view Source);

} // namespace kast

#endif // KAST_AST_PARSER_H
