// acclaim_lint semantic layer: scoped token tree + per-file symbol tables.
//
// Built once per file from the lexed token stream (lexer.hpp) and shared by
// every check. The tree is a brace-nesting skeleton — namespaces, classes,
// functions, lambdas, and plain blocks — classified from the statement head
// before each `{`. It is deliberately approximate (no template
// instantiation, no overload resolution): the checks only need "which
// function am I in" and "what simplified type does this name have".
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "lint/lexer.hpp"

namespace acclaim::lint {

/// Simplified variable types the checks reason about.
enum class Sym { Rng, Unordered, Float, Atomic };

using DeclMap = std::map<std::string, Sym>;

struct Scope {
  enum class Kind { File, Namespace, Class, Function, Lambda, Block };
  Kind kind = Kind::Block;
  /// Unqualified name for Namespace/Class/Function ("" when anonymous or
  /// not syntactically recoverable, e.g. operator overloads).
  std::string name;
  /// Token index of the opening `{` (File: 0) and its matching `}`
  /// (File: toks.size()).
  std::size_t open = 0;
  std::size_t close = 0;
};

/// One analyzed file: token stream plus the derived semantic structures.
struct FileIndex {
  std::string path;
  LexedFile lex;
  /// scopes[0] is always the File scope; children appear after parents.
  std::vector<Scope> scopes;
  /// File-global declarations (scope-free by design: the legacy checks and
  /// the taint pass both want header members visible inside methods).
  DeclMap decls;
};

/// Lexes `content` and derives scopes + declarations. `path` is the
/// repo-relative path used for layer scoping and reporting.
FileIndex build_file_index(std::string path, const std::string& content);

// Token-tree matching helpers shared by the checks (indices are into the
// token vector; a failed match returns toks.size()).
std::size_t match_paren(const std::vector<Tok>& toks, std::size_t open);
std::size_t match_brace(const std::vector<Tok>& toks, std::size_t open);
std::size_t match_bracket(const std::vector<Tok>& toks, std::size_t open);

}  // namespace acclaim::lint
