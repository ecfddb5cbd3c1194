// acclaim_lint lexical layer: one C++-shaped token stream per file.
//
// The lexer is deliberately not a preprocessor or a full C++ front end — it
// produces exactly what the semantic layer (sema.hpp) and the checks
// (checks.cpp) need:
//  * identifiers / numbers / punctuation with line numbers;
//  * string literals with their *contents* kept (the drift checks compare
//    metric names against the telemetry registry);
//  * comments and preprocessor lines stripped, except that
//      - `// acclaim-lint: allow(<id>, ...)` comments are recorded as
//        line -> allowed-check-id sets, and
//      - `#include "..."` targets are recorded for the include graph.
//
// An allow comment covers its own line and the line after it.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace acclaim::lint {

struct Tok {
  enum class Kind { Ident, Num, Str, Punct };
  Kind kind;
  std::string text;
  std::size_t line;
};

/// line -> check ids allowed on that line ("all" allows everything).
using AllowMap = std::map<std::size_t, std::set<std::string>>;

struct LexedFile {
  std::vector<Tok> toks;
  AllowMap allows;
  /// Targets of `#include "..."` directives (quoted form only — angle
  /// includes are system headers the project checks never need).
  std::vector<std::string> includes;
};

LexedFile lex(const std::string& src);

}  // namespace acclaim::lint
