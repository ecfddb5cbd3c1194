#include "lint/sema.hpp"

#include <set>
#include <utility>

namespace acclaim::lint {

namespace {

bool is_unordered_name(const std::string& s) {
  return s == "unordered_map" || s == "unordered_set" || s == "unordered_multimap" ||
         s == "unordered_multiset";
}

bool is_punct(const Tok& t, const char* text) {
  return t.kind == Tok::Kind::Punct && t.text == text;
}

}  // namespace

std::size_t match_paren(const std::vector<Tok>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != Tok::Kind::Punct) {
      continue;
    }
    if (toks[i].text == "(") {
      ++depth;
    } else if (toks[i].text == ")") {
      if (--depth == 0) {
        return i;
      }
    }
  }
  return toks.size();
}

std::size_t match_brace(const std::vector<Tok>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != Tok::Kind::Punct) {
      continue;
    }
    if (toks[i].text == "{") {
      ++depth;
    } else if (toks[i].text == "}") {
      if (--depth == 0) {
        return i;
      }
    }
  }
  return toks.size();
}

std::size_t match_bracket(const std::vector<Tok>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != Tok::Kind::Punct) {
      continue;
    }
    if (toks[i].text == "[") {
      ++depth;
    } else if (toks[i].text == "]") {
      if (--depth == 0) {
        return i;
      }
    }
  }
  return toks.size();
}

namespace {

/// Advances past a balanced <...> starting at toks[i] == "<"; returns the
/// index just after the matching ">". Not confused by "<<" (lexed as one
/// token, which cannot appear inside template arguments in this codebase).
std::size_t skip_template_args(const std::vector<Tok>& toks, std::size_t i) {
  int depth = 0;
  while (i < toks.size()) {
    const std::string& t = toks[i].text;
    if (toks[i].kind == Tok::Kind::Punct && t == "<") {
      ++depth;
    } else if (toks[i].kind == Tok::Kind::Punct && t == ">") {
      --depth;
      if (depth == 0) {
        return i + 1;
      }
    } else if (toks[i].kind == Tok::Kind::Punct && (t == ";" || t == "{")) {
      return i;  // malformed / not actually a template — bail out
    }
    ++i;
  }
  return i;
}

/// Harvests declarations of the tracked types into `decls` (first
/// declaration of a name wins).
void harvest_decls(const std::vector<Tok>& toks, DeclMap& decls) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Tok::Kind::Ident) {
      continue;
    }
    const std::string& t = toks[i].text;
    const bool member_access =
        i > 0 && toks[i - 1].kind == Tok::Kind::Punct &&
        (toks[i - 1].text == "." || toks[i - 1].text == "->");
    if (member_access) {
      continue;
    }
    Sym type{};
    std::size_t j = 0;
    if (t == "Rng") {
      type = Sym::Rng;
      j = i + 1;
    } else if (is_unordered_name(t) || t == "atomic") {
      if (i + 1 >= toks.size() || toks[i + 1].text != "<") {
        continue;
      }
      type = is_unordered_name(t) ? Sym::Unordered : Sym::Atomic;
      j = skip_template_args(toks, i + 1);
      // An unordered type nested in an outer template (vector<unordered_map<..>>)
      // still taints the declared variable: close out the outer arguments.
      while (j < toks.size() && toks[j].kind == Tok::Kind::Punct && toks[j].text == ">") {
        ++j;
      }
    } else if (t == "double" || t == "float") {
      if (i > 0 && toks[i - 1].kind == Tok::Kind::Punct &&
          (toks[i - 1].text == "<" || toks[i - 1].text == ",")) {
        continue;  // template argument, not a declaration
      }
      type = Sym::Float;
      j = i + 1;
    } else {
      continue;
    }
    while (j < toks.size() && toks[j].kind == Tok::Kind::Punct &&
           (toks[j].text == "&" || toks[j].text == "*")) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == Tok::Kind::Ident && toks[j].text == "const") {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == Tok::Kind::Ident) {
      decls.emplace(toks[j].text, type);
    }
  }
}

const std::set<std::string>& control_keywords() {
  static const std::set<std::string> kSet = {"if",     "for", "while", "switch",
                                             "do",     "else", "try",  "catch"};
  return kSet;
}

/// Classifies the `{` at `open` from its statement head — the tokens after
/// the previous `;`/`{`/`}` — and extracts a name where one exists.
void classify_brace(const std::vector<Tok>& toks, std::size_t open, Scope& scope) {
  std::size_t head_begin = 0;
  for (std::size_t i = open; i-- > 0;) {
    if (toks[i].kind == Tok::Kind::Punct &&
        (toks[i].text == ";" || toks[i].text == "{" || toks[i].text == "}")) {
      head_begin = i + 1;
      break;
    }
  }
  scope.kind = Scope::Kind::Block;
  if (head_begin >= open) {
    return;  // empty head: a bare block
  }
  const Tok& first = toks[head_begin];
  const Tok& last = toks[open - 1];
  if (first.kind == Tok::Kind::Ident && first.text == "namespace") {
    scope.kind = Scope::Kind::Namespace;
    for (std::size_t i = head_begin + 1; i < open; ++i) {
      if (toks[i].kind == Tok::Kind::Ident) {
        scope.name = toks[i].text;
      }
    }
    return;
  }
  if (first.kind == Tok::Kind::Ident && control_keywords().count(first.text)) {
    return;  // control statement body
  }
  // Brace-init / aggregate literal: `x = {..}`, `f({..})`, `return T{..}`.
  if (is_punct(last, "=") || is_punct(last, ",") || is_punct(last, "(") ||
      is_punct(last, "[") ||
      (last.kind == Tok::Kind::Ident && last.text == "return")) {
    return;
  }
  // Lambda: `[caps] {`, or `[caps](params) [mutable|noexcept|-> T] {`.
  std::size_t probe = open;
  while (probe > head_begin) {
    const Tok& p = toks[probe - 1];
    if (p.kind == Tok::Kind::Ident && (p.text == "mutable" || p.text == "noexcept")) {
      --probe;
      continue;
    }
    break;
  }
  if (probe > head_begin && is_punct(toks[probe - 1], "]")) {
    scope.kind = Scope::Kind::Lambda;
    return;
  }
  if (probe > head_begin && is_punct(toks[probe - 1], ")")) {
    // Find the matching `(` by walking back at depth.
    int depth = 0;
    for (std::size_t i = probe; i-- > head_begin;) {
      if (is_punct(toks[i], ")")) {
        ++depth;
      } else if (is_punct(toks[i], "(")) {
        if (--depth == 0) {
          if (i > head_begin && is_punct(toks[i - 1], "]")) {
            scope.kind = Scope::Kind::Lambda;
            return;
          }
          break;
        }
      }
    }
  }
  // Class/struct/enum definition (possibly after `template <...>`).
  for (std::size_t i = head_begin; i < open; ++i) {
    if (toks[i].kind != Tok::Kind::Ident) {
      continue;
    }
    const std::string& t = toks[i].text;
    if (t == "class" || t == "struct" || t == "union" || t == "enum") {
      // `template <class T>` parameters are inside <...>; a definition
      // keyword sits at angle-bracket depth zero.
      int angle = 0;
      for (std::size_t j = head_begin; j < i; ++j) {
        if (is_punct(toks[j], "<")) {
          ++angle;
        } else if (is_punct(toks[j], ">")) {
          --angle;
        }
      }
      if (angle != 0) {
        continue;
      }
      scope.kind = Scope::Kind::Class;
      std::size_t k = i + 1;
      if (k < open && toks[k].kind == Tok::Kind::Ident && toks[k].text == "class") {
        ++k;  // enum class
      }
      if (k < open && toks[k].kind == Tok::Kind::Ident) {
        scope.name = toks[k].text;
      }
      return;
    }
  }
  // Function definition: a top-level (...) parameter list in the head.
  int depth = 0;
  std::size_t first_open_paren = open;
  for (std::size_t i = head_begin; i < open; ++i) {
    if (is_punct(toks[i], "(")) {
      if (depth == 0 && first_open_paren == open) {
        first_open_paren = i;
      }
      ++depth;
    } else if (is_punct(toks[i], ")")) {
      --depth;
    }
  }
  if (first_open_paren < open) {
    scope.kind = Scope::Kind::Function;
    // Name: the identifier chain directly before the parameter list
    // (`ModelStore::publish` yields "publish"; operators yield "").
    std::size_t i = first_open_paren;
    while (i > head_begin) {
      const Tok& p = toks[i - 1];
      if (p.kind == Tok::Kind::Ident && p.text != "operator") {
        scope.name = p.text;
        break;
      }
      if (is_punct(p, "~")) {
        --i;
        continue;
      }
      break;
    }
  }
}

/// Builds the scope tree for a token stream.
std::vector<Scope> build_scopes(const std::vector<Tok>& toks) {
  std::vector<Scope> scopes;
  scopes.push_back({Scope::Kind::File, "", 0, toks.size()});
  std::vector<std::size_t> stack = {0};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Tok::Kind::Punct) {
      continue;
    }
    if (toks[i].text == "{") {
      Scope s;
      s.open = i;
      s.close = toks.size();
      classify_brace(toks, i, s);
      scopes.push_back(s);
      stack.push_back(scopes.size() - 1);
    } else if (toks[i].text == "}") {
      if (stack.size() > 1) {
        scopes[stack.back()].close = i;
        stack.pop_back();
      }
    }
  }
  return scopes;
}

}  // namespace

FileIndex build_file_index(std::string path, const std::string& content) {
  FileIndex idx;
  idx.path = std::move(path);
  idx.lex = lex(content);
  idx.scopes = build_scopes(idx.lex.toks);
  harvest_decls(idx.lex.toks, idx.decls);
  return idx;
}

}  // namespace acclaim::lint
