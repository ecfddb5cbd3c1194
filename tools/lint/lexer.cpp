#include "lint/lexer.hpp"

#include <algorithm>
#include <cctype>

namespace acclaim::lint {

namespace {

bool ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

/// Multi-char operators the checks care about, longest first.
const char* kPunct2[] = {"::", "->", "++", "--", "+=", "-=", "*=", "/=", "%=",
                         "&=", "|=", "^=", "==", "!=", "<=", ">=", "&&", "||", "<<"};

void record_allows(AllowMap& allows, const std::string& comment, std::size_t line) {
  const std::string marker = "acclaim-lint:";
  std::size_t pos = comment.find(marker);
  if (pos == std::string::npos) {
    return;
  }
  pos = comment.find("allow(", pos);
  if (pos == std::string::npos) {
    return;
  }
  pos += 6;
  const std::size_t close = comment.find(')', pos);
  if (close == std::string::npos) {
    return;
  }
  std::string id;
  for (std::size_t i = pos; i <= close; ++i) {
    const char c = i < close ? comment[i] : ',';
    if (c == ',' || c == ' ') {
      if (!id.empty()) {
        allows[line].insert(id);
        id.clear();
      }
    } else {
      id.push_back(c);
    }
  }
}

/// Records the target of `#include "..."` from one preprocessor line.
void record_include(LexedFile& out, const std::string& directive) {
  std::size_t pos = directive.find("include");
  if (pos == std::string::npos) {
    return;
  }
  pos = directive.find('"', pos);
  if (pos == std::string::npos) {
    return;  // angle include — system header, not part of the project graph
  }
  const std::size_t close = directive.find('"', pos + 1);
  if (close == std::string::npos) {
    return;
  }
  out.includes.push_back(directive.substr(pos + 1, close - pos - 1));
}

}  // namespace

LexedFile lex(const std::string& src) {
  LexedFile out;
  std::size_t i = 0;
  std::size_t line = 1;
  bool line_start = true;  // only whitespace seen since the last newline
  const std::size_t n = src.size();

  auto newline = [&] {
    ++line;
    line_start = true;
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      newline();
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Preprocessor directive: skip the whole (possibly continued) line so
    // `#include <unordered_map>` and macro bodies never produce tokens, but
    // keep quoted include targets for the project include graph.
    if (c == '#' && line_start) {
      const std::size_t start = i;
      while (i < n) {
        if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
          newline();
          i += 2;
          continue;
        }
        if (src[i] == '\n') {
          break;
        }
        ++i;
      }
      record_include(out, src.substr(start, i - start));
      continue;
    }
    line_start = false;
    // Line comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const std::size_t start = i;
      while (i < n && src[i] != '\n') {
        ++i;
      }
      record_allows(out.allows, src.substr(start, i - start), line);
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const std::size_t start = i;
      const std::size_t start_line = line;
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') {
          newline();
        }
        ++i;
      }
      i = std::min(n, i + 2);
      record_allows(out.allows, src.substr(start, i - start), start_line);
      continue;
    }
    // Raw string literal (the R/uR/u8R/LR/UR ident was just emitted).
    if (c == '"' && !out.toks.empty() && out.toks.back().kind == Tok::Kind::Ident) {
      const std::string& prev = out.toks.back().text;
      if (prev == "R" || prev == "uR" || prev == "u8R" || prev == "LR" || prev == "UR") {
        out.toks.pop_back();
        std::size_t j = i + 1;
        std::string delim;
        while (j < n && src[j] != '(') {
          delim.push_back(src[j++]);
        }
        const std::string closer = ")" + delim + "\"";
        const std::size_t end = src.find(closer, j);
        const std::size_t stop = end == std::string::npos ? n : end + closer.size();
        for (std::size_t k = i; k < stop; ++k) {
          if (src[k] == '\n') {
            newline();
          }
        }
        const std::size_t body = j + 1;
        const std::size_t body_end = end == std::string::npos ? n : end;
        out.toks.push_back(
            {Tok::Kind::Str, src.substr(body, body_end > body ? body_end - body : 0), line});
        i = stop;
        continue;
      }
    }
    // String / char literal. Contents are kept (the drift checks compare
    // metric/trace names against the registry); every consumer that matches
    // punctuation or identifiers must check Tok::kind, never text alone.
    if (c == '"' || c == '\'') {
      const char quote = c;
      const std::size_t body = i + 1;
      ++i;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < n) {
          ++i;
        }
        if (src[i] == '\n') {
          newline();
        }
        ++i;
      }
      const std::size_t body_end = i;
      ++i;
      out.toks.push_back(
          {Tok::Kind::Str, src.substr(body, body_end > body ? body_end - body : 0), line});
      continue;
    }
    // Identifier / keyword.
    if (ident_start(c)) {
      const std::size_t start = i;
      while (i < n && ident_char(src[i])) {
        ++i;
      }
      out.toks.push_back({Tok::Kind::Ident, src.substr(start, i - start), line});
      continue;
    }
    // Number (incl. 1e-9, 0x1f, digit separators).
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n && std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
      const std::size_t start = i;
      while (i < n) {
        const char d = src[i];
        if (ident_char(d) || d == '.' || d == '\'') {
          ++i;
        } else if ((d == '+' || d == '-') && i > start &&
                   (src[i - 1] == 'e' || src[i - 1] == 'E' || src[i - 1] == 'p' ||
                    src[i - 1] == 'P')) {
          ++i;
        } else {
          break;
        }
      }
      out.toks.push_back({Tok::Kind::Num, src.substr(start, i - start), line});
      continue;
    }
    // Punctuation, two-char operators first.
    if (i + 1 < n) {
      const std::string two = src.substr(i, 2);
      bool matched = false;
      for (const char* op : kPunct2) {
        if (two == op) {
          out.toks.push_back({Tok::Kind::Punct, two, line});
          i += 2;
          matched = true;
          break;
        }
      }
      if (matched) {
        continue;
      }
    }
    out.toks.push_back({Tok::Kind::Punct, std::string(1, c), line});
    ++i;
  }
  return out;
}

}  // namespace acclaim::lint
