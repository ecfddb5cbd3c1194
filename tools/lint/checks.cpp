#include "lint/checks.hpp"

#include <algorithm>
#include <initializer_list>
#include <map>
#include <utility>

namespace acclaim::lint {

namespace {

bool has_prefix(const std::string& path, std::initializer_list<const char*> prefixes) {
  return std::any_of(prefixes.begin(), prefixes.end(),
                     [&](const char* p) { return path.rfind(p, 0) == 0; });
}

/// The layers the golden determinism tests fingerprint: no wall-clock reads
/// and no randomness outside util::Rng.
bool in_det_layer(const std::string& path) {
  return has_prefix(path,
                    {"src/core/", "src/ml/", "src/simnet/", "src/benchdata/", "src/collectives/"});
}

/// Library and CLI code feeds ordered output (rule files, tables,
/// accumulators), so unordered iteration is an error there; test fixtures
/// may iterate scratch maps freely.
bool in_ordered_iter_layer(const std::string& path) { return has_prefix(path, {"src/", "tools/"}); }

/// Layers whose values cross a trust boundary (NDJSON, CLI argv, env, CSV):
/// values produced by raw parses (stoi/atoi/strtol/parse_bytes/...) must
/// pass through a checked_*/range-validated function before arithmetic,
/// narrowing casts, or allocation sizes. Test sources are out of scope.
bool in_taint_layer(const std::string& path) {
  return has_prefix(path, {"src/serve/", "src/fleet/", "src/traces/", "src/benchdata/", "tools/",
                           "bench/"});
}

bool is_test_path(const std::string& path) { return path.rfind("tests/", 0) == 0; }

bool is_p(const Tok& t, const char* text) {
  return t.kind == Tok::Kind::Punct && t.text == text;
}

bool is_id(const Tok& t, const char* text) {
  return t.kind == Tok::Kind::Ident && t.text == text;
}

const std::set<std::string>& rand_idents() {
  static const std::set<std::string> kSet = {
      "random_device", "mt19937",      "mt19937_64",     "minstd_rand",
      "minstd_rand0",  "ranlux24",     "ranlux48",       "knuth_b",
      "default_random_engine",         "uniform_int_distribution",
      "uniform_real_distribution",     "normal_distribution",
      "bernoulli_distribution",        "poisson_distribution",
      "discrete_distribution",
  };
  return kSet;
}

const std::set<std::string>& rand_calls() {
  static const std::set<std::string> kSet = {"rand", "srand", "rand_r", "drand48", "lrand48"};
  return kSet;
}

const std::set<std::string>& wallclock_idents() {
  static const std::set<std::string> kSet = {"system_clock", "gettimeofday", "localtime",
                                             "gmtime", "mktime"};
  return kSet;
}

const std::set<std::string>& wallclock_calls() {
  static const std::set<std::string> kSet = {"time", "clock"};
  return kSet;
}

bool is_unordered_name(const std::string& s) {
  return s == "unordered_map" || s == "unordered_set" || s == "unordered_multimap" ||
         s == "unordered_multiset";
}

// ---------------------------------------------------------------------------
// Taint-lite model
// ---------------------------------------------------------------------------

/// Width class of an untrusted parse: 'i' = int-sized, 'l' = long-sized,
/// 'f' = floating. Narrowing is judged against the width, so
/// `static_cast<int>(std::stoi(s))` stays silent while
/// `static_cast<int>(std::stoull(s))` fires.
char taint_source_kind(const std::string& callee) {
  static const std::map<std::string, char> kSources = {
      {"stoi", 'i'},     {"atoi", 'i'},     {"stol", 'l'},      {"stoll", 'l'},
      {"stoul", 'l'},    {"stoull", 'l'},   {"atol", 'l'},      {"atoll", 'l'},
      {"strtol", 'l'},   {"strtoul", 'l'},  {"strtoll", 'l'},   {"strtoull", 'l'},
      {"parse_bytes", 'l'},
      {"stod", 'f'},     {"stof", 'f'},     {"atof", 'f'},      {"strtod", 'f'},
  };
  const auto it = kSources.find(callee);
  return it == kSources.end() ? '\0' : it->second;
}

/// Functions whose return value counts as range-validated. Prefix families
/// cover the repo's own guards (serve::checked_comm_size, validate_request,
/// require_*); clamp/min/max bound the value by construction; int_field is
/// the NDJSON accessor that range-checks in the double domain.
bool is_sanitizer_name(const std::string& callee) {
  return callee.rfind("checked_", 0) == 0 || callee.rfind("validate", 0) == 0 ||
         callee.rfind("require", 0) == 0 || callee == "int_field" || callee == "clamp" ||
         callee == "min" || callee == "max";
}

bool is_narrow_target(const std::vector<std::string>& type_idents, char kind) {
  static const std::set<std::string> kWide = {"long",   "int64_t", "uint64_t", "size_t",
                                             "double", "int64",   "uint64",   "ptrdiff_t"};
  static const std::set<std::string> kNarrow16 = {"short", "char", "int8_t", "int16_t",
                                                  "uint8_t", "uint16_t", "char8_t"};
  static const std::set<std::string> kNarrow32 = {"int", "unsigned", "int32_t", "uint32_t"};
  for (const std::string& t : type_idents) {
    if (kWide.count(t)) {
      return false;
    }
  }
  for (const std::string& t : type_idents) {
    if (kNarrow16.count(t)) {
      return true;
    }
    if (kNarrow32.count(t) && (kind == 'l' || kind == 'f')) {
      return true;
    }
    if (t == "float" && kind == 'f') {
      return true;
    }
  }
  return false;
}

const std::set<std::string>& alloc_callees() {
  static const std::set<std::string> kSet = {"resize", "reserve", "malloc", "calloc",
                                             "realloc", "alloca"};
  return kSet;
}

/// An unmatched opener (`(` or `[`) still open at `idx`, innermost first.
struct OpenSite {
  std::size_t pos = 0;
  bool bracket = false;
};

std::size_t stmt_begin(const std::vector<Tok>& toks, std::size_t idx) {
  for (std::size_t j = idx; j-- > 0;) {
    if (toks[j].kind == Tok::Kind::Punct &&
        (toks[j].text == ";" || toks[j].text == "{" || toks[j].text == "}")) {
      return j + 1;
    }
  }
  return 0;
}

std::vector<OpenSite> enclosing_opens(const std::vector<Tok>& toks, std::size_t idx,
                                      std::size_t sb) {
  std::vector<OpenSite> opens;
  int paren = 0;
  int bracket = 0;
  for (std::size_t j = idx; j-- > sb;) {
    if (toks[j].kind != Tok::Kind::Punct) {
      continue;
    }
    const std::string& t = toks[j].text;
    if (t == ")") {
      ++paren;
    } else if (t == "(") {
      if (paren == 0) {
        opens.push_back({j, false});
      } else {
        --paren;
      }
    } else if (t == "]") {
      ++bracket;
    } else if (t == "[") {
      if (bracket == 0) {
        opens.push_back({j, true});
      } else {
        --bracket;
      }
    }
  }
  return opens;
}

/// Start of the member chain ending at `idx` (`arrival . nnodes` -> index of
/// `arrival`; `std :: stoi` -> index of `std`).
std::size_t chain_begin(const std::vector<Tok>& toks, std::size_t idx) {
  std::size_t b = idx;
  while (b >= 2 && toks[b - 1].kind == Tok::Kind::Punct &&
         (toks[b - 1].text == "." || toks[b - 1].text == "->" || toks[b - 1].text == "::") &&
         toks[b - 2].kind == Tok::Kind::Ident) {
    b -= 2;
  }
  return b;
}

/// The identifier naming the call whose `(` sits at `open`; walks back over
/// a template argument list (`static_cast<int>(` -> "static_cast").
/// `type_idents`, when non-null, receives the identifiers inside the <...>.
std::string callee_of(const std::vector<Tok>& toks, std::size_t open,
                      std::vector<std::string>* type_idents = nullptr) {
  if (open == 0) {
    return "";
  }
  std::size_t j = open - 1;
  if (is_p(toks[j], ">")) {
    int angle = 0;
    while (true) {
      if (is_p(toks[j], ">")) {
        ++angle;
      } else if (is_p(toks[j], "<")) {
        if (--angle == 0) {
          break;
        }
      } else if (type_idents != nullptr && toks[j].kind == Tok::Kind::Ident) {
        type_idents->push_back(toks[j].text);
      }
      if (j == 0) {
        return "";
      }
      --j;
    }
    if (j == 0) {
      return "";
    }
    --j;
  }
  return toks[j].kind == Tok::Kind::Ident ? toks[j].text : "";
}

bool is_comparison(const Tok& t) {
  return t.kind == Tok::Kind::Punct &&
         (t.text == "<" || t.text == ">" || t.text == "<=" || t.text == ">=" ||
          t.text == "==" || t.text == "!=");
}

bool is_operand_end(const Tok& t) {
  return t.kind == Tok::Kind::Ident || t.kind == Tok::Kind::Num || is_p(t, ")") ||
         is_p(t, "]");
}

bool is_operand_start(const Tok& t) {
  return t.kind == Tok::Kind::Ident || t.kind == Tok::Kind::Num || is_p(t, "(");
}

/// Suppression lookup: an allow comment covers its own line and the line
/// below it.
bool line_suppressed(const LexedFile& lex, const std::string& check, std::size_t line) {
  for (std::size_t l : {line, line > 0 ? line - 1 : line}) {
    auto it = lex.allows.find(l);
    if (it != lex.allows.end() && (it->second.count(check) || it->second.count("all"))) {
      return true;
    }
  }
  return false;
}

/// CamelCase -> snake_case ("TrainingIteration" -> "training_iteration").
std::string snake_case(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c >= 'A' && c <= 'Z') {
      if (!out.empty()) {
        out.push_back('_');
      }
      out.push_back(static_cast<char>(c - 'A' + 'a'));
    } else {
      out.push_back(c);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Per-file analyzer
// ---------------------------------------------------------------------------

struct Analyzer {
  const FileIndex& file;
  const DeclMap& decls;
  const std::set<std::string>& tainted_fields;
  const std::vector<Tok>& toks;
  std::vector<Finding> findings;

  Analyzer(const FileIndex& f, const DeclMap& d, const std::set<std::string>& tf)
      : file(f), decls(d), tainted_fields(tf), toks(f.lex.toks) {}

  void report(const std::string& check, std::size_t line, const std::string& message,
              const std::string& hint = "") {
    if (line_suppressed(file.lex, check, line)) {
      return;
    }
    findings.push_back({check, file.path, line, message, hint});
  }

  const Tok* prev_tok(std::size_t i) const { return i > 0 ? &toks[i - 1] : nullptr; }
  const Tok* next_tok(std::size_t i) const {
    return i + 1 < toks.size() ? &toks[i + 1] : nullptr;
  }

  bool prev_is_member_or_scope(std::size_t i) const {
    const Tok* p = prev_tok(i);
    return p != nullptr && p->kind == Tok::Kind::Punct &&
           (p->text == "." || p->text == "->" || p->text == "::");
  }

  bool prev_is_member(std::size_t i) const {
    const Tok* p = prev_tok(i);
    return p != nullptr && p->kind == Tok::Kind::Punct && (p->text == "." || p->text == "->");
  }

  // --- det-rand / det-wallclock ------------------------------------------
  void check_det_layer_tokens() {
    if (!in_det_layer(file.path)) {
      return;
    }
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != Tok::Kind::Ident || prev_is_member(i)) {
        continue;
      }
      const std::string& t = toks[i].text;
      const Tok* nx = next_tok(i);
      const bool call = nx != nullptr && is_p(*nx, "(");
      if (rand_idents().count(t) || (call && rand_calls().count(t))) {
        report("det-rand", toks[i].line,
               "'" + t + "' in deterministic layer; use util::Rng / Rng::stream");
      } else if (wallclock_idents().count(t) || (call && wallclock_calls().count(t))) {
        report("det-wallclock", toks[i].line,
               "'" + t + "' reads the wall clock in a deterministic layer");
      }
    }
  }

  // --- det-unordered-iter -------------------------------------------------
  void check_unordered_iteration() {
    if (!in_ordered_iter_layer(file.path)) {
      return;
    }
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (!is_id(toks[i], "for") || !is_p(toks[i + 1], "(")) {
        continue;
      }
      const std::size_t close = match_paren(toks, i + 1);
      // Range-for: a ':' at parenthesis depth 1 ("::" lexes as one token).
      std::size_t colon = 0;
      int depth = 0;
      for (std::size_t j = i + 1; j < close; ++j) {
        if (toks[j].kind != Tok::Kind::Punct) {
          continue;
        }
        if (toks[j].text == "(") {
          ++depth;
        } else if (toks[j].text == ")") {
          --depth;
        } else if (toks[j].text == ":" && depth == 1) {
          colon = j;
          break;
        }
      }
      if (colon == 0) {
        continue;
      }
      for (std::size_t j = colon + 1; j < close; ++j) {
        if (toks[j].kind != Tok::Kind::Ident) {
          continue;
        }
        auto it = decls.find(toks[j].text);
        const bool unordered_var =
            it != decls.end() && it->second == Sym::Unordered && !prev_is_member(j);
        if (unordered_var || is_unordered_name(toks[j].text)) {
          report("det-unordered-iter", toks[j].line,
                 "range-for over unordered container '" + toks[j].text + "'");
          break;
        }
      }
    }
  }

  // --- parallel-region checks --------------------------------------------
  void check_parallel_regions() {
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != Tok::Kind::Ident ||
          (toks[i].text != "parallel_for" && toks[i].text != "submit") ||
          !is_p(toks[i + 1], "(")) {
        continue;
      }
      const std::size_t call_close = match_paren(toks, i + 1);
      // Lambdas are the arguments whose '[' directly follows '(' or ','.
      for (std::size_t j = i + 2; j < call_close; ++j) {
        if (is_p(toks[j], "[") && toks[j - 1].kind == Tok::Kind::Punct &&
            (toks[j - 1].text == "(" || toks[j - 1].text == ",")) {
          analyze_lambda(j, call_close);
        }
      }
    }
  }

  void analyze_lambda(std::size_t capture_open, std::size_t limit) {
    const std::size_t capture_close = match_bracket(toks, capture_open);
    if (capture_close >= limit) {
      return;
    }
    bool default_ref = false;
    std::set<std::string> ref_captures;
    std::set<std::string> locals;
    for (std::size_t j = capture_open + 1; j < capture_close; ++j) {
      if (is_p(toks[j], "&")) {
        const Tok* nx = next_tok(j);
        if (nx != nullptr && nx->kind == Tok::Kind::Ident) {
          ref_captures.insert(nx->text);
        } else {
          default_ref = true;
        }
      }
    }
    // Parameters: idents directly before ',' or ')' inside the param list.
    std::size_t k = capture_close + 1;
    if (k < toks.size() && is_p(toks[k], "(")) {
      const std::size_t param_close = match_paren(toks, k);
      for (std::size_t j = k + 1; j < param_close; ++j) {
        if (toks[j].kind == Tok::Kind::Ident && toks[j + 1].kind == Tok::Kind::Punct &&
            (toks[j + 1].text == "," || toks[j + 1].text == ")")) {
          locals.insert(toks[j].text);
        }
      }
      k = param_close + 1;
    }
    while (k < toks.size() && !is_p(toks[k], "{")) {
      ++k;  // skip mutable / noexcept / -> return-type
    }
    if (k >= toks.size()) {
      return;
    }
    const std::size_t body_open = k;
    const std::size_t body_close = match_brace(toks, body_open);

    // Pass 1: locals declared in the body (type-ish token, then the name,
    // then an initializer/terminator).
    for (std::size_t j = body_open + 1; j < body_close; ++j) {
      if (toks[j].kind != Tok::Kind::Ident || j == 0) {
        continue;
      }
      const Tok& p = toks[j - 1];
      const bool typeish =
          p.kind == Tok::Kind::Ident ||
          (p.kind == Tok::Kind::Punct && (p.text == ">" || p.text == "&" || p.text == "*"));
      if (!typeish || (p.kind == Tok::Kind::Ident && j >= 2 && prev_is_member(j - 1))) {
        continue;
      }
      const Tok* nx = next_tok(j);
      if (nx != nullptr && nx->kind == Tok::Kind::Punct &&
          (nx->text == "=" || nx->text == ";" || nx->text == "," || nx->text == ":" ||
           nx->text == "(" || nx->text == "{")) {
        locals.insert(toks[j].text);
      }
    }

    // Pass 1b: audit emission inside a parallel region. The flight
    // recorder's log must be bitwise-identical across thread counts, which
    // holds only if every record is emitted from the serial decision path —
    // records written from worker lambdas interleave by scheduling order.
    for (std::size_t j = body_open + 1; j < body_close; ++j) {
      if (toks[j].kind != Tok::Kind::Ident) {
        continue;
      }
      const std::string& t = toks[j].text;
      const Tok* nx = next_tok(j);
      const bool audit_call = t == "audit" && nx != nullptr && is_p(*nx, "(");
      if (audit_call || t == "AuditLog" || t == "DecisionRecord" ||
          t == "observe_decision_cost") {
        report("det-audit-order", toks[j].line,
               "'" + t + "' emits audit records inside a parallel region");
        break;  // one finding per lambda pinpoints the region
      }
    }

    // Pass 2: shared writes and by-ref Rng use.
    for (std::size_t j = body_open + 1; j < body_close; ++j) {
      if (toks[j].kind != Tok::Kind::Ident || locals.count(toks[j].text) ||
          prev_is_member_or_scope(j)) {
        continue;
      }
      const std::string& name = toks[j].text;
      const auto decl = decls.find(name);
      const Tok* nx = next_tok(j);

      const bool captured_by_ref = default_ref || ref_captures.count(name) > 0;
      if (captured_by_ref && decl != decls.end() && decl->second == Sym::Rng &&
          nx != nullptr && is_p(*nx, ".")) {
        report("det-rng-ref-capture", toks[j].line,
               "Rng '" + name +
                   "' is used through a by-reference capture inside a parallel region");
        continue;
      }

      if (decl != decls.end() && decl->second == Sym::Atomic) {
        continue;
      }
      const bool pre_incdec = j > 0 && toks[j - 1].kind == Tok::Kind::Punct &&
                              (toks[j - 1].text == "++" || toks[j - 1].text == "--");
      std::string op;
      if (nx != nullptr && nx->kind == Tok::Kind::Punct) {
        static const std::set<std::string> kWriteOps = {"=",  "+=", "-=", "*=",
                                                        "/=", "++", "--"};
        if (kWriteOps.count(nx->text)) {
          op = nx->text;
        }
      }
      if (op.empty() && pre_incdec) {
        op = toks[j - 1].text;
      }
      if (op.empty()) {
        continue;
      }
      if (op == "+=" || op == "-=") {
        if (decl != decls.end() && decl->second == Sym::Float) {
          report("par-float-reduction", toks[j].line,
                 "'" + name + " " + op + "' reduces a float inside a parallel region");
          continue;
        }
      }
      report("par-shared-write", toks[j].line,
             "'" + name + " " + op + "' writes shared state inside a parallel region");
    }
  }

  // --- taint-lite ----------------------------------------------------------
  void check_taint() {
    if (!in_taint_layer(file.path)) {
      return;
    }
    // fn_of[i]: innermost Function/Lambda scope owning token i. Children
    // appear after parents in the scope vector, so later writes win.
    std::vector<int> fn_of(toks.size(), -1);
    for (std::size_t s = 1; s < file.scopes.size(); ++s) {
      const Scope& sc = file.scopes[s];
      if (sc.kind != Scope::Kind::Function && sc.kind != Scope::Kind::Lambda) {
        continue;
      }
      for (std::size_t i = sc.open + 1; i < sc.close && i < toks.size(); ++i) {
        fn_of[i] = static_cast<int>(s);
      }
    }
    int cur_fn = -1;
    bool exempt = false;
    std::map<std::string, char> tainted;  // local name -> width kind
    taint_map = &tainted;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (fn_of[i] != cur_fn) {
        cur_fn = fn_of[i];
        tainted.clear();
        // Sanitizers themselves do raw comparisons and arithmetic on the
        // untrusted value — that is their job.
        exempt = cur_fn >= 0 &&
                 is_sanitizer_name(file.scopes[static_cast<std::size_t>(cur_fn)].name);
      }
      if (cur_fn < 0 || exempt || toks[i].kind != Tok::Kind::Ident) {
        continue;
      }
      const std::string& t = toks[i].text;
      const Tok* nx = next_tok(i);
      const bool call = nx != nullptr && is_p(*nx, "(");
      const char src_kind = call ? taint_source_kind(t) : '\0';
      if (src_kind != '\0' && !prev_is_member(i)) {
        const std::size_t close = match_paren(toks, i + 1);
        handle_tainted_use(chain_begin(toks, i), close, src_kind, "", t);
        continue;
      }
      if (call) {
        continue;  // other calls: the name is a function, not a value
      }
      if (prev_is_member(i)) {
        if (tainted_fields.count(t)) {
          handle_tainted_use(chain_begin(toks, i), i, 'l', t, "");
        }
        continue;
      }
      auto it = tainted.find(t);
      if (it != tainted.end()) {
        if (nx != nullptr && is_p(*nx, "=")) {
          tainted.erase(it);  // plain reassignment; rhs re-taints via capture
          continue;
        }
        handle_tainted_use(i, i, it->second, t, "");
      }
    }
  }

  /// One use of an untrusted value spanning tokens [begin, end]. `name` is
  /// the tainted local/field ("" for a direct source call `src(...)`).
  void handle_tainted_use(std::size_t begin, std::size_t end, char kind,
                          const std::string& name, const std::string& src) {
    if (end >= toks.size()) {
      return;
    }
    const std::size_t sb = stmt_begin(toks, begin);
    const std::vector<OpenSite> opens = enclosing_opens(toks, begin, sb);
    // Sanitized uses are clean — and so is anything assigned from them.
    for (const OpenSite& o : opens) {
      if (!o.bracket && is_sanitizer_name(callee_of(toks, o.pos))) {
        return;
      }
    }
    const std::string what =
        name.empty() ? "'" + src + "(...)'" : "'" + name + "'";
    const Tok* before = begin > 0 ? &toks[begin - 1] : nullptr;
    const Tok* after = end + 1 < toks.size() ? &toks[end + 1] : nullptr;
    // A comparison is the range check the rule asks for; the local is
    // considered validated from here on.
    if ((before != nullptr && is_comparison(*before)) ||
        (after != nullptr && is_comparison(*after))) {
      if (!name.empty()) {
        tainted_erase(name);
      }
      return;
    }
    // Narrowing cast / allocation-size contexts, innermost enclosure first.
    for (const OpenSite& o : opens) {
      if (o.bracket) {
        for (std::size_t j = sb; j < o.pos; ++j) {
          if (is_id(toks[j], "new")) {
            report("taint-unchecked-arith", toks[end].line,
                   what + " flows from an untrusted parse into a new[] size",
                   "bound the value (checked_* / explicit limit) before allocating");
            tainted_erase(name);
            return;
          }
        }
        continue;
      }
      std::vector<std::string> type_idents;
      const std::string callee = callee_of(toks, o.pos, &type_idents);
      if (callee == "static_cast" && is_narrow_target(type_idents, kind)) {
        report("taint-narrowing-cast", toks[end].line,
               what + " flows from an untrusted parse into a narrowing cast",
               "range-check the value (e.g. a checked_* helper) before narrowing");
        tainted_erase(name);
        return;
      }
      if (alloc_callees().count(callee)) {
        report("taint-unchecked-arith", toks[end].line,
               what + " flows from an untrusted parse into '" + callee + "' (allocation size)",
               "bound the value (checked_* / explicit limit) before allocating");
        tainted_erase(name);
        return;
      }
    }
    // Binary arithmetic adjacency: `a * tainted`, `tainted + b`, `x += tainted`.
    static const std::set<std::string> kArithBefore = {"*", "+", "-", "+=", "-=", "*="};
    static const std::set<std::string> kArithAfter = {"*", "+", "-"};
    const bool arith_before = before != nullptr && before->kind == Tok::Kind::Punct &&
                              kArithBefore.count(before->text) && begin >= 2 &&
                              is_operand_end(toks[begin - 2]);
    const bool arith_after = after != nullptr && after->kind == Tok::Kind::Punct &&
                             kArithAfter.count(after->text) && end + 2 < toks.size() &&
                             is_operand_start(toks[end + 2]);
    if (arith_before || arith_after) {
      report("taint-unchecked-arith", toks[end].line,
             what + " flows from an untrusted parse into arithmetic without a range check",
             "validate the value (checked_* / explicit bounds) before computing with it");
      tainted_erase(name);
      return;
    }
    // No violation: if the statement assigns the value to a plain local,
    // the local inherits the taint — but only for direct flows. A value
    // that passes through any function call (`x = f(tainted)`) stops
    // propagating: the callee may bound it, and flagging its result would
    // taint half the call graph.
    for (std::size_t j = sb; j < begin; ++j) {
      if (!is_p(toks[j], "=")) {
        continue;
      }
      bool through_call = false;
      for (const OpenSite& o : opens) {
        if (o.pos > j && (o.bracket || !callee_of(toks, o.pos).empty())) {
          through_call = true;
          break;
        }
      }
      if (!through_call && j > sb && toks[j - 1].kind == Tok::Kind::Ident &&
          !prev_is_member(j - 1)) {
        taint_insert(toks[j - 1].text, kind);
      }
      break;
    }
  }

  // check_taint()'s local map, reachable from handle_tainted_use without
  // threading it through every call.
  std::map<std::string, char>* taint_map = nullptr;
  void tainted_erase(const std::string& name) {
    if (taint_map != nullptr && !name.empty()) {
      taint_map->erase(name);
    }
  }
  void taint_insert(const std::string& name, char kind) {
    if (taint_map != nullptr) {
      taint_map->emplace(name, kind);
    }
  }

  void run() {
    check_det_layer_tokens();
    check_unordered_iteration();
    check_parallel_regions();
    check_taint();
  }
};

}  // namespace

std::vector<Finding> run_file_checks(const FileIndex& file, const DeclMap& decls,
                                     const std::set<std::string>& tainted_fields) {
  Analyzer az(file, decls, tainted_fields);
  az.run();
  return az.findings;
}

// ---------------------------------------------------------------------------
// Project-wide taint propagation
// ---------------------------------------------------------------------------

namespace {

/// True when the token range [begin, end) contains an unsanitized source
/// call or a read of an already-tainted field.
bool range_carries_taint(const std::vector<Tok>& toks, std::size_t begin, std::size_t end,
                         const std::set<std::string>& fields) {
  for (std::size_t i = begin; i < end; ++i) {
    if (toks[i].kind != Tok::Kind::Ident) {
      continue;
    }
    const bool member = i > 0 && toks[i - 1].kind == Tok::Kind::Punct &&
                        (toks[i - 1].text == "." || toks[i - 1].text == "->");
    const bool call = i + 1 < end && is_p(toks[i + 1], "(");
    if (!member && call && taint_source_kind(toks[i].text) != '\0' &&
        taint_source_kind(toks[i].text) != 'f') {
      // Check the source isn't wrapped in a sanitizer within the range.
      const std::vector<OpenSite> opens = enclosing_opens(toks, i, begin);
      bool sanitized = false;
      for (const OpenSite& o : opens) {
        if (!o.bracket && is_sanitizer_name(callee_of(toks, o.pos))) {
          sanitized = true;
          break;
        }
      }
      if (!sanitized) {
        return true;
      }
    }
    if (member && !call && fields.count(toks[i].text)) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::set<std::string> collect_tainted_fields(const std::vector<const FileIndex*>& files) {
  std::set<std::string> fields;
  for (int round = 0; round < 8; ++round) {
    bool grew = false;
    for (const FileIndex* f : files) {
      if (!in_taint_layer(f->path)) {
        continue;
      }
      const std::vector<Tok>& toks = f->lex.toks;
      for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
        if (toks[i].kind != Tok::Kind::Ident) {
          continue;
        }
        const bool member = toks[i - 1].kind == Tok::Kind::Punct &&
                            (toks[i - 1].text == "." || toks[i - 1].text == "->");
        if (!member) {
          continue;
        }
        const std::string& field = toks[i].text;
        // `obj.field = <tainted rhs>;`
        if (is_p(toks[i + 1], "=")) {
          std::size_t end = i + 2;
          while (end < toks.size() && !is_p(toks[end], ";")) {
            ++end;
          }
          if (!fields.count(field) && range_carries_taint(toks, i + 2, end, fields)) {
            fields.insert(field);
            grew = true;
          }
          continue;
        }
        // `obj.field.push_back(<tainted>)` / emplace_back.
        if (is_p(toks[i + 1], ".") && i + 3 < toks.size() &&
            (is_id(toks[i + 2], "push_back") || is_id(toks[i + 2], "emplace_back")) &&
            is_p(toks[i + 3], "(")) {
          const std::size_t close = match_paren(toks, i + 3);
          if (!fields.count(field) && range_carries_taint(toks, i + 4, close, fields)) {
            fields.insert(field);
            grew = true;
          }
        }
      }
    }
    if (!grew) {
      break;
    }
  }
  return fields;
}

// ---------------------------------------------------------------------------
// Project-wide pass: telemetry registry drift
// ---------------------------------------------------------------------------

namespace {

std::string metric_key(const std::string& kind, const std::string& name) {
  return kind + ":" + name;
}

}  // namespace

std::vector<Finding> run_project_checks(const std::vector<const FileIndex*>& files,
                                        const util::Json& registry) {
  std::vector<Finding> out;
  if (!registry.is_object()) {
    return out;
  }
  auto emit = [&](const FileIndex* f, const std::string& check, const std::string& file,
                  std::size_t line, const std::string& msg, const std::string& hint) {
    if (f != nullptr && line_suppressed(f->lex, check, line)) {
      return;
    }
    out.push_back({check, file, line, msg, hint});
  };

  std::map<std::string, std::pair<const FileIndex*, std::size_t>> used_metrics;
  std::map<std::string, std::pair<const FileIndex*, std::size_t>> used_events;
  static const std::set<std::string> kMetricCalls = {"counter", "gauge", "histogram"};
  for (const FileIndex* f : files) {
    if (is_test_path(f->path)) {
      continue;
    }
    const bool trace_def = f->path.find("telemetry/trace.") != std::string::npos;
    const std::vector<Tok>& toks = f->lex.toks;
    for (std::size_t i = 1; i + 2 < toks.size(); ++i) {
      if (toks[i].kind != Tok::Kind::Ident) {
        continue;
      }
      if (kMetricCalls.count(toks[i].text) &&
          (is_p(toks[i - 1], ".") || is_p(toks[i - 1], "->")) && is_p(toks[i + 1], "(") &&
          toks[i + 2].kind == Tok::Kind::Str) {
        const std::string key = metric_key(toks[i].text, toks[i + 2].text);
        if (!used_metrics.count(key)) {
          used_metrics.emplace(key, std::make_pair(f, toks[i + 2].line));
        }
      }
      if (!trace_def && toks[i].text == "EventKind" && is_p(toks[i + 1], "::") &&
          toks[i + 2].kind == Tok::Kind::Ident) {
        const std::string ev = snake_case(toks[i + 2].text);
        if (!used_events.count(ev)) {
          used_events.emplace(ev, std::make_pair(f, toks[i + 2].line));
        }
      }
    }
  }
  std::set<std::string> registered_metrics;
  if (registry.contains("metrics")) {
    for (const util::Json& m : registry.at("metrics").as_array()) {
      registered_metrics.insert(metric_key(m.at("kind").as_string(), m.at("name").as_string()));
    }
  }
  std::set<std::string> registered_events;
  if (registry.contains("trace_events")) {
    for (const util::Json& e : registry.at("trace_events").as_array()) {
      registered_events.insert(e.as_string());
    }
  }
  const std::string registry_path = kRegistryPath;
  for (const auto& [key, site] : used_metrics) {
    if (!registered_metrics.count(key)) {
      const std::size_t colon = key.find(':');
      emit(site.first, "drift-metric-name", site.first->path, site.second,
           key.substr(0, colon) + " '" + key.substr(colon + 1) +
               "' is emitted here but missing from the telemetry registry",
           "add it to " + registry_path + " (or fix the name)");
    }
  }
  for (const std::string& key : registered_metrics) {
    if (!used_metrics.count(key)) {
      const std::size_t colon = key.find(':');
      emit(nullptr, "drift-metric-name", registry_path, 1,
           key.substr(0, colon) + " '" + key.substr(colon + 1) +
               "' is registered but never emitted anywhere",
           "remove the stale entry from " + registry_path);
    }
  }
  for (const auto& [ev, site] : used_events) {
    if (!registered_events.count(ev)) {
      emit(site.first, "drift-trace-event", site.first->path, site.second,
           "trace event '" + ev + "' is used here but missing from the telemetry registry",
           "add it to " + registry_path + " (or fix the enumerator)");
    }
  }
  for (const std::string& ev : registered_events) {
    if (!used_events.count(ev)) {
      emit(nullptr, "drift-trace-event", registry_path, 1,
           "trace event '" + ev + "' is registered but never used anywhere",
           "remove the stale entry from " + registry_path);
    }
  }
  return out;
}

}  // namespace acclaim::lint
