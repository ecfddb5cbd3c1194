#include "lint/lint.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "lint/checks.hpp"
#include "lint/sema.hpp"

namespace acclaim::lint {

namespace {

std::string companion_path_of(const std::string& path) {
  const std::size_t dot = path.rfind('.');
  return dot == std::string::npos ? "" : path.substr(0, dot);
}

std::string dirname_of(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? "" : path.substr(0, slash + 1);
}

}  // namespace

std::vector<Finding> lint_files(const std::vector<SourceFile>& files,
                                const util::Json& registry) {
  // One index per distinct path, in path order whatever the caller passed:
  // headers reached through several includers are indexed once.
  std::map<std::string, FileIndex> by_path;
  for (const SourceFile& f : files) {
    if (by_path.find(f.path) == by_path.end()) {
      by_path.emplace(f.path, build_file_index(f.path, f.content));
    }
  }
  std::vector<const FileIndex*> all;
  all.reserve(by_path.size());
  for (const auto& [path, idx] : by_path) {
    all.push_back(&idx);
  }

  auto find = [&](const std::string& path) -> const FileIndex* {
    const auto it = by_path.find(path);
    return it == by_path.end() ? nullptr : &it->second;
  };
  auto resolve_include = [&](const std::string& from, const std::string& inc)
      -> const FileIndex* {
    for (const std::string& cand :
         {inc, "src/" + inc, "tools/" + inc, dirname_of(from) + inc, "bench/" + inc,
          "tests/" + inc}) {
      if (const FileIndex* dep = find(cand)) {
        return dep;
      }
    }
    return nullptr;
  };
  // Merged declaration table of one file: companion header first, then the
  // file's quoted includes (resolved against the scanned set), then the file
  // itself; the first declaration of a name wins.
  auto merged_decls = [&](const FileIndex& idx) {
    DeclMap out;
    const std::string stem = companion_path_of(idx.path);
    if (!stem.empty()) {
      for (const char* ext : {".hpp", ".h"}) {
        const FileIndex* header = find(stem + ext);
        if (header != nullptr && header != &idx) {
          out.insert(header->decls.begin(), header->decls.end());
          break;
        }
      }
    }
    for (const std::string& inc : idx.lex.includes) {
      const FileIndex* dep = resolve_include(idx.path, inc);
      if (dep != nullptr && dep != &idx) {
        out.insert(dep->decls.begin(), dep->decls.end());
      }
    }
    out.insert(idx.decls.begin(), idx.decls.end());
    return out;
  };

  const std::set<std::string> tainted = collect_tainted_fields(all);
  std::vector<Finding> findings;
  for (const FileIndex* idx : all) {
    const std::vector<Finding> file = run_file_checks(*idx, merged_decls(*idx), tainted);
    findings.insert(findings.end(), file.begin(), file.end());
  }
  const std::vector<Finding> project = run_project_checks(all, registry);
  findings.insert(findings.end(), project.begin(), project.end());
  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.check, a.message) <
           std::tie(b.file, b.line, b.check, b.message);
  });
  return findings;
}

}  // namespace acclaim::lint
