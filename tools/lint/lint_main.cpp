// acclaim_lint CLI — scans the repo's own sources for determinism and
// correctness rule violations (see lint.hpp for the checks).
//
// usage: acclaim_lint [--root DIR]
//
// Scans src/ tools/ tests/ bench/ examples/ under DIR (default: .), always
// all five: the drift checks compare the whole tree against
// tools/telemetry_registry.json, so a partial scan would report every
// metric it did not see as unused.
//
// Exit codes: 0 clean, 1 any finding, 2 usage or I/O error.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lint.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace fs = std::filesystem;
using namespace acclaim;

namespace {

bool lintable_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc" || ext == ".cxx";
}

bool skip_dir(const fs::path& p) {
  const std::string name = p.filename().string();
  return name == ".git" || name.rfind("build", 0) == 0;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) {
    throw IoError("cannot read " + p.string());
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Appends every lintable file under root/dir, named by its root-relative
/// path.
void collect_files(const fs::path& root, const std::string& dir,
                   std::vector<lint::SourceFile>& out) {
  const fs::path abs = root / dir;
  if (!fs::is_directory(abs)) {
    throw IoError("lint directory does not exist: " + abs.string());
  }
  for (fs::recursive_directory_iterator it(abs), end; it != end; ++it) {
    if (it->is_directory() && skip_dir(it->path())) {
      it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file() && lintable_extension(it->path())) {
      out.push_back({fs::relative(it->path(), root).generic_string(), read_file(it->path())});
    }
  }
}

/// A util::TablePrinter table of the findings plus a summary line.
void render_report(std::ostream& os, const std::vector<lint::Finding>& findings,
                   std::size_t files_scanned) {
  if (!findings.empty()) {
    util::TablePrinter table({"check", "location", "message"});
    for (const lint::Finding& f : findings) {
      std::string msg = f.message;
      if (!f.hint.empty()) {
        msg += " [fix: " + f.hint + "]";
      }
      table.add_row({f.check, f.file + ":" + std::to_string(f.line), msg});
    }
    table.print(os);
  }
  os << "acclaim-lint: " << findings.size() << " finding(s), " << files_scanned
     << " file(s) scanned\n";
}

int run(int argc, char** argv) {
  fs::path root = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else {
      throw InvalidArgument("unexpected argument '" + arg + "'; usage: acclaim_lint [--root DIR]");
    }
  }

  std::vector<lint::SourceFile> sources;
  for (const char* dir : {"src", "tools", "tests", "bench", "examples"}) {
    collect_files(root, dir, sources);
  }
  util::Json registry;
  if (fs::exists(root / lint::kRegistryPath)) {
    registry = util::Json::parse_file((root / lint::kRegistryPath).string());
  }
  const std::vector<lint::Finding> findings = lint::lint_files(sources, registry);
  render_report(std::cout, findings, sources.size());
  return findings.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "acclaim-lint: " << e.what() << "\n";
    return 2;
  }
}
