// acclaim_lint check implementations over the semantic layer.
//
// Two entry points: run_file_checks() analyzes one indexed file (the token
// checks plus the taint-flow checks), and run_project_checks() runs the
// telemetry registry drift pass, which needs the whole file set at once.
// collect_tainted_fields() is the project-wide taint propagation fixpoint
// feeding the per-file taint pass.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "lint/lint.hpp"
#include "lint/sema.hpp"
#include "util/json.hpp"

namespace acclaim::lint {

/// Per-file analysis. `decls` is the merged declaration table (companion
/// header + project includes + the file itself); `tainted_fields` are
/// struct member names assigned from untrusted parses anywhere in the
/// project (see collect_tainted_fields).
std::vector<Finding> run_file_checks(const FileIndex& file, const DeclMap& decls,
                                     const std::set<std::string>& tainted_fields);

/// Fixpoint over all files in the taint layers: a field is tainted when it
/// is assigned (or push_back'ed) a value derived from a raw parse or from
/// another tainted field, outside checked_*/parse_*/validate* functions.
std::set<std::string> collect_tainted_fields(const std::vector<const FileIndex*>& files);

/// Project-wide pass: drift-metric-name / drift-trace-event against the
/// telemetry registry document (a null `registry` disables both).
std::vector<Finding> run_project_checks(const std::vector<const FileIndex*>& files,
                                        const util::Json& registry);

}  // namespace acclaim::lint
