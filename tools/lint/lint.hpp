// acclaim_lint — project-specific determinism & correctness static analysis.
//
// The repo's headline engineering property is bitwise-identical results for
// any --threads. That invariant is enforced dynamically by the golden
// fingerprints in tests/test_determinism.cpp; this linter enforces the coding
// rules behind it *statically*, before anything runs, together with the
// input checks of the untrusted layers and the telemetry registry contract:
//
//   det-rand              no libc/<random> randomness in deterministic layers
//   det-wallclock         no wall-clock reads in deterministic layers
//   det-rng-ref-capture   no by-ref Rng crossing a parallel_for/submit boundary
//   det-unordered-iter    no iteration over unordered containers
//   det-audit-order       no audit-log emission inside parallel lambdas
//   par-shared-write      no non-atomic shared writes in parallel lambdas
//   par-float-reduction   no +=/-= float reductions in parallel lambdas
//   taint-unchecked-arith untrusted parse reaches arithmetic / alloc size
//   taint-narrowing-cast  untrusted parse narrows without a range check
//   drift-metric-name     metric names out of sync with the telemetry registry
//   drift-trace-event     EventKind uses out of sync with the registry
//
// The checks run on a semantic layer (lexer.hpp + sema.hpp: scoped token
// tree, declaration tables, include graph) — enough to tell `rngs[i]` (a
// pre-derived per-item stream, fine) from `rng.uniform()` (a shared
// generator crossing a thread boundary, a determinism bug). It is
// deliberately not a full C++ front end: findings err toward silence, and
// intentional exceptions carry an inline
//     // acclaim-lint: allow(<check-id>)  <reason>
// suppression, which covers its own line and the next.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace acclaim::lint {

/// Repo-relative path of the telemetry registry the drift checks compare
/// against; registry-side findings (unused entries) are reported there.
inline constexpr const char* kRegistryPath = "tools/telemetry_registry.json";

/// One rule violation at a source location.
struct Finding {
  std::string check;
  std::string file;
  std::size_t line = 0;
  std::string message;
  /// Optional fix-it guidance ("use std::map"); shown in the report when
  /// non-empty.
  std::string hint;
};

/// One in-memory source file. `path` is repo-relative: it selects the
/// layer rules (src/core/ is deterministic, src/serve/ untrusted, ...).
struct SourceFile {
  std::string path;
  std::string content;
};

/// Lints `files` as one project: every distinct path is lexed and indexed
/// once (headers are shared with their includers through the include graph
/// rather than re-tokenized), and the project-wide passes (taint field
/// propagation, drift) see the whole file set. `registry` is the telemetry
/// registry document; null disables the drift checks. Findings come back
/// sorted by (file, line, check, message).
std::vector<Finding> lint_files(const std::vector<SourceFile>& files,
                                const util::Json& registry);

}  // namespace acclaim::lint
