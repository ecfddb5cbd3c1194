// acclaimd wire protocol: newline-delimited JSON requests and responses.
//
// One request per line, one response line per request, in order. The daemon
// serves the protocol over stdin/stdout or a unix domain socket file
// (serve/daemon.hpp); `acclaim query` speaks the client side.
//
// Requests ("op" selects the operation):
//   {"op":"ping"}
//   {"op":"query","collective":"bcast","nodes":4,"ppn":8,"msg":4096
//                [,"topology":"theta"]}
//   {"op":"batch","queries":[{query-fields...},...]}      (one response line,
//                                                          "results" array)
//   {"op":"publish","path":"model.json"[,"nodes":N,"ppn":P,"topology":T]}
//   {"op":"stats"}
//   {"op":"shutdown"}
//
// Responses always carry "ok". Success: {"ok":true,"op":...,...}; failure:
// {"ok":false,"error":"one-line reason"}. Malformed input of any kind —
// broken JSON, wrong types, unknown ops, out-of-range values — produces an
// error *response*, never a crash or a dropped connection: every field is
// range-checked here before it reaches the serving core (this is the
// untrusted-input surface the PR's parsing bugfixes harden).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "benchdata/point.hpp"
#include "util/json.hpp"

namespace acclaim::serve {

enum class Op { Ping, Query, Batch, Publish, Stats, Shutdown };

/// One parsed request. Only the fields of the active op are meaningful.
struct Request {
  Op op = Op::Ping;
  /// Query: the scenario to select for; Batch: all of them.
  std::vector<bench::Scenario> queries;
  std::string topology = "default";
  /// Publish: model JSON path and the key scale (0 = wildcard).
  std::string path;
  int nodes = 0;
  int ppn = 0;
};

/// Upper bounds on untrusted numeric fields. Generous compared to any real
/// machine, tight enough that a hostile request cannot drive a
/// multi-gigabyte allocation. `nodes` and `ppn` are additionally bounded
/// jointly: kMaxNodes x kMaxPpn alone would be 2^38 (> INT_MAX), so every
/// comm size must come through checked_comm_size(), which enforces kMaxRanks
/// and keeps nnodes*ppn int-safe downstream (Scenario::nranks,
/// ModelKey::comm_size).
inline constexpr std::int64_t kMaxNodes = 1 << 22;
inline constexpr std::int64_t kMaxPpn = 1 << 16;
inline constexpr std::int64_t kMaxRanks = std::int64_t{1} << 28;
inline constexpr std::size_t kMaxBatch = 1 << 16;
/// Longest request line the daemon reads, in bytes. The largest legal
/// compact batch (kMaxBatch queries of at most 90 bytes each plus a
/// 256-char topology) is about 5.9 MB; a longer line is answered with an
/// error and discarded instead of buffered.
inline constexpr std::size_t kMaxLineBytes = std::size_t{8} << 20;

/// nodes x ppn computed in 64-bit and checked against kMaxRanks; throws
/// InvalidArgument when the product exceeds the cap. The one sanctioned way
/// to turn a (nodes, ppn) pair into a comm size.
int checked_comm_size(std::int64_t nodes, std::int64_t ppn);

/// Parses one NDJSON request line. Throws ParseError (malformed JSON) or
/// InvalidArgument (schema/range violations) with a one-line message; the
/// daemon turns either into an error response.
Request parse_request(const std::string& line);

/// Serializes a request (client side of `acclaim query`).
util::Json request_to_json(const Request& req);

/// {"ok":false,"error":msg} as a compact single line.
std::string error_response(const std::string& msg);

/// {"ok":true,"op":name,...fields} serialized compactly. `fields` must be an
/// object; its entries are appended after "op".
std::string ok_response(const std::string& op, util::Json fields);

const char* op_name(Op op);

}  // namespace acclaim::serve
