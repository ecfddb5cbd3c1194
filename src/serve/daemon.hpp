// acclaimd transport: the NDJSON request loop over stdio or a unix socket.
//
// The daemon is deliberately boring: it reads lines, hands each to
// handle_line() (parse -> dispatch to ServeCore -> serialize), and writes
// one response line. Model evaluation never happens on the accept path
// without a resolved snapshot, and a malformed line yields an error
// response, not a dropped connection. Batch requests are the concurrency
// mechanism: a client that wants parallelism ships {"op":"batch",...} and
// the serving core fans the misses out on the global thread pool.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <string>

#include "serve/serve_core.hpp"

namespace acclaim::serve {

class Daemon {
 public:
  /// `model_dir` is the one directory a `publish` request may read model
  /// files from: its `path` must be relative, must not step out with `..`,
  /// and must not resolve through a symlink to a file outside it. Without a
  /// directory (empty), every `publish` is refused. Throws InvalidArgument
  /// when `model_dir` is not empty and names no existing directory.
  explicit Daemon(ServeCore& core, const std::string& model_dir = {});

  /// Handles one request line, returning the response line (no trailing
  /// newline). Never throws on bad input — the error becomes the response.
  std::string handle_line(const std::string& line);

  /// Serves `in` until EOF or a shutdown request; one response per line on
  /// `out`, flushed per response. A line longer than kMaxLineBytes gets one
  /// error response and is discarded. Returns the number of requests handled.
  std::uint64_t serve_stream(std::istream& in, std::ostream& out);

  /// Binds a unix domain socket at `path` (replacing a stale file), then
  /// accepts connections one at a time, serving each until the peer closes,
  /// with the same line cap as serve_stream. Returns (and unlinks the
  /// socket) after a shutdown request. Throws IoError on socket setup
  /// failures.
  std::uint64_t serve_unix_socket(const std::string& path);

  /// True once a shutdown request has been handled.
  bool shutdown_requested() const noexcept { return shutdown_; }

 private:
  /// The model file a publish request names, resolved inside model_dir_.
  /// Throws InvalidArgument for any path publish refuses.
  std::filesystem::path model_file(const std::string& path) const;

  ServeCore& core_;
  std::filesystem::path model_dir_;  ///< canonical; empty: publish is refused
  bool shutdown_ = false;
};

/// Client side: connects to the daemon's unix socket, sends one request
/// line, and returns the response line. Throws IoError on connect/IO
/// failure or a closed connection.
std::string unix_socket_request(const std::string& path, const std::string& line);

}  // namespace acclaim::serve
