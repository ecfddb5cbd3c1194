#include "serve/daemon.hpp"

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <istream>
#include <ostream>
#include <vector>

#include "serve/protocol.hpp"
#include "telemetry/metrics.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace acclaim::serve {

namespace {

util::Json decision_fields(const Decision& d) {
  util::Json fields = util::Json::object();
  fields["algorithm"] = coll::algorithm_info(d.algorithm).name;
  fields["cached"] = d.cache_hit;
  fields["version"] = d.version;
  return fields;
}

/// Cuts request lines out of a byte stream and answers them; both read
/// loops go through it. Only new bytes are searched for '\n'. A line longer
/// than kMaxLineBytes is answered once with an error naming the cap, and
/// the rest of it is dropped through the next '\n' without being stored, so
/// a client that never sends '\n' cannot grow the daemon's memory.
class LineReader {
 public:
  explicit LineReader(Daemon& daemon) : daemon_(daemon) {}

  /// Answers every request line that `data[0, n)` completes, in order,
  /// until a shutdown request has been handled. Returns one response line
  /// (without '\n') per request; empty lines get none.
  std::vector<std::string> feed(const char* data, std::size_t n) {
    std::vector<std::string> responses;
    while (n > 0 && !daemon_.shutdown_requested()) {
      const auto* nl = static_cast<const char*>(std::memchr(data, '\n', n));
      const std::size_t len = nl == nullptr ? n : static_cast<std::size_t>(nl - data);
      if (!dropping_ && line_.size() + len > kMaxLineBytes) {
        responses.push_back(error_response("request line exceeds the " +
                                           std::to_string(kMaxLineBytes) + "-byte cap"));
        line_.clear();
        dropping_ = true;
      }
      if (!dropping_) {
        line_.append(data, len);
      }
      if (nl == nullptr) {
        break;
      }
      if (!dropping_ && !line_.empty()) {
        responses.push_back(daemon_.handle_line(line_));
      }
      line_.clear();
      dropping_ = false;
      data = nl + 1;
      n -= len + 1;
    }
    return responses;
  }

 private:
  Daemon& daemon_;
  std::string line_;       ///< the current line so far, at most kMaxLineBytes
  bool dropping_ = false;  ///< inside an over-long line, discarding up to '\n'
};

}  // namespace

Daemon::Daemon(ServeCore& core, const std::string& model_dir) : core_(core) {
  if (model_dir.empty()) {
    return;
  }
  std::error_code ec;
  model_dir_ = std::filesystem::canonical(model_dir, ec);
  require(!ec && std::filesystem::is_directory(model_dir_, ec),
          "model directory '" + model_dir + "' is not an existing directory");
}

std::filesystem::path Daemon::model_file(const std::string& path) const {
  require(!model_dir_.empty(), "publish is disabled: the daemon has no --model-dir");
  const std::filesystem::path rel(path);
  require(rel.is_relative(), "publish path must be relative to the model directory");
  for (const std::filesystem::path& part : rel) {
    require(part != "..", "publish path must not leave the model directory");
  }
  std::error_code ec;
  const std::filesystem::path file = std::filesystem::canonical(model_dir_ / rel, ec);
  require(!ec, "publish path '" + path + "' names no file in the model directory");
  // A symlink inside the directory may point anywhere: the resolved file
  // must still lie under the (canonical) directory.
  const auto [dir_end, file_at] =
      std::mismatch(model_dir_.begin(), model_dir_.end(), file.begin(), file.end());
  require(dir_end == model_dir_.end() && file_at != file.end(),
          "publish path '" + path + "' resolves outside the model directory");
  return file;
}

std::string Daemon::handle_line(const std::string& line) {
  static telemetry::Counter& requests = telemetry::metrics().counter("serve.requests");
  static telemetry::Counter& parse_errors = telemetry::metrics().counter("serve.parse_errors");
  requests.add();
  try {
    const Request req = parse_request(line);
    switch (req.op) {
      case Op::Ping:
        return ok_response("ping", util::Json::object());
      case Op::Shutdown: {
        shutdown_ = true;
        return ok_response("shutdown", util::Json::object());
      }
      case Op::Stats: {
        const DecisionCache::Stats st = core_.cache_stats();
        util::Json fields = util::Json::object();
        fields["models"] = core_.store().size();
        fields["cache_hits"] = st.hits;
        fields["cache_misses"] = st.misses;
        fields["cache_evictions"] = st.evictions;
        fields["cache_entries"] = st.entries;
        fields["cache_capacity"] = st.capacity;
        return ok_response("stats", std::move(fields));
      }
      case Op::Query: {
        const Decision d = core_.select(req.queries.front(), req.topology);
        return ok_response("query", decision_fields(d));
      }
      case Op::Batch: {
        const std::vector<Decision> ds = core_.select_batch(req.queries, req.topology);
        util::Json results = util::Json::array();
        for (const Decision& d : ds) {
          results.push_back(decision_fields(d));
        }
        util::Json fields = util::Json::object();
        fields["results"] = std::move(results);
        return ok_response("batch", std::move(fields));
      }
      case Op::Publish: {
        const core::CollectiveModel model =
            core::CollectiveModel::from_json(util::Json::parse_file(model_file(req.path).string()));
        const ModelKey key{model.collective(), checked_comm_size(req.nodes, req.ppn),
                           req.topology};
        const std::uint64_t version = core_.publish(key, model);
        util::Json fields = util::Json::object();
        fields["key"] = key.to_string();
        fields["version"] = version;
        return ok_response("publish", std::move(fields));
      }
    }
    return error_response("unhandled op");
  } catch (const Error& e) {
    parse_errors.add();
    return error_response(e.what());
  } catch (const std::exception& e) {
    parse_errors.add();
    return error_response(std::string("internal error: ") + e.what());
  }
}

std::uint64_t Daemon::serve_stream(std::istream& in, std::ostream& out) {
  LineReader reader(*this);
  std::uint64_t handled = 0;
  auto answer = [&](const std::vector<std::string>& responses) {
    for (const std::string& response : responses) {
      out << response << "\n" << std::flush;
      ++handled;
    }
  };
  char chunk[4096];
  while (!shutdown_ && in) {
    // getline returns at a '\n' (consumed, not stored) or a full chunk, so a
    // request is answered as soon as its line is in.
    in.getline(chunk, sizeof(chunk));
    const auto n = static_cast<std::size_t>(in.gcount());
    if (in.good()) {
      chunk[n - 1] = '\n';  // hand the consumed '\n' to the reader
    } else if (n + 1 == sizeof(chunk)) {
      in.clear();  // the chunk filled up mid-line
    }
    answer(reader.feed(chunk, n));
  }
  answer(reader.feed("\n", 1));  // a last line that ended without '\n'
  return handled;
}

namespace {

/// RAII fd so early returns / exceptions cannot leak sockets.
class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  int get() const noexcept { return fd_; }

 private:
  int fd_;
};

sockaddr_un socket_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  require(path.size() < sizeof(addr.sun_path),
          "unix socket path too long (limit is ~107 chars)");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// Clears the way for bind() at `path`. A missing file is fine; a socket
/// file that nothing accepts on (a dead daemon's leftover) is unlinked.
/// Anything else is an error rather than collateral damage: a regular file
/// there is almost certainly a typo'd path, and a socket a peer accepts on
/// is a live daemon.
void claim_socket_path(const std::string& path, const sockaddr_un& addr) {
  struct stat st{};
  if (::lstat(path.c_str(), &st) != 0) {
    if (errno == ENOENT) {
      return;
    }
    throw IoError("cannot stat socket path " + path + ": " + std::strerror(errno));
  }
  if (!S_ISSOCK(st.st_mode)) {
    throw IoError("refusing to replace " + path + ": exists and is not a socket");
  }
  Fd probe(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (probe.get() >= 0 &&
      ::connect(probe.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) {
    throw IoError("another daemon is already listening on " + path);
  }
  ::unlink(path.c_str());
}

/// Sends all of `data` (blocking).
void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      throw IoError(std::string("socket send failed: ") + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

std::uint64_t Daemon::serve_unix_socket(const std::string& path) {
  Fd listener(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (listener.get() < 0) {
    throw IoError(std::string("cannot create unix socket: ") + std::strerror(errno));
  }
  const sockaddr_un addr = socket_address(path);
  claim_socket_path(path, addr);
  if (::bind(listener.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw IoError("cannot bind unix socket " + path + ": " + std::strerror(errno));
  }
  if (::listen(listener.get(), 16) != 0) {
    throw IoError("cannot listen on unix socket " + path + ": " + std::strerror(errno));
  }
  AC_LOG_INFO() << "acclaimd listening on " << path;

  std::uint64_t handled = 0;
  while (!shutdown_) {
    Fd conn(::accept(listener.get(), nullptr, nullptr));
    if (conn.get() < 0) {
      if (errno == EINTR) {
        continue;
      }
      ::unlink(path.c_str());
      throw IoError(std::string("accept failed: ") + std::strerror(errno));
    }
    // Serve this connection until the peer closes (or shutdown). Lines may
    // arrive split across reads; the reader holds the partial one.
    LineReader reader(*this);
    char chunk[4096];
    while (!shutdown_) {
      const ssize_t n = ::recv(conn.get(), chunk, sizeof(chunk), 0);
      if (n <= 0) {
        break;
      }
      for (const std::string& response : reader.feed(chunk, static_cast<std::size_t>(n))) {
        send_all(conn.get(), response + "\n");
        ++handled;
      }
    }
  }
  ::unlink(path.c_str());
  return handled;
}

std::string unix_socket_request(const std::string& path, const std::string& line) {
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (fd.get() < 0) {
    throw IoError(std::string("cannot create unix socket: ") + std::strerror(errno));
  }
  const sockaddr_un addr = socket_address(path);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw IoError("cannot connect to " + path + ": " + std::strerror(errno));
  }
  send_all(fd.get(), line + "\n");
  std::string response;
  char chunk[4096];
  while (response.find('\n') == std::string::npos) {
    const ssize_t n = ::recv(fd.get(), chunk, sizeof(chunk), 0);
    if (n <= 0) {
      throw IoError("daemon closed the connection before responding");
    }
    response.append(chunk, static_cast<std::size_t>(n));
  }
  return response.substr(0, response.find('\n'));
}

}  // namespace acclaim::serve
