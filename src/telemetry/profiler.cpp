#include "telemetry/profiler.hpp"

#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace acclaim::telemetry {

namespace {

/// The calling thread's current attribution path ("a;b;c"). A plain string
/// (not a vector) keeps the hot push/pop to an append + truncate.
thread_local std::string t_path;

}  // namespace

Profiler& Profiler::global() {
  static Profiler p;
  return p;
}

void Profiler::enable() {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_.store(true, std::memory_order_relaxed);
}

void Profiler::disable() {
  std::lock_guard<std::mutex> lock(mu_);
  nodes_.clear();
  enabled_.store(false, std::memory_order_relaxed);
}

void Profiler::record(const std::string& path, std::uint64_t wall_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_.load(std::memory_order_relaxed)) {
    return;
  }
  Node& node = nodes_[path];
  ++node.count;
  node.total_ns += wall_ns;
}

std::map<std::string, Profiler::Node> Profiler::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return nodes_;
}

std::string Profiler::folded() const {
  const std::map<std::string, Node> nodes = snapshot();
  // Self time = inclusive time minus the inclusive time of direct children.
  // Children of "a;b" are paths "a;b;<leaf>" with no further ';'.
  std::ostringstream os;
  for (const auto& [path, node] : nodes) {
    std::uint64_t children_ns = 0;
    const std::string prefix = path + ";";
    for (auto it = nodes.upper_bound(path); it != nodes.end(); ++it) {
      if (it->first.rfind(prefix, 0) != 0) {
        break;
      }
      if (it->first.find(';', prefix.size()) == std::string::npos) {
        children_ns += it->second.total_ns;
      }
    }
    // Concurrent children (parallel_for workers attributing under the same
    // parent) can sum past the parent's inclusive time; clamp at zero.
    const std::uint64_t self_ns =
        node.total_ns > children_ns ? node.total_ns - children_ns : 0;
    const std::uint64_t self_us = self_ns / 1000;
    if (self_us > 0) {
      os << path << " " << self_us << "\n";
    }
  }
  return os.str();
}

void Profiler::write_folded(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw IoError("cannot open profile output: " + path);
  }
  out << folded();
  if (!out) {
    throw IoError("failed writing profile output: " + path);
  }
}

Span::Span(const char* label) : active_(profiler().enabled()) {
  if (active_) {
    restore_len_ = t_path.size();
    if (!t_path.empty()) {
      t_path += ';';
    }
    t_path += label;
  }
  start_ = std::chrono::steady_clock::now();
}

Span::~Span() {
  if (!active_) {
    return;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  profiler().record(
      t_path,
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
  t_path.resize(restore_len_);
}

}  // namespace acclaim::telemetry
