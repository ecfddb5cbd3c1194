// The one ring-and-stream sink behind the Tracer and the AuditLog.
//
// A RecordSink<Record> owns a lock, an enabled flag, a bounded in-memory
// ring of the newest records, a JSON-lines stream and a record count.
// Recording is off until enable_ring(n) or open_stream(path) turns a
// destination on; the two are independent. Emission sites check enabled()
// before building a record, so the disabled path is one relaxed atomic load.
// `Record` provides `util::Json to_json() const`; each stream line is its
// compact dump.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/json.hpp"

namespace acclaim::telemetry {

template <class Record>
class RecordSink {
 public:
  RecordSink(const RecordSink&) = delete;
  RecordSink& operator=(const RecordSink&) = delete;

  bool enabled() const noexcept { return enabled_.load(std::memory_order_relaxed); }

  /// Keeps the most recent `capacity` records in memory; throws
  /// InvalidArgument when `capacity` is 0.
  void enable_ring(std::size_t capacity = 1 << 16) {
    require(capacity >= 1, std::string(what_) + " ring capacity must be >= 1");
    std::lock_guard lock(mu_);
    capacity_ = capacity;
    ring_.clear();
    ring_.reserve(std::min<std::size_t>(capacity, 1024));
    next_ = 0;
    dropped_ = 0;
    enabled_.store(true, std::memory_order_relaxed);
  }

  /// Streams every subsequent record as one JSON line; truncates `path`.
  /// Throws IoError if the file cannot be opened.
  void open_stream(const std::string& path) {
    std::lock_guard lock(mu_);
    stream_.close();
    stream_.clear();
    stream_.open(path, std::ios::out | std::ios::trunc);
    if (!stream_) {
      enabled_.store(capacity_ > 0, std::memory_order_relaxed);
      throw IoError("cannot open " + std::string(what_) + " stream '" + path + "' for writing");
    }
    enabled_.store(true, std::memory_order_relaxed);
  }

  /// Flushes and closes the stream (ring recording, if on, continues).
  void close_stream() {
    std::lock_guard lock(mu_);
    stream_.close();
    enabled_.store(capacity_ > 0, std::memory_order_relaxed);
  }

  /// Stops recording, closes the stream, discards the ring and zeroes the
  /// counts (so two identically-seeded runs record identical streams).
  void disable() {
    std::lock_guard lock(mu_);
    enabled_.store(false, std::memory_order_relaxed);
    stream_.close();
    capacity_ = 0;
    ring_.clear();
    next_ = 0;
    dropped_ = 0;
    recorded_ = 0;
  }

  /// Ring contents, oldest first. Empty when the ring is off.
  std::vector<Record> ring_snapshot() const {
    std::lock_guard lock(mu_);
    std::vector<Record> out;
    out.reserve(ring_.size());
    // Once the ring has wrapped, next_ is the oldest slot.
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(next_ + i) % ring_.size()]);
    }
    return out;
  }

  /// Records evicted from the ring since enable_ring.
  std::uint64_t ring_dropped() const {
    std::lock_guard lock(mu_);
    return dropped_;
  }

  /// Records delivered since construction or the last disable().
  std::uint64_t recorded() const {
    std::lock_guard lock(mu_);
    return recorded_;
  }

 protected:
  /// `what` names the sink in error messages ("trace", "audit").
  explicit RecordSink(const char* what) : what_(what) {}
  ~RecordSink() = default;

  /// Under the lock, calls stamp(rec, n) with n the number of records
  /// delivered before this one, then hands `rec` to every active
  /// destination. A no-op while disabled.
  template <class Stamp>
  void deliver(Record rec, Stamp&& stamp) {
    if (!enabled()) {
      return;
    }
    std::lock_guard lock(mu_);
    if (!enabled()) {
      return;  // raced with disable() or close_stream()
    }
    stamp(rec, recorded_++);
    if (stream_.is_open()) {
      stream_ << rec.to_json().dump() << '\n';
    }
    if (capacity_ == 0) {
      return;
    }
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(rec));
    } else {
      ring_[next_] = std::move(rec);
      next_ = (next_ + 1) % capacity_;
      ++dropped_;
    }
  }

 private:
  const char* what_;
  mutable std::mutex mu_;
  std::atomic<bool> enabled_{false};
  std::size_t capacity_ = 0;  ///< 0 = ring off
  std::vector<Record> ring_;  ///< circular once full
  std::size_t next_ = 0;      ///< ring write position
  std::uint64_t dropped_ = 0;
  std::uint64_t recorded_ = 0;
  std::ofstream stream_;
};

/// Calls `on_record` with each non-blank line of the JSON-lines file at
/// `path`, parsed, in file order. Throws IoError when the file cannot be
/// opened, and a ParseError naming `path:line` when a line is not JSON (at
/// the parser's column on that line) or `on_record` rejects it with an
/// acclaim::Error (at column 1).
void read_json_lines(const std::string& path,
                     const std::function<void(const util::Json&)>& on_record);

}  // namespace acclaim::telemetry
