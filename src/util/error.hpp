// Error types shared across the ACCLAiM libraries.
//
// We follow the C++ Core Guidelines (E.14): throw purpose-designed,
// exception-hierarchy types rather than raw std::runtime_error so callers
// can discriminate failure classes.
#pragma once

#include <stdexcept>
#include <string>

namespace acclaim {

/// Base class for all ACCLAiM errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A caller violated an API precondition (bad argument, bad state).
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// Parsing of an external artifact (JSON config, dataset file) failed.
/// what() is `detail` followed by " (line L, column C)".
class ParseError : public Error {
 public:
  ParseError(const std::string& detail, std::size_t line, std::size_t col);
  std::size_t line() const noexcept { return line_; }
  std::size_t column() const noexcept { return col_; }
  /// The message without its location.
  const std::string& detail() const noexcept { return detail_; }

 private:
  std::string detail_;
  std::size_t line_;
  std::size_t col_;
};

/// I/O failure (missing file, unwritable path).
class IoError : public Error {
 public:
  explicit IoError(const std::string& what) : Error(what) {}
};

/// A lookup into a dataset or registry found no entry.
class NotFoundError : public Error {
 public:
  explicit NotFoundError(const std::string& what) : Error(what) {}
};

/// Throw InvalidArgument if `cond` is false. `msg` should name the violated
/// precondition from the caller's perspective.
void require(bool cond, const std::string& msg);

/// Literal-message overload: avoids constructing a std::string on the
/// passing path (require() sits on simulator hot paths).
inline void require(bool cond, const char* msg) {
  if (!cond) {
    throw InvalidArgument(msg);
  }
}

}  // namespace acclaim
