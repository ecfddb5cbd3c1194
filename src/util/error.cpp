#include "util/error.hpp"

namespace acclaim {

ParseError::ParseError(const std::string& detail, std::size_t line, std::size_t col)
    : Error(detail + " (line " + std::to_string(line) + ", column " + std::to_string(col) + ")"),
      detail_(detail),
      line_(line),
      col_(col) {}

void require(bool cond, const std::string& msg) {
  if (!cond) {
    throw InvalidArgument(msg);
  }
}

}  // namespace acclaim
