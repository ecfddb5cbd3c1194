#include "telemetry/sink.hpp"

namespace acclaim::telemetry {

void read_json_lines(const std::string& path,
                     const std::function<void(const util::Json&)>& on_record) {
  std::ifstream in(path);
  if (!in) {
    throw IoError("cannot open '" + path + "' for reading");
  }
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    }
    try {
      on_record(util::Json::parse(line));
    } catch (const Error& e) {
      throw ParseError(path + ":" + std::to_string(lineno) + ": " + e.what(), lineno, 1);
    }
  }
}

}  // namespace acclaim::telemetry
