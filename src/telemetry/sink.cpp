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
  const auto where = [&] { return path + ":" + std::to_string(lineno) + ": "; };
  while (std::getline(in, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    }
    util::Json doc;
    try {
      doc = util::Json::parse(line);
    } catch (const ParseError& e) {
      // The parser counts lines within this one line; its column stands.
      throw ParseError(where() + e.detail(), lineno, e.column());
    }
    try {
      on_record(doc);
    } catch (const Error& e) {
      throw ParseError(where() + e.what(), lineno, 1);
    }
  }
}

}  // namespace acclaim::telemetry
