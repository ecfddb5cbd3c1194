// Unit tests for the JSON reader/writer used by the MPICH-style selection
// configuration files.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "util/error.hpp"
#include "util/json.hpp"

namespace {

using acclaim::util::Json;
using acclaim::util::JsonObject;

TEST(Json, ScalarsRoundTrip) {
  EXPECT_EQ(Json::parse("null").dump(), "null");
  EXPECT_EQ(Json::parse("true").dump(), "true");
  EXPECT_EQ(Json::parse("false").dump(), "false");
  EXPECT_EQ(Json::parse("42").dump(), "42");
  EXPECT_EQ(Json::parse("-7").dump(), "-7");
  EXPECT_EQ(Json::parse("2.5").dump(), "2.5");
  EXPECT_EQ(Json::parse("\"hi\"").dump(), "\"hi\"");
}

TEST(Json, NumbersParseExactly) {
  EXPECT_DOUBLE_EQ(Json::parse("1e3").as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(Json::parse("-2.5E-2").as_number(), -0.025);
  EXPECT_EQ(Json::parse("1048576").as_int(), 1048576);
  EXPECT_THROW(Json::parse("2.5").as_int(), acclaim::InvalidArgument);
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  Json j = Json::object();
  j["zeta"] = 1;
  j["alpha"] = 2;
  j["mid"] = 3;
  EXPECT_EQ(j.dump(), "{\"zeta\":1,\"alpha\":2,\"mid\":3}");
}

TEST(Json, NestedStructureRoundTrip) {
  const std::string text = R"({
    "collective": "bcast",
    "rules": [
      {"msg_size_le": 32, "algorithm": "binomial"},
      {"msg_size_le": 1048576, "algorithm": "scatter_ring_allgather"}
    ],
    "complete": true
  })";
  const Json j = Json::parse(text);
  EXPECT_EQ(j.at("collective").as_string(), "bcast");
  ASSERT_TRUE(j.at("rules").is_array());
  ASSERT_EQ(j.at("rules").as_array().size(), 2u);
  EXPECT_EQ(j.at("rules").as_array()[0].at("msg_size_le").as_int(), 32);
  EXPECT_TRUE(j.at("complete").as_bool());
  // Re-parse of the dump equals the original document.
  EXPECT_TRUE(Json::parse(j.dump(2)) == j);
  EXPECT_TRUE(Json::parse(j.dump(0)) == j);
}

TEST(Json, StringEscapes) {
  const Json j = Json::parse(R"("a\"b\\c\nd\teA")");
  EXPECT_EQ(j.as_string(), "a\"b\\c\nd\teA");
  EXPECT_TRUE(Json::parse(j.dump()) == j);
}

TEST(Json, UnicodeEscapesEncodeUtf8) {
  EXPECT_EQ(Json::parse(R"("é")").as_string(), "\xc3\xa9");
  EXPECT_EQ(Json::parse(R"("€")").as_string(), "\xe2\x82\xac");
}

TEST(Json, ParseErrorsCarryPosition) {
  try {
    Json::parse("{\"a\": }");
    FAIL() << "expected ParseError";
  } catch (const acclaim::ParseError& e) {
    EXPECT_EQ(e.line(), 1u);
    EXPECT_GT(e.column(), 1u);
  }
  EXPECT_THROW(Json::parse(""), acclaim::ParseError);
  EXPECT_THROW(Json::parse("[1, 2"), acclaim::ParseError);
  EXPECT_THROW(Json::parse("{\"a\":1} extra"), acclaim::ParseError);
  EXPECT_THROW(Json::parse("nul"), acclaim::ParseError);
  EXPECT_THROW(Json::parse("01a"), acclaim::ParseError);
}

TEST(Json, MalformedAndOutOfRangeNumbersAreParseErrors) {
  // What std::stod rejects or cannot hold surfaces as a ParseError naming
  // the token, never as a std:: exception.
  for (const char* text : {"1e999", "-1e999", "-", "1e", "1.2.3", "--1"}) {
    try {
      Json::parse(text);
      ADD_FAILURE() << text << " parsed";
    } catch (const acclaim::ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("invalid number"), std::string::npos) << text;
    }
  }
}

// Regression: a token of number characters went to std::stod as it was, so
// `-.5`, `01` and `1.` parsed although the JSON grammar has none of them.
TEST(Json, NumbersFollowTheJsonGrammar) {
  for (const std::string text : {"-.5", "01", "-01", "1.", "1e", "1e+", "-"}) {
    try {
      Json::parse(text);
      ADD_FAILURE() << text << " parsed";
    } catch (const acclaim::ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("invalid number '" + text + "'"), std::string::npos)
          << e.what();
    }
  }
  for (const char* text : {"0", "-0", "0.5", "-1.5e-3", "1E+2", "1.0000000000000001e-05"}) {
    EXPECT_EQ(Json::parse(text).as_number(), std::strtod(text, nullptr)) << text;
  }
  EXPECT_TRUE(std::signbit(Json::parse("-0").as_number()));
}

// Regression: every character but { [ " t f n went to the number parser,
// so `a` was reported as `invalid number ''`, and std::stod let `+1` and
// `.5` through although JSON has neither.
TEST(Json, AValueStartingWithAnotherCharacterIsNamed) {
  for (const std::string text : {"a", "+1", ".5", "inf"}) {
    try {
      Json::parse(text);
      ADD_FAILURE() << text << " parsed";
    } catch (const acclaim::ParseError& e) {
      const std::string want = std::string("unexpected character '") + text[0] + "'";
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos) << e.what();
    }
  }
}

TEST(Json, TypeMismatchThrows) {
  const Json j = Json::parse("[1,2,3]");
  EXPECT_THROW(j.as_object(), acclaim::InvalidArgument);
  EXPECT_THROW(j.as_string(), acclaim::InvalidArgument);
  EXPECT_THROW(j.at("key"), acclaim::InvalidArgument);
  const Json o = Json::parse("{\"k\": 1}");
  EXPECT_THROW(o.at("missing"), acclaim::NotFoundError);
  EXPECT_TRUE(o.contains("k"));
  EXPECT_FALSE(o.contains("missing"));
}

TEST(Json, FileRoundTrip) {
  const std::string path = std::filesystem::temp_directory_path() / "acclaim_json_test.json";
  Json j = Json::object();
  j["alg"] = "ring";
  j["sizes"] = Json::array();
  j["sizes"].push_back(1);
  j["sizes"].push_back(1024);
  j.dump_file(path);
  const Json back = Json::parse_file(path);
  EXPECT_TRUE(back == j);
  std::remove(path.c_str());
  EXPECT_THROW(Json::parse_file("/nonexistent/path.json"), acclaim::IoError);
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(Json::parse("[]").dump(2), "[]");
  EXPECT_EQ(Json::parse("{}").dump(2), "{}");
  EXPECT_TRUE(Json::parse("[]").as_array().empty());
}

TEST(Json, IndentedDumpIsStable) {
  Json j = Json::object();
  j["a"] = Json::array();
  j["a"].push_back(Json::parse("{\"x\": 1}"));
  const std::string expected =
      "{\n  \"a\": [\n    {\n      \"x\": 1\n    }\n  ]\n}";
  EXPECT_EQ(j.dump(2), expected);
}

TEST(JsonObject, AtMutatesInPlace) {
  JsonObject o;
  o["k"] = 1;
  o.at("k") = 2;
  EXPECT_EQ(o.at("k").as_int(), 2);
  EXPECT_EQ(o.size(), 1u);
}

}  // namespace
