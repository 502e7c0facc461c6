// Malformed-input battery for the obs JSON parser under ParseLimits — the
// coordination service parses attacker-controlled request lines with this
// parser, so every failure mode here must be a clean ContractViolation, not
// a stack overflow, an OOM, or a silently-wrong document.
#include <cstdint>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "util/check.h"

namespace cil::obs {
namespace {

Json parse_untrusted(const std::string& text) {
  return Json::parse(text, ParseLimits::untrusted());
}

TEST(JsonHardeningTest, TruncatedDocumentsThrow) {
  const char* cases[] = {
      "",           "{",       "[",          "\"abc",      "{\"a\"",
      "{\"a\":",    "{\"a\":1", "[1,2",      "[1,2,",      "tru",
      "nul",        "-",       "1e",         "1.",         "{\"a\":1,",
      "\"\\u00",    "\"\\",    "{\"a\":{\"b\":1}",
  };
  for (const char* c : cases)
    EXPECT_THROW((void)parse_untrusted(c), ContractViolation) << c;
}

TEST(JsonHardeningTest, NonFiniteNumbersRejected) {
  // The literals are not JSON at all; the overflowing exponent parses as a
  // number but lands on infinity, which has no JSON representation either.
  const char* cases[] = {"NaN",    "Infinity", "-Infinity", "nan",
                         "1e999",  "-1e999",   "[1e400]",   "{\"a\":1e309}"};
  for (const char* c : cases)
    EXPECT_THROW((void)parse_untrusted(c), ContractViolation) << c;
}

TEST(JsonHardeningTest, AsIntRejectsNumbersOutsideInt64) {
  // A hostile num_runs or bin count: the range check must come before the
  // double -> int64 cast, which is undefined behaviour out of range.
  for (const char* c : {"1e300", "-1e300", "-1e19", "9223372036854775808"})
    EXPECT_THROW((void)parse_untrusted(c).as_int(), ContractViolation) << c;
  EXPECT_THROW((void)parse_untrusted("2.5").as_int(), ContractViolation);
  // The edges that do fit: -2^63 exactly, and the largest double below 2^63.
  EXPECT_EQ(parse_untrusted("-9223372036854775808").as_int(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(parse_untrusted("9223372036854774784").as_int(),
            9223372036854774784LL);
  EXPECT_EQ(parse_untrusted("-42").as_int(), -42);
}

TEST(JsonHardeningTest, DuplicateObjectKeysRejected) {
  EXPECT_THROW((void)parse_untrusted("{\"a\":1,\"a\":2}"), ContractViolation);
  EXPECT_THROW((void)parse_untrusted("{\"a\":1,\"b\":{\"x\":1,\"x\":2}}"),
               ContractViolation);
  // Distinct keys stay fine, including empty-string keys.
  EXPECT_NO_THROW((void)parse_untrusted("{\"a\":1,\"b\":2,\"\":3}"));
}

std::string nested_array(int depth) {
  std::string s;
  for (int i = 0; i < depth; ++i) s += '[';
  s += '1';
  for (int i = 0; i < depth; ++i) s += ']';
  return s;
}

TEST(JsonHardeningTest, DepthLimitEnforced) {
  const ParseLimits untrusted = ParseLimits::untrusted();
  EXPECT_NO_THROW((void)parse_untrusted(nested_array(untrusted.max_depth)));
  EXPECT_THROW((void)parse_untrusted(nested_array(untrusted.max_depth + 1)),
               ContractViolation);

  // A deep bomb way past the limit must die by limit check, not by
  // exhausting the call stack.
  EXPECT_THROW((void)parse_untrusted(nested_array(100'000)),
               ContractViolation);

  // The default (trusted) limits are looser; what the untrusted cap
  // rejects still parses under them.
  EXPECT_NO_THROW(
      (void)Json::parse(nested_array(untrusted.max_depth + 1)));
  EXPECT_NO_THROW((void)Json::parse(nested_array(ParseLimits{}.max_depth)));

  // Nested objects hit the same counter as arrays.
  std::string objs;
  for (int i = 0; i <= untrusted.max_depth; ++i) objs += "{\"k\":";
  objs += "1";
  for (int i = 0; i <= untrusted.max_depth; ++i) objs += '}';
  EXPECT_THROW((void)parse_untrusted(objs), ContractViolation);
}

TEST(JsonHardeningTest, InputSizeCapEnforced) {
  ParseLimits tiny;
  tiny.max_input_bytes = 16;
  EXPECT_NO_THROW((void)Json::parse("[1,2,3]", tiny));
  EXPECT_THROW((void)Json::parse("[1,2,3,4,5,6,7,8]", tiny),
               ContractViolation);
}

TEST(JsonHardeningTest, StringSizeCapEnforced) {
  ParseLimits tiny;
  tiny.max_string_bytes = 8;
  EXPECT_NO_THROW((void)Json::parse("\"12345678\"", tiny));
  EXPECT_THROW((void)Json::parse("\"123456789\"", tiny), ContractViolation);
  // Escapes count by decoded bytes; the cap still binds.
  EXPECT_THROW((void)Json::parse("\"\\n\\n\\n\\n\\n\\n\\n\\n\\n\"", tiny),
               ContractViolation);
}

TEST(JsonHardeningTest, TotalValueCapEnforced) {
  ParseLimits tiny;
  tiny.max_total_values = 10;
  EXPECT_NO_THROW((void)Json::parse("[1,2,3,4,5,6,7,8,9]", tiny));
  // 1 array + 10 elements = 11 values.
  EXPECT_THROW((void)Json::parse("[1,2,3,4,5,6,7,8,9,10]", tiny),
               ContractViolation);
}

TEST(JsonHardeningTest, ControlCharactersAndBadEscapesRejected) {
  EXPECT_THROW((void)parse_untrusted(std::string("\"a\nb\"")),
               ContractViolation);
  EXPECT_THROW((void)parse_untrusted(std::string("\"a\x01" "b\"")),
               ContractViolation);
  EXPECT_THROW((void)parse_untrusted("\"\\q\""), ContractViolation);
  EXPECT_THROW((void)parse_untrusted("\"\\u12G4\""), ContractViolation);
}

TEST(JsonHardeningTest, TrailingGarbageRejected) {
  EXPECT_THROW((void)parse_untrusted("{} {}"), ContractViolation);
  EXPECT_THROW((void)parse_untrusted("1 2"), ContractViolation);
  EXPECT_THROW((void)parse_untrusted("[1]x"), ContractViolation);
}

TEST(JsonHardeningTest, UntrustedLimitsStillParseRealArtifacts) {
  // A representative job request and a batch-summary-sized document both
  // clear the untrusted caps with room to spare.
  const std::string job =
      "{\"job\":\"cilcoord.job.v1\",\"kind\":\"sweep\",\"id\":\"x\","
      "\"protocol\":\"unbounded\",\"n\":3,\"first_seed\":\"12345\","
      "\"seeds\":1000,\"steps\":100000}";
  const Json doc = parse_untrusted(job);
  EXPECT_EQ(doc.at("kind").as_string(), "sweep");

  std::string big = "{\"rows\":[";
  for (int i = 0; i < 1000; ++i) {
    if (i > 0) big += ',';
    big += "{\"seed\":\"" + std::to_string(i) + "\",\"steps\":123}";
  }
  big += "]}";
  EXPECT_NO_THROW((void)parse_untrusted(big));
}

}  // namespace
}  // namespace cil::obs
