// Tests for the flat JSON-lines field scanners the CI gate tools use.
#include <gtest/gtest.h>

#include <string>

#include "runtime/flat_json.h"

namespace diva::flat_json {
namespace {

TEST(FlatJson, NumberKeyMatchesOnlyAtAFieldBoundary) {
  double v = 0.0;
  EXPECT_FALSE(extract_number(R"({"x_p50_ms":7.5})", "p50_ms", &v));
  EXPECT_TRUE(extract_number(R"({"x_p50_ms":7.5,"p50_ms":2.25})", "p50_ms", &v));
  EXPECT_EQ(v, 2.25);
  EXPECT_TRUE(extract_number(R"({"p50_ms":-3e2,"n":1})", "p50_ms", &v));
  EXPECT_EQ(v, -300.0);
}

TEST(FlatJson, NonNumericOrMissingValueReturnsFalse) {
  double v = 42.0;
  EXPECT_FALSE(extract_number(R"({"p50_ms":"fast"})", "p50_ms", &v));
  EXPECT_FALSE(extract_number(R"({"p50_ms":null})", "p50_ms", &v));
  EXPECT_FALSE(extract_number(R"({"p99_ms":1})", "p50_ms", &v));
  EXPECT_EQ(v, 42.0);
}

TEST(FlatJson, StringFieldIsReadUpToItsClosingQuote) {
  std::string s;
  EXPECT_TRUE(extract_string(R"({"mode":"served","n":1})", "mode", &s));
  EXPECT_EQ(s, "served");
  EXPECT_FALSE(extract_string(R"({"mode":3})", "mode", &s));
  EXPECT_FALSE(extract_string(R"({"mode":"open)", "mode", &s));
  EXPECT_EQ(s, "served");
}

}  // namespace
}  // namespace diva::flat_json
