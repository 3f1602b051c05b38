// JsonWriter byte-exact output: every machine-readable report in the tree
// (pam_exp --json, benchreport records, pam_lint reports) goes through it,
// and test_preset_digests pins those reports byte for byte, so its layout,
// escaping and number formatting are a contract, pinned here directly.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>

#include "common/json_writer.hpp"

namespace pam {
namespace {

template <typename Fn>
std::string emit(Fn&& fn) {
  std::ostringstream out;
  JsonWriter w{out};
  fn(w);
  return out.str();
}

std::string string_value(std::string_view s) {
  return emit([s](JsonWriter& w) { w.value(s); });
}

std::string double_value(double v) {
  return emit([v](JsonWriter& w) { w.value(v); });
}

TEST(JsonWriter, NestingCommasAndTwoSpaceIndent) {
  const std::string json = emit([](JsonWriter& w) {
    w.begin_object();
    w.key("name");
    w.value("pam");
    w.key("list");
    w.begin_array();
    w.value(1);
    w.begin_object();
    w.key("deep");
    w.begin_array();
    w.value(true);
    w.end_array();
    w.end_object();
    w.end_array();
    w.key("empty_object");
    w.begin_object();
    w.end_object();
    w.key("empty_array");
    w.begin_array();
    w.end_array();
    w.key("last");
    w.null();
    w.end_object();
  });
  EXPECT_EQ(json,
            "{\n"
            "  \"name\": \"pam\",\n"
            "  \"list\": [\n"
            "    1,\n"
            "    {\n"
            "      \"deep\": [\n"
            "        true\n"
            "      ]\n"
            "    }\n"
            "  ],\n"
            "  \"empty_object\": {},\n"
            "  \"empty_array\": [],\n"
            "  \"last\": null\n"
            "}\n");
}

TEST(JsonWriter, EmptyTopLevelContainers) {
  // Only a closed top-level object ends the document with a newline.
  EXPECT_EQ(emit([](JsonWriter& w) {
              w.begin_object();
              w.end_object();
            }),
            "{}\n");
  EXPECT_EQ(emit([](JsonWriter& w) {
              w.begin_array();
              w.end_array();
            }),
            "[]");
  EXPECT_EQ(emit([](JsonWriter& w) {
              w.begin_array();
              w.value("a");
              w.value("b");
              w.end_array();
            }),
            "[\n  \"a\",\n  \"b\"\n]");
}

TEST(JsonWriter, DeepNestingKeepsTwoSpacesPerLevel) {
  constexpr int kDepth = 40;
  const std::string json = emit([](JsonWriter& w) {
    for (int i = 0; i < kDepth; ++i) {
      w.begin_array();
    }
    w.value(0);
    for (int i = 0; i < kDepth; ++i) {
      w.end_array();
    }
  });
  std::string expected;
  for (int i = 0; i < kDepth; ++i) {
    expected += (i == 0 ? "" : "\n" + std::string(2 * i, ' ')) + "[";
  }
  expected += "\n" + std::string(2 * kDepth, ' ') + "0";
  for (int i = kDepth - 1; i >= 0; --i) {
    expected += "\n" + std::string(2 * i, ' ') + "]";
  }
  EXPECT_EQ(json, expected);
}

TEST(JsonWriter, EscapesQuotesBackslashesAndWhitespace) {
  EXPECT_EQ(string_value("plain"), "\"plain\"");
  EXPECT_EQ(string_value(""), "\"\"");
  EXPECT_EQ(string_value("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(string_value("l1\nl2\rl3\tend"), "\"l1\\nl2\\rl3\\tend\"");
  EXPECT_EQ(string_value("\"\"\\"), "\"\\\"\\\"\\\\\"");
}

TEST(JsonWriter, EscapesOtherControlBytesAsUnicode) {
  EXPECT_EQ(string_value(std::string_view{"\0", 1}), "\"\\u0000\"");
  EXPECT_EQ(string_value("\x01\x08\x0b\x0c"), "\"\\u0001\\u0008\\u000b\\u000c\"");
  EXPECT_EQ(string_value("x\x1fy\x1b"), "\"x\\u001fy\\u001b\"");
  // 0x20 and DEL are not control bytes for JSON.
  EXPECT_EQ(string_value(" \x7f"), "\" \x7f\"");
}

TEST(JsonWriter, PassesHighBytesThrough) {
  // UTF-8 (and any other byte >= 0x80) is copied verbatim.
  EXPECT_EQ(string_value("caf\xc3\xa9 \xe2\x86\x92 \xff"),
            "\"caf\xc3\xa9 \xe2\x86\x92 \xff\"");
}

TEST(JsonWriter, EscapesKeysLikeStrings) {
  const std::string json = emit([](JsonWriter& w) {
    w.begin_object();
    w.key("k\"\\\n\x01\xc3\xa9");
    w.value(0);
    w.end_object();
  });
  EXPECT_EQ(json, "{\n  \"k\\\"\\\\\\n\\u0001\xc3\xa9\": 0\n}\n");
}

TEST(JsonWriter, DoublesUseTenSignificantDigits) {
  EXPECT_EQ(double_value(0.0), "0");
  EXPECT_EQ(double_value(-0.0), "-0");
  EXPECT_EQ(double_value(1.0), "1");
  EXPECT_EQ(double_value(0.1), "0.1");
  EXPECT_EQ(double_value(2.5), "2.5");
  EXPECT_EQ(double_value(1.0 / 3.0), "0.3333333333");
  EXPECT_EQ(double_value(-123.456), "-123.456");
  EXPECT_EQ(double_value(1e-7), "1e-07");
  EXPECT_EQ(double_value(123456789012.0), "1.23456789e+11");
  EXPECT_EQ(double_value(1234567890.0), "1234567890");
  EXPECT_EQ(double_value(12345678901.0), "1.23456789e+10");
  EXPECT_EQ(double_value(1e10), "1e+10");
  EXPECT_EQ(double_value(9999999999.5), "1e+10");  // rounding carries
  EXPECT_EQ(double_value(100000.0), "100000");
  EXPECT_EQ(double_value(1e-5), "1e-05");
  EXPECT_EQ(double_value(0.00012345678905), "0.0001234567891");
  EXPECT_EQ(double_value(123.4567890123), "123.456789");
  EXPECT_EQ(double_value(std::numeric_limits<double>::max()), "1.797693135e+308");
  EXPECT_EQ(double_value(std::numeric_limits<double>::denorm_min()), "4.940656458e-324");
}

TEST(JsonWriter, NonFiniteDoublesAreNull) {
  EXPECT_EQ(double_value(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(double_value(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(double_value(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonWriter, IntegerExtremes) {
  EXPECT_EQ(emit([](JsonWriter& w) { w.value(std::numeric_limits<std::uint64_t>::max()); }),
            "18446744073709551615");
  EXPECT_EQ(emit([](JsonWriter& w) { w.value(std::uint64_t{0}); }), "0");
  EXPECT_EQ(emit([](JsonWriter& w) { w.value(std::numeric_limits<std::int64_t>::min()); }),
            "-9223372036854775808");
  EXPECT_EQ(emit([](JsonWriter& w) { w.value(std::numeric_limits<std::int64_t>::max()); }),
            "9223372036854775807");
  EXPECT_EQ(emit([](JsonWriter& w) { w.value(-1); }), "-1");
  EXPECT_EQ(emit([](JsonWriter& w) { w.value(0); }), "0");
}

TEST(JsonWriter, BoolsAndNull) {
  const std::string json = emit([](JsonWriter& w) {
    w.begin_array();
    w.value(true);
    w.value(false);
    w.null();
    w.end_array();
  });
  EXPECT_EQ(json, "[\n  true,\n  false,\n  null\n]");
}

}  // namespace
}  // namespace pam
