/**
 * @file The shared JSON reader (watchdog rules, sweep manifests, replay
 * specs, bench reports, journal lines): a number token must be one whole
 * number, and a \u escape decodes to its UTF-8 bytes.
 */

#include <gtest/gtest.h>

#include <string>

#include "telemetry/json_util.hpp"

namespace vpm::telemetry {
namespace {

TEST(JsonUtilTest, RejectsNumbersWithTrailingJunk)
{
    for (const char *text :
         {"{\"a\": 1-2}", "[1.2.3]", "7e", "{\"a\": 5e+}", "[--1]",
          "{\"a\": 1e999}", "[.]", "{\"a\": -}"}) {
        JsonValue doc;
        std::string error;
        EXPECT_FALSE(parseJson(text, doc, &error)) << text;
        EXPECT_FALSE(error.empty()) << text;
    }

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson("{\"a\": [0, -1.5e3, 2E+2, 0.25, 7]}", doc, &error))
        << error;
    const JsonValue *a = doc.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->array.size(), 5u);
    EXPECT_EQ(a->array[0].number, 0.0);
    EXPECT_EQ(a->array[1].number, -1500.0);
    EXPECT_EQ(a->array[2].number, 200.0);
    EXPECT_EQ(a->array[3].number, 0.25);
    EXPECT_EQ(a->array[4].number, 7.0);
}

TEST(JsonUtilTest, DecodesUnicodeEscapes)
{
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(R"(["\u0001\u00e9\u20AC\ud83d\ude00\b\f"])",
                          doc, &error))
        << error;
    EXPECT_EQ(doc.array.at(0).string,
              "\x01\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80\b\f");
    for (const char *bad : {R"(["\u12"])", R"(["\uzzzz"])", R"(["\ud83d"])",
                            R"(["\ude00"])", R"(["\ud83dA"])"})
        EXPECT_FALSE(parseJson(bad, doc, &error)) << bad;
}

} // namespace
} // namespace vpm::telemetry
