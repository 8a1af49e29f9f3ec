// Tests for util::Json, the attack service's wire format: dump/parse round
// trips, escape handling, typed-lookup fallbacks, and the error paths a
// daemon fed garbage must survive.
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <string>

namespace cl::util {
namespace {

Json parsed(const std::string& text) {
  Json out;
  std::string error;
  EXPECT_TRUE(Json::parse(text, &out, &error)) << text << ": " << error;
  return out;
}

TEST(Protocol, DumpKeepsInsertionOrderAndRoundTrips) {
  Json j = Json::object();
  j.set("op", Json::string("submit"));
  j.set("id", Json::number(std::uint64_t{42}));
  j.set("ok", Json::boolean(true));
  j.set("ratio", Json::number(0.5));
  Json arr = Json::array();
  arr.push_back(Json::string("a"));
  arr.push_back(Json::null());
  j.set("tags", std::move(arr));

  const std::string wire = j.dump();
  EXPECT_EQ(wire,
            "{\"op\": \"submit\", \"id\": 42, \"ok\": true, \"ratio\": 0.5, "
            "\"tags\": [\"a\", null]}");

  const Json back = parsed(wire);
  EXPECT_EQ(back.dump(), wire);
  EXPECT_EQ(back.str_or("op", ""), "submit");
  EXPECT_EQ(back.u64_or("id", 0), 42u);
  EXPECT_TRUE(back.bool_or("ok", false));
  EXPECT_DOUBLE_EQ(back.num_or("ratio", 0.0), 0.5);
  ASSERT_NE(back.find("tags"), nullptr);
  EXPECT_EQ(back.find("tags")->elements().size(), 2u);
}

TEST(Protocol, ExpandedDumpPutsEachMemberOnALine) {
  // dump(2): the outer object and its arrays one member per line, deeper
  // containers on one line (the BENCH_*.json layout: one record per line).
  Json doc = Json::object();
  doc.set("schema", Json::number(std::uint64_t{2}));
  Json records = Json::array();
  Json record = Json::object();
  record.set("k", Json::null());
  record.set("seconds", Json::number(0.25));
  records.push_back(record);
  records.push_back(record);
  doc.set("records", std::move(records));
  doc.set("empty", Json::array());
  const std::string text = doc.dump(2);
  EXPECT_EQ(text,
            "{\n"
            "  \"schema\": 2,\n"
            "  \"records\": [\n"
            "    {\"k\": null, \"seconds\": 0.25},\n"
            "    {\"k\": null, \"seconds\": 0.25}\n"
            "  ],\n"
            "  \"empty\": []\n"
            "}");
  EXPECT_EQ(parsed(text).dump(), doc.dump());
}

TEST(Protocol, StringEscapesRoundTrip) {
  // Bench text goes over the wire verbatim: newlines, quotes, backslashes,
  // tabs, and control characters must all survive a dump/parse cycle.
  const std::string nasty = "INPUT(G0)\n\"quoted\\path\"\ttab\r\x01end";
  Json j = Json::object();
  j.set("text", Json::string(nasty));
  const Json back = parsed(j.dump());
  EXPECT_EQ(back.str_or("text", ""), nasty);
}

TEST(Protocol, UnicodeEscapesDecodeToUtf8) {
  const Json j = parsed("{\"s\": \"\\u0041\\u00e9\\u20ac\"}");
  EXPECT_EQ(j.str_or("s", ""), "A\xc3\xa9\xe2\x82\xac");  // A, é, €
}

TEST(Protocol, LargeIntegersDumpExactly) {
  // Job ids and query counters are integers; they must not pick up an
  // exponent or fraction on the wire (counters fit in 2^53 exactly).
  Json j = Json::object();
  j.set("n", Json::number(std::uint64_t{9007199254740992ULL}));  // 2^53
  EXPECT_EQ(j.dump(), "{\"n\": 9007199254740992}");
  EXPECT_EQ(parsed(j.dump()).u64_or("n", 0), 9007199254740992ULL);
}

TEST(Protocol, U64LookupFallsBackBeyondTwoToThe64) {
  // Casting a double >= 2^64 to uint64_t is undefined behaviour (it read 0,
  // so "max_iterations": 1e30 meant zero iterations); such values fall back
  // like negatives do.
  const Json j = parsed(
      "{\"two64\": 18446744073709551616, \"huge\": 1e30, "
      "\"two53\": 9007199254740992}");
  EXPECT_EQ(j.u64_or("two64", 7), 7u);
  EXPECT_EQ(j.u64_or("huge", 7), 7u);
  EXPECT_EQ(j.u64_or("two53", 7), 9007199254740992ULL);
}

TEST(Protocol, FractionsDumpAsTheShortestRoundTrip) {
  // Wall times and rates keep every bit, in the fewest digits that parse
  // back to the same double.
  for (const double v : {0.1, 0.000244188, 1.0 / 3.0, 6.2169e-05, 1e300}) {
    Json j = Json::object();
    j.set("v", Json::number(v));
    EXPECT_EQ(parsed(j.dump()).num_or("v", 0.0), v) << j.dump();
  }
  Json j = Json::object();
  j.set("a", Json::number(0.1));
  j.set("b", Json::number(0.000244188));
  EXPECT_EQ(j.dump(), "{\"a\": 0.1, \"b\": 0.000244188}");
}

TEST(Protocol, NonFiniteNumbersDumpAsZero) {
  // JSON has no nan/inf; emitting them would poison every consumer.
  Json j = Json::object();
  j.set("bad", Json::number(0.0 / 0.0));
  EXPECT_EQ(j.dump(), "{\"bad\": 0}");
}

TEST(Protocol, TypedLookupsFallBackOnWrongTypeOrAbsence) {
  const Json j = parsed("{\"s\": \"text\", \"n\": 7, \"b\": true}");
  EXPECT_EQ(j.str_or("n", "fb"), "fb");    // wrong type
  EXPECT_EQ(j.u64_or("s", 9), 9u);         // wrong type
  EXPECT_EQ(j.u64_or("missing", 3), 3u);   // absent
  EXPECT_TRUE(j.bool_or("b", false));
  EXPECT_FALSE(j.bool_or("n", false));     // number is not a bool
}

TEST(Protocol, ParseRejectsGarbage) {
  Json out;
  std::string error;
  EXPECT_FALSE(Json::parse("", &out, &error));
  EXPECT_FALSE(Json::parse("{oops", &out, &error));
  EXPECT_FALSE(Json::parse("{\"a\": 1,}", &out, &error));
  EXPECT_FALSE(Json::parse("{\"a\": 1} trailing", &out, &error));
  EXPECT_FALSE(Json::parse("\"unterminated", &out, &error));
  EXPECT_FALSE(Json::parse("{\"a\": 01}", &out, &error));
  EXPECT_FALSE(error.empty());
}

TEST(Protocol, ParseRejectsRunawayNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  Json out;
  std::string error;
  EXPECT_FALSE(Json::parse(deep, &out, &error));
  EXPECT_NE(error.find("deep"), std::string::npos) << error;
}

}  // namespace
}  // namespace cl::util
