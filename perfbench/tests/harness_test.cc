// Tests of the benchmark's own helpers: percentiles, span self time, and the
// SAT model check that decides whether a solver output is correct.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

TEST(PercentileTest, InterpolatesBetweenClosestRanks) {
  // Matches numpy.percentile's default ("linear") method.
  const std::vector<double> v = {40, 10, 30, 20};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 10);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 40);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 25);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.99), 39.7);
  EXPECT_DOUBLE_EQ(Median({5}), 5);
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
}

TEST(PercentileTest, EmptySampleAndOutOfRangeQuantile) {
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0);
  EXPECT_DOUBLE_EQ(Percentile({1, 2}, 7.0), 2);
  EXPECT_DOUBLE_EQ(Percentile({1, 2}, -1.0), 1);
}

TEST(SelfTimeTest, SubtractsChildrenCountingOverlapsOnce) {
  std::vector<Span> spans = {
      {"client.step", 1, -1, 0, 100},
      {"net.send", 1, 0, 10, 30},
      {"net.wait", 1, 0, 20, 50},    // overlaps net.send: 10..50 covered once
      {"client.check", 1, 0, 60, 70},
      {"service.x", 1, 2, 25, 45},   // child of net.wait
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 30 - 20);
  EXPECT_EQ(self[3], 10);
  EXPECT_EQ(self[4], 20);
}

TEST(SelfTimeTest, ClipsChildrenToTheParentInterval) {
  std::vector<Span> spans = {
      {"pool.roundtrip", 7, -1, 100, 200},
      {"pool.queue_wait", 7, 0, 50, 150},  // starts before its parent
      {"service.extend", 7, 0, 180, 260},  // ends after it
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 50 - 20);
  EXPECT_EQ(self[1], 100);
  EXPECT_EQ(self[2], 80);
}

TEST(SelfTimeTest, AggregatesByNameAndLayer) {
  std::vector<Span> spans = {
      {"client.step", 1, -1, 0, 100},
      {"net.send", 1, 0, 0, 40},
      {"net.wait", 1, 0, 40, 90},
      {"client.step", 2, -1, 100, 150},
  };
  std::map<std::string, int64_t> by_name;
  AddSelfTimes(spans, &by_name);
  EXPECT_EQ(by_name["client.step"], 10 + 50);
  const auto by_layer = ByLayer(by_name);
  EXPECT_EQ(by_layer.at("client"), 60);
  EXPECT_EQ(by_layer.at("net"), 90);
  EXPECT_EQ(LayerOf("snapshot.restore"), "snapshot");
  EXPECT_EQ(LayerOf("plain"), "plain");
  EXPECT_EQ(SpanDurationsUs(spans, "client.step"), (std::vector<double>{0.1, 0.05}));
}

TEST(SpanLogTest, DisabledLogRecordsNothing) {
  SpanLog off(false);
  EXPECT_EQ(off.Add("client.step", 1, -1, 0, 5), -1);
  off.SetEnd(-1, 9);
  EXPECT_EQ(Timed(off, "net.send", 1, -1, [] { return 42; }), 42);
  EXPECT_TRUE(off.spans().empty());

  SpanLog on(true);
  const int root = on.Add("client.step", 1, -1, 0);
  EXPECT_EQ(Timed(on, "net.send", 1, root, [] { return 7; }), 7);
  on.SetEnd(root, NowNs());
  ASSERT_EQ(on.spans().size(), 2u);
  EXPECT_EQ(on.spans()[1].parent, root);
  EXPECT_LE(on.spans()[1].start_ns, on.spans()[1].end_ns);
}

std::vector<uint8_t> Model(std::initializer_list<bool> values) {
  std::vector<uint8_t> bits((values.size() + 7) / 8);
  size_t v = 0;
  for (bool value : values) {
    if (value) {
      bits[v / 8] |= static_cast<uint8_t>(1u << (v % 8));
    }
    ++v;
  }
  return bits;
}

TEST(ModelCheckTest, LiteralsFollowBitAndSign) {
  const auto model = Model({true, false, false, false, false, false, false, false, true});
  EXPECT_TRUE(ModelLitTrue(model, lw::MakeLit(0)));
  EXPECT_FALSE(ModelLitTrue(model, ~lw::MakeLit(0)));
  EXPECT_FALSE(ModelLitTrue(model, lw::MakeLit(1)));
  EXPECT_TRUE(ModelLitTrue(model, ~lw::MakeLit(1)));
  EXPECT_TRUE(ModelLitTrue(model, lw::MakeLit(8)));  // second byte
  // Variables past the model read as false.
  EXPECT_FALSE(ModelLitTrue(model, lw::MakeLit(100)));
  EXPECT_TRUE(ModelLitTrue(model, ~lw::MakeLit(100)));
}

TEST(ModelCheckTest, EveryClauseNeedsATrueLiteral) {
  const auto model = Model({true, false, true});
  using lw::MakeLit;
  EXPECT_TRUE(ModelSatisfies(model, {{MakeLit(0)}, {MakeLit(1), MakeLit(2)}, {~MakeLit(1)}}));
  EXPECT_FALSE(ModelSatisfies(model, {{MakeLit(0)}, {MakeLit(1)}}));
  EXPECT_FALSE(ModelSatisfies(model, {{}}));  // the empty clause is never satisfied
  EXPECT_TRUE(ModelSatisfies(model, {}));
  EXPECT_FALSE(ModelSatisfies({}, {{MakeLit(0)}}));
}

TEST(DigestTest, OrderAndValueSensitive) {
  Digest a;
  Digest b;
  Digest c;
  a.Mix(1);
  a.Mix(2);
  b.Mix(2);
  b.Mix(1);
  c.Mix(1);
  c.Mix(2);
  EXPECT_NE(a.value, b.value);
  EXPECT_EQ(a.value, c.value);
}

TEST(JsonTest, NumbersKeepTheirDigits) {
  EXPECT_EQ(JsonNumber(0.1), "0.1");
  EXPECT_EQ(JsonNumber(1234.56789012345), "1234.56789012345");
  EXPECT_EQ(JsonNumber(3), "3");
  EXPECT_EQ(JsonString("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
  EXPECT_EQ(MetricsJson({{"x_s", 1.5, "s"}}), "{\"x_s\": {\"value\": 1.5, \"unit\": \"s\"}}");
}

}  // namespace
}  // namespace perfbench
