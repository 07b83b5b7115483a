// Unit tests for src/common: RNG, histogram, text helpers, timing, JSON.

#include <gtest/gtest.h>

#include <set>

#include "src/common/histogram.h"
#include "src/common/hotspot.h"
#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/common/text.h"
#include "src/common/timing.h"

namespace sb7 {
namespace {

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += (a.Next() == b.Next()) ? 1 : 0;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, BoundedOneAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rng.NextBounded(1), 0u);
  }
}

TEST(RngTest, RangeIsInclusive) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t value = rng.NextInRange(-2, 2);
    EXPECT_GE(value, -2);
    EXPECT_LE(value, 2);
    seen.insert(value);
  }
  EXPECT_EQ(seen.size(), 5u);  // all five values hit
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double value = rng.NextDouble();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
  }
}

TEST(RngTest, BoundedIsRoughlyUniform) {
  Rng rng(17);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80'000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) {
    counts[rng.NextBounded(kBuckets)]++;
  }
  for (int count : counts) {
    EXPECT_NEAR(count, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng parent(23);
  Rng child = parent.Split();
  // Parent jumped 2^128 states; streams must differ.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += (parent.Next() == child.Next()) ? 1 : 0;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, SplitIsDeterministic) {
  Rng a(31);
  Rng b(31);
  Rng child_a = a.Split();
  Rng child_b = b.Split();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(child_a.Next(), child_b.Next());
  }
}

TEST(ZipfianTest, DeterministicUnderFixedSeed) {
  const ZipfianSampler sampler(1000, 0.9);
  Rng a(1234);
  Rng b(1234);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(sampler.Sample(a), sampler.Sample(b));
  }
}

TEST(ZipfianTest, RanksStayInRange) {
  for (const uint64_t n : {1ull, 2ull, 3ull, 100ull, 100'000ull}) {
    const ZipfianSampler sampler(n, 0.99);
    Rng rng(77);
    for (int i = 0; i < 2000; ++i) {
      EXPECT_LT(sampler.Sample(rng), n);
    }
  }
}

TEST(ZipfianTest, SkewConcentratesOnLowRanks) {
  // With theta = 0.99 over 10k ranks, the hot 1% must draw far more than 1%
  // of samples; with theta = 0 the draw is uniform.
  constexpr uint64_t kN = 10'000;
  constexpr int kDraws = 100'000;
  const auto hot_share = [](double theta) {
    const ZipfianSampler sampler(kN, theta);
    Rng rng(2024);
    int hot = 0;
    for (int i = 0; i < kDraws; ++i) {
      hot += sampler.Sample(rng) < kN / 100 ? 1 : 0;
    }
    return static_cast<double>(hot) / kDraws;
  };
  EXPECT_GT(hot_share(0.99), 0.4);
  EXPECT_GT(hot_share(0.8), hot_share(0.5));
  EXPECT_NEAR(hot_share(0.0), 0.01, 0.005);
}

TEST(ZipfianTest, RankZeroIsTheMode) {
  const ZipfianSampler sampler(100, 0.9);
  Rng rng(5);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50'000; ++i) {
    counts[sampler.Sample(rng)]++;
  }
  for (int r = 1; r < 100; ++r) {
    EXPECT_GE(counts[0], counts[r]) << r;
  }
}

TEST(HotspotTest, DisabledPolicyMatchesPlainUniformDraw) {
  ResetHotspotPolicy();
  Rng a(606);
  Rng b(606);
  for (int i = 0; i < 1000; ++i) {
    // Bit-identical stream consumption is what keeps pre-scenario fixed-seed
    // runs reproducible.
    EXPECT_EQ(SampleHotspotId(500, a), 1 + static_cast<int64_t>(b.NextBounded(500)));
  }
}

TEST(HotspotTest, ActivePolicySkewsAndCounts) {
  HotspotPolicy policy;
  policy.theta = 0.95;
  policy.hot_fraction = 0.1;
  SetHotspotPolicy(policy);
  const HotspotCounters before = ReadHotspotCounters();
  Rng rng(17);
  constexpr int kDraws = 20'000;
  constexpr int64_t kCapacity = 1000;
  int64_t in_hot_set = 0;
  for (int i = 0; i < kDraws; ++i) {
    const int64_t id = SampleHotspotId(kCapacity, rng);
    ASSERT_GE(id, 1);
    ASSERT_LE(id, kCapacity);
    in_hot_set += id <= kCapacity / 10 ? 1 : 0;
  }
  const HotspotCounters after = ReadHotspotCounters();
  ResetHotspotPolicy();
  EXPECT_EQ(after.samples - before.samples, kDraws);
  EXPECT_EQ(after.hot_hits - before.hot_hits, in_hot_set);
  EXPECT_GT(static_cast<double>(in_hot_set) / kDraws, 0.4);
}

TEST(HistogramTest, RecordsCountsAndMax) {
  TtcHistogram hist;
  hist.Record(1'500'000);   // 1.5 ms -> bucket 1
  hist.Record(1'700'000);   // bucket 1
  hist.Record(42'000'000);  // bucket 42
  EXPECT_EQ(hist.total_count(), 3);
  EXPECT_EQ(hist.max_nanos(), 42'000'000);
  EXPECT_EQ(hist.Format(), "1,2 42,1");
}

TEST(HistogramTest, OverflowBucketsCoverLargeLatencies) {
  TtcHistogram hist(10);
  hist.Record(9'000'000);        // 9 ms, linear
  hist.Record(15'000'000);       // 15 ms -> [10, 20)
  hist.Record(25'000'000);       // 25 ms -> [20, 40)
  hist.Record(3'600'000'000'000);  // one hour
  EXPECT_EQ(hist.total_count(), 4);
  EXPECT_EQ(hist.max_nanos(), 3'600'000'000'000);
}

TEST(HistogramTest, MergeCombines) {
  TtcHistogram a;
  TtcHistogram b;
  a.Record(2'000'000);
  b.Record(2'200'000);
  b.Record(700'000'000);
  a.Merge(b);
  EXPECT_EQ(a.total_count(), 3);
  EXPECT_EQ(a.max_nanos(), 700'000'000);
  EXPECT_EQ(a.Format(), "2,2 700,1");
}

TEST(HistogramTest, QuantilesAreMonotone) {
  TtcHistogram hist;
  for (int ms = 0; ms < 100; ++ms) {
    hist.Record(static_cast<int64_t>(ms) * 1'000'000);
  }
  EXPECT_LE(hist.QuantileMillis(0.5), hist.QuantileMillis(0.9));
  EXPECT_LE(hist.QuantileMillis(0.9), hist.QuantileMillis(1.0));
  EXPECT_NEAR(hist.QuantileMillis(0.5), 49.0, 2.0);
}

TEST(HistogramTest, QuantilesInterpolateWithinBuckets) {
  // Two 1-ms buckets with two records each: the quantile walks linearly
  // through each bucket (same convention as perf::QuantileOf) and clamps to
  // the recorded max.
  TtcHistogram hist;
  hist.Record(10'500'000);  // 10.5 ms -> bucket [10, 11)
  hist.Record(10'500'000);
  hist.Record(20'500'000);  // 20.5 ms -> bucket [20, 21)
  hist.Record(20'500'000);
  EXPECT_DOUBLE_EQ(hist.QuantileMillis(0.0), 10.0);   // bucket lower bound
  EXPECT_DOUBLE_EQ(hist.QuantileMillis(0.25), 10.5);  // halfway into bucket
  EXPECT_DOUBLE_EQ(hist.QuantileMillis(0.5), 11.0);   // bucket upper bound
  EXPECT_DOUBLE_EQ(hist.QuantileMillis(1.0), 20.5);   // clamped to max
}

TEST(HistogramTest, QuantileClampsToRecordedMax) {
  TtcHistogram hist;
  for (int i = 0; i < 10; ++i) {
    hist.Record(5'000'000);  // all in bucket [5, 6), max 5.0 ms
  }
  // Interpolation alone would say 5.5 ms for p50; the recorded max is the
  // tighter truth.
  EXPECT_DOUBLE_EQ(hist.QuantileMillis(0.5), 5.0);
  EXPECT_DOUBLE_EQ(hist.QuantileMillis(1.0), 5.0);
}

TEST(HistogramTest, EmptyHistogramQuantileIsZero) {
  TtcHistogram hist;
  EXPECT_DOUBLE_EQ(hist.QuantileMillis(0.5), 0.0);
  EXPECT_DOUBLE_EQ(hist.MeanMillis(), 0.0);
}

TEST(HistogramTest, DeltaRecoversTheWindow) {
  TtcHistogram begin;
  begin.Record(2'000'000);
  TtcHistogram end = begin;
  end.Record(8'000'000);
  end.Record(8'000'000);
  const TtcHistogram window = TtcHistogram::Delta(end, begin);
  EXPECT_EQ(window.total_count(), 2);
  // Both window records sit in bucket [8, 9); max carries over from `end`.
  EXPECT_GE(window.QuantileMillis(0.5), 8.0);
  EXPECT_EQ(window.max_nanos(), 8'000'000);
}

TEST(HistogramTest, MeanMatchesData) {
  TtcHistogram hist;
  hist.Record(10'000'000);
  hist.Record(30'000'000);
  EXPECT_DOUBLE_EQ(hist.MeanMillis(), 20.0);
}

TEST(TextTest, CountChar) {
  EXPECT_EQ(CountChar("", 'I'), 0);
  EXPECT_EQ(CountChar("III", 'I'), 3);
  EXPECT_EQ(CountChar("I am the manual. I am.", 'I'), 2);
}

TEST(TextTest, CountOccurrences) {
  EXPECT_EQ(CountOccurrences("I am I am I am", "I am"), 3);
  EXPECT_EQ(CountOccurrences("aaaa", "aa"), 2);  // non-overlapping
  EXPECT_EQ(CountOccurrences("abc", "xyz"), 0);
}

TEST(TextTest, ReplaceAllSwapsPhrases) {
  auto [text, count] = ReplaceAll("I am here. I am there.", "I am", "This is");
  EXPECT_EQ(count, 2);
  EXPECT_EQ(text, "This is here. This is there.");
  auto [back, count2] = ReplaceAll(text, "This is", "I am");
  EXPECT_EQ(count2, 2);
  EXPECT_EQ(back, "I am here. I am there.");
}

TEST(TextTest, ReplaceAllNoMatch) {
  auto [text, count] = ReplaceAll("nothing here", "I am", "This is");
  EXPECT_EQ(count, 0);
  EXPECT_EQ(text, "nothing here");
}

TEST(TextTest, ReplaceChar) {
  auto [text, count] = ReplaceChar("III i", 'I', 'i');
  EXPECT_EQ(count, 3);
  EXPECT_EQ(text, "iii i");
}

TEST(TextTest, DocumentTextHasPhraseAndSize) {
  const std::string text = BuildDocumentText(17, 2000);
  EXPECT_GE(text.size(), 2000u);
  EXPECT_GT(CountOccurrences(text, "I am"), 0);
  EXPECT_NE(text.find("#17"), std::string::npos);
}

TEST(TextTest, ManualTextStartsWithI) {
  const std::string text = BuildManualText(1, 1000);
  EXPECT_GE(text.size(), 1000u);
  EXPECT_EQ(text.front(), 'I');
  EXPECT_GT(CountChar(text, 'I'), 0);
}

TEST(TimingTest, StopwatchAdvances) {
  Stopwatch watch;
  volatile int64_t sink = 0;
  for (int i = 0; i < 100000; ++i) {
    sink += i;
  }
  EXPECT_GE(watch.ElapsedNanos(), 0);
  EXPECT_GE(NowNanos(), 0);
}

TEST(JsonTest, ParsesTheReportSubset) {
  const JsonParseResult parsed = ParseJson(
      R"({"a": 1.5, "b": [true, false, null], "c": {"nested": "x\ny"}, "d": -2e3})");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const JsonValue& doc = parsed.value;
  EXPECT_DOUBLE_EQ(doc.Find("a")->AsNumber(), 1.5);
  ASSERT_EQ(doc.Find("b")->Items().size(), 3u);
  EXPECT_TRUE(doc.Find("b")->Items()[0].AsBool());
  EXPECT_EQ(doc.Find("c")->Find("nested")->AsString(), "x\ny");
  EXPECT_DOUBLE_EQ(doc.Find("d")->AsNumber(), -2000.0);
  EXPECT_EQ(doc.Find("missing"), nullptr);
}

TEST(JsonTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("{\"a\": }").ok());
  EXPECT_FALSE(ParseJson("[1, 2,]").ok());
  EXPECT_FALSE(ParseJson("{} trailing").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("nul").ok());
}

// JsonString is the only escaper every JSON writer uses; whatever it emits,
// ParseJson must read back byte-for-byte.
TEST(JsonTest, ParserReadsBackEveryEscapedByte) {
  for (int byte = 0x01; byte <= 0x7f; ++byte) {
    const std::string text(1, static_cast<char>(byte));
    const std::string quoted = JsonString(text);
    const JsonParseResult parsed = ParseJson(quoted);
    ASSERT_TRUE(parsed.ok()) << "byte " << byte << ": " << parsed.error;
    ASSERT_TRUE(parsed.value.is_string()) << "byte " << byte;
    EXPECT_EQ(parsed.value.AsString(), text) << "byte " << byte << " as " << quoted;
  }
}

TEST(JsonTest, ParserReadsBackMixedQuotesBackslashesAndControls) {
  for (const std::string& text :
       {std::string(""), std::string("plain T1"), std::string("say \"hi\"\\n"),
        std::string("C:\\dir\\\"x\"\\"), std::string("tab\there\nnew\rcr\x01\x1f\b\f"),
        std::string("\\\"\n\"\\\t\x02"), std::string("utf-8 \xc3\xa9 stays")}) {
    const std::string quoted = JsonString(text);
    const JsonParseResult parsed = ParseJson(quoted);
    ASSERT_TRUE(parsed.ok()) << quoted << ": " << parsed.error;
    EXPECT_EQ(parsed.value.AsString(), text) << quoted;
  }
  EXPECT_EQ(JsonString("a\"b\\c\nd\te\x01"), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
}

}  // namespace
}  // namespace sb7
