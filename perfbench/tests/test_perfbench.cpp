// Self-tests of the benchmark's own arithmetic and input generation.
#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(Fastest, PicksTheMinimumWhateverTheOrder) {
  EXPECT_DOUBLE_EQ(fastest({5.0, 3.0, 9.0, 3.5}), 3.0);
  EXPECT_DOUBLE_EQ(fastest({7.25}), 7.25);
  EXPECT_DOUBLE_EQ(fastest({}), 0.0);
}

TEST(Quantile, NearestRankForEachSampleCount) {
  // One sample: every quantile is that sample.
  EXPECT_DOUBLE_EQ(quantile({4.0}, 0.5), 4.0);
  EXPECT_DOUBLE_EQ(quantile({4.0}, 0.9), 4.0);
  // Two samples: the lower one is the median, the upper one p90.
  EXPECT_DOUBLE_EQ(quantile({8.0, 2.0}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(quantile({8.0, 2.0}, 0.9), 8.0);
  // Ten samples 1..10 in scrambled order: rank ceil(0.5*10) = 5, ceil(0.9*10) = 9.
  const std::vector<double> ten = {7, 3, 10, 1, 9, 5, 2, 8, 6, 4};
  EXPECT_DOUBLE_EQ(quantile(ten, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile(ten, 0.9), 9.0);
  EXPECT_DOUBLE_EQ(quantile(ten, 1.0), 10.0);
  // Eleven samples: the median is the true middle one.
  std::vector<double> eleven = ten;
  eleven.push_back(11);
  EXPECT_DOUBLE_EQ(quantile(eleven, 0.5), 6.0);
  EXPECT_DOUBLE_EQ(quantile(eleven, 0.9), 10.0);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
}

TEST(Yields, CommitAndStitchRatios) {
  EXPECT_DOUBLE_EQ(commitYield(25, 100), 0.25);
  EXPECT_DOUBLE_EQ(commitYield(0, 0), 0.0);
  // Stitch yield counts rejected stitches as attempts too.
  EXPECT_DOUBLE_EQ(stitchYield(3, 1), 0.75);
  EXPECT_DOUBLE_EQ(stitchYield(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(stitchYield(0, 0), 0.0);
}

SpanRecord span(const char* name, std::int64_t start, std::int64_t end, int parent) {
  SpanRecord s;
  s.name = name;
  s.startNs = start;
  s.endNs = end;
  s.parent = parent;
  return s;
}

TEST(SelfTime, SpanMinusItsChildren) {
  const std::deque<SpanRecord> spans = {
      span("pass", 0, 100, -1),      // children cover 10..40 and 50..90
      span("parse", 10, 40, 0),
      span("mfsa", 50, 90, 0),
      span("inner", 60, 70, 2),      // a grandchild only shortens "mfsa"
  };
  const std::vector<std::int64_t> self = selfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 30 - 40);
  EXPECT_EQ(self[1], 30);
  EXPECT_EQ(self[2], 40 - 10);
  EXPECT_EQ(self[3], 10);
}

TEST(SelfTime, RecorderNestsScopes) {
  Spans rec;
  {
    const Scope root(&rec, "pass", -1, 7, "tseng");
    const Scope child(&rec, "dfg.parse", root.index(), 7);
  }
  {
    const Scope off(nullptr, "pass", -1, 8);  // untraced: records nothing
    EXPECT_EQ(off.index(), -1);
  }
  ASSERT_EQ(rec.records().size(), 2u);
  EXPECT_EQ(rec.records()[1].parent, 0);
  EXPECT_EQ(rec.records()[1].pass, 7);
  const auto self = selfTimesNs(rec.records());
  EXPECT_EQ(self[0] + self[1],
            rec.records()[0].endNs - rec.records()[0].startNs);
  EXPECT_NE(rec.chromeJson("{}").find("\"design\": \"tseng\""), std::string::npos);
}

std::vector<std::string> texts(Workload w, std::uint32_t seed) {
  std::vector<std::string> out;
  for (const Design& d : makeInputs(w, seed).designs) out.push_back(d.text);
  return out;
}

TEST(Inputs, OneSeedGivesByteIdenticalDesigns) {
  const auto a = texts(Workload::GraphFlow, 11);
  const auto b = texts(Workload::GraphFlow, 11);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a, b);
}

TEST(Inputs, AnotherSeedGivesOtherDesigns) {
  const auto a = texts(Workload::GraphFlow, 11);
  const auto b = texts(Workload::GraphFlow, 12);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NE(a[i], b[i]) << i;
}

std::vector<std::string> names(Workload w) {
  std::vector<std::string> out;
  for (const Design& d : makeInputs(w, 1).designs) out.push_back(d.reference.name());
  return out;
}

TEST(Inputs, PaperWorkloadsUseTheGoldenDesigns) {
  EXPECT_EQ(names(Workload::PaperFlow),
            (std::vector<std::string>{"tseng", "chained", "diffeq", "fir8", "ar",
                                      "ewf", "fdct", "iir"}));
  EXPECT_EQ(names(Workload::PaperTune),
            (std::vector<std::string>{"tseng", "chained", "diffeq", "fir8", "ar",
                                      "ewf", "iir"}));
  // The paper designs are fixed: the seed only picks simulation vectors.
  EXPECT_EQ(texts(Workload::PaperFlow, 1), texts(Workload::PaperFlow, 2));
}

TEST(SlotTimes, ShortCallsTakeTheFastestAndLongCallsAPairedLowQuantile) {
  SlotTimes t;
  EXPECT_EQ(t.samples(), 0);
  EXPECT_DOUBLE_EQ(t.sum(), 0.0);
  // Slot 0's fastest run is under kLongCallMs, slot 1's is not. Over twelve
  // passes slot 1 takes 22, 21, ..., 11 times the reference before it.
  for (int pass = 0; pass < 12; ++pass) {
    const double reference = pass == 3 ? 1.0 : 2.0;
    t.add({5.0 + pass, (22 - pass) * reference}, {reference, reference});
  }
  EXPECT_EQ(t.samples(), 12);
  // Short: the fastest time, 5, over the fastest reference, 1. Long: the
  // tenth percentile of the ratios 11 ... 22 by nearest rank, ceil(1.2) = 2,
  // is the second smallest.
  EXPECT_EQ(t.values(), (std::vector<double>{5.0, 12.0}));
  EXPECT_DOUBLE_EQ(t.sum(), 17.0);
  EXPECT_THROW(t.add({1.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(t.add({1.0, 1.0}, {1.0}), std::invalid_argument);
}

TEST(Workloads, NamesRoundTrip) {
  for (Workload w : {Workload::PaperFlow, Workload::GraphFlow, Workload::PaperTune})
    EXPECT_EQ(parseWorkload(workloadName(w)), w);
  EXPECT_FALSE(parseWorkload("paper").has_value());
}

}  // namespace
}  // namespace perfbench
