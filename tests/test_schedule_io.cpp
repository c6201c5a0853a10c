#include "sched/schedule_io.h"

#include <gtest/gtest.h>

#include "analysis/sched_rules.h"
#include "core/mfs.h"
#include "helpers.h"
#include "workloads/benchmarks.h"

namespace mframe::sched {
namespace {

Schedule goodSchedule(const dfg::Dfg& g, int cs) {
  core::MfsOptions o;
  o.constraints.timeSteps = cs;
  const auto r = core::runMfs(g, o);
  EXPECT_TRUE(r.feasible);
  return r.schedule;
}

TEST(ScheduleIo, RoundTripsExactly) {
  const dfg::Dfg g = workloads::diffeq();
  const Schedule s = goodSchedule(g, 5);
  std::string error;
  const auto again = parseSchedule(g, serializeSchedule(s), &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(again->numSteps(), s.numSteps());
  for (dfg::NodeId id : g.operations()) {
    EXPECT_EQ(again->stepOf(id), s.stepOf(id));
    EXPECT_EQ(again->columnOf(id), s.columnOf(id));
  }
  // And the reload still verifies.
  Constraints c;
  c.timeSteps = s.numSteps();
  EXPECT_TRUE(analysis::lintSchedule(*again, c).empty());
}

TEST(ScheduleIo, RejectsWrongDesignName) {
  const dfg::Dfg g = workloads::diffeq();
  const dfg::Dfg other = workloads::tseng();
  const Schedule s = goodSchedule(g, 5);
  std::string error;
  EXPECT_FALSE(parseSchedule(other, serializeSchedule(s), &error).has_value());
  EXPECT_NE(error.find("does not match"), std::string::npos);
}

TEST(ScheduleIo, RejectsUnknownSignal) {
  const dfg::Dfg g = test::smallDiamond();
  std::string error;
  EXPECT_FALSE(parseSchedule(g,
                             "schedule diamond steps=3\n"
                             "place nothere step=1 col=1\n",
                             &error)
                   .has_value());
  EXPECT_NE(error.find("unknown signal"), std::string::npos);
}

TEST(ScheduleIo, RejectsOutOfRangeAndDuplicates) {
  const dfg::Dfg g = test::smallDiamond();
  std::string error;
  EXPECT_FALSE(parseSchedule(g,
                             "schedule diamond steps=3\n"
                             "place s step=9 col=1\n",
                             &error)
                   .has_value());
  EXPECT_NE(error.find("out of range"), std::string::npos);
  EXPECT_FALSE(parseSchedule(g,
                             "schedule diamond steps=3\n"
                             "place s step=1 col=1\nplace s step=2 col=1\n",
                             &error)
                   .has_value());
  EXPECT_NE(error.find("duplicate"), std::string::npos);
}

TEST(ScheduleIo, RejectsMissingHeaderAndBadStatements) {
  const dfg::Dfg g = test::smallDiamond();
  std::string error;
  EXPECT_FALSE(parseSchedule(g, "place s step=1 col=1\n", &error).has_value());
  EXPECT_FALSE(parseSchedule(g, "schedule diamond steps=3\nzap\n", &error)
                   .has_value());
  EXPECT_FALSE(
      parseSchedule(g, "schedule diamond steps=3\nplace a step=1 col=1\n",
                    &error)
          .has_value());  // 'a' is an input, not an operation
}

TEST(ScheduleIo, CommentsIgnored) {
  const dfg::Dfg g = test::smallDiamond();
  const auto s = parseSchedule(g,
                               "# saved schedule\nschedule diamond steps=3\n"
                               "place s step=1 col=1  # the add\n");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->stepOf(g.findByName("s")), 1);
}

}  // namespace
}  // namespace mframe::sched
