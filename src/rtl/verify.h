// Independent structural verification of a Datapath — the RTL counterpart of
// analysis::lintSchedule. Every MFSA result is re-checked here by the tests.
//
// This is now a thin adapter over analysis::lintDatapath (the structured
// diagnostics engine in src/analysis/); tools that want rule ids, severities
// and locations instead of bare strings should call that directly.
#pragma once

#include <string>
#include <vector>

#include "rtl/datapath.h"

namespace mframe::rtl {

/// Check the datapath against the graph, constraints and design style:
///  * binding: every schedulable operation bound to exactly one ALU whose
///    module supports the operation's FU type;
///  * ALU occupancy: no temporal overlap of non-exclusive operations on one
///    ALU (start-step conflicts for pipelined modules; folded mod latency);
///  * style 2: no operation shares an ALU with a predecessor or successor;
///  * registers: lifetimes packed into one register never overlap; every
///    cross-step signal has a register;
///  * wiring: each operand of each operation is reachable through its port
///    (present in the port's select map).
std::vector<std::string> verifyDatapath(const Datapath& d,
                                        const sched::Constraints& c,
                                        DesignStyle style);

}  // namespace mframe::rtl
