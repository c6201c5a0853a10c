// Move Frame Scheduling-Allocation (Section 4): simultaneous scheduling and
// allocation of multifunction ALUs, registers and interconnect, driven by
// the dynamic Liapunov function
//   f_{i,j,k} = w_T*f_TIME + w_A*f_ALU + w_M*f_MUX + w_R*f_REG.
//
// Candidates for each operation are the empty, dependency-legal positions in
// the move frame of every capable ALU — existing instances plus one fresh
// instance of each capable library module. Where f cannot fall with the step
// (see core/liapunov.h) only each ALU's earliest such position competes, as
// it dominates the later ones. The contribution terms follow Section 4.1
// exactly:
//   f_TIME = C*y with C large enough that a later step can never be bought
//            by cheaper hardware;
//   f_ALU  = Cost(module) for a fresh ALU, 0 for an existing one;
//   f_MUX  = Cost(MUX1,MUX2 after) - Cost(MUX1,MUX2 before), evaluated under
//            the best input-sharing arrangement (Section 5.6) and shared
//            interconnect (Section 5.7);
//   f_REG  = Cost(REG) * (new registers implied by this operation's input
//            signals living to the chosen step) in {0, 1, 2} registers.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "celllib/cell_library.h"
#include "core/liapunov.h"
#include "rtl/bus.h"
#include "rtl/cost.h"
#include "rtl/datapath.h"
#include "sched/priority.h"
#include "sched/schedule.h"

namespace mframe::core {

/// Interconnect architecture the f_MUX term models (Section 4.1 allows
/// "multiplexers (or buses)"). Mux: two private multiplexers per ALU, priced
/// by the library's nonlinear table. Bus: operand transfers ride shared
/// buses; the term prices the increase in peak concurrent transfers (new bus
/// wires) plus the port taps.
enum class InterconnectStyle { Mux, Bus };

/// Node count from which MFSA trades exact mux pricing for speed, where f
/// cannot fall with the step. Below it, each candidate's f_MUX is the exact
/// alloc::arrangeInputsDelta, each commit re-solves the ALU's arrangement
/// and an empty move frame restarts the pass. From it on, probes and
/// commits use the O(1) greedy alloc::appendDelta / appendToArrangement,
/// and an empty move frame widens the column budget in place.
inline constexpr std::size_t kMfsaGreedyThreshold = 2048;

struct MfsaOptions {
  /// Time constraint and feature switches; timeSteps must be set.
  sched::Constraints constraints;

  MfsaWeights weights;
  rtl::DesignStyle style = rtl::DesignStyle::Unrestricted;
  sched::PriorityRule priorityRule = sched::PriorityRule::Mobility;

  InterconnectStyle interconnect = InterconnectStyle::Mux;
  rtl::BusCostModel busModel;  ///< consulted when interconnect == Bus
};

struct MfsaResult {
  bool feasible = false;
  std::string error;

  rtl::Datapath datapath;      ///< the complete RTL structure
  rtl::CostBreakdown cost;     ///< Table-2 style cost summary
  int steps = 0;

  /// Filled when interconnect == Bus: the final shared-bus plan (the cost
  /// summary's interconnect area is taken from it instead of the muxes).
  std::optional<rtl::BusPlan> busPlan;

  /// Term breakdown of each operation's chosen position.
  std::map<dfg::NodeId, MfsaTerms> termsOf;

  /// Local-rescheduling restarts (Section 3.2 step 4 / 4.2): how often an
  /// empty move frame forced a column-budget increase.
  int restarts = 0;

  /// V(X(k)) after every move (strictly decreasing, per the theorem).
  std::vector<double> liapunovTrace;
};

MfsaResult runMfsa(const dfg::Dfg& g, const celllib::CellLibrary& lib,
                   const MfsaOptions& opt);

/// Resource-constrained MFSA: find the smallest schedule length at which a
/// design meeting opt.constraints.fuLimit exists, by growing cs from the
/// critical path (the dual the paper's "under time and resource constraints"
/// promises for both algorithms). opt.constraints.timeSteps, if set, is the
/// starting point; `maxStepsCap` bounds the search.
MfsaResult runMfsaResourceConstrained(const dfg::Dfg& g,
                                      const celllib::CellLibrary& lib,
                                      MfsaOptions opt, int maxStepsCap = 4096);

}  // namespace mframe::core
