// Interconnect optimization (Section 5.7): multiplexer data inputs are
// physical wires, and several operand *signals* can ride one wire — all the
// values stored in one register arrive on that register's output line, and a
// chained value arrives on its producer ALU's output line. Mapping the
// port-level signal lists onto distinct physical sources and deduplicating
// is exactly the paper's "line sharing ... has a secondary effect on
// Cost(MUX) before the Liapunov function makes its final decision".
#pragma once

#include <compare>
#include <string>
#include <vector>

#include "sched/schedule.h"

namespace mframe::alloc {

/// A physical driver of a mux data input.
struct Source {
  enum class Kind { Register, AluOut, PrimaryInput, Constant };
  Kind kind = Kind::Register;
  int index = 0;                    ///< register index or ALU instance index
  dfg::NodeId node = dfg::kNoNode;  ///< the node for PrimaryInput/Constant

  auto operator<=>(const Source&) const = default;
  std::string toString(const dfg::Dfg& g) const;
};

/// Resolves which physical source carries a signal into a given reader.
class SourceResolver {
 public:
  /// `regOfSignal` and `aluOf` are the datapath's two NodeId-indexed tables
  /// (rtl::Datapath): the register storing each value and the ALU executing
  /// each op, -1 for none. The resolver reads them in place, so they must
  /// outlive it.
  SourceResolver(const dfg::Dfg& g, const sched::Schedule& s,
                 const std::vector<int>& regOfSignal,
                 const std::vector<int>& aluOf);

  /// The source driving `signal` when consumed by operation `reader`.
  /// A consumer starting in the step where the producer finishes reads the
  /// producer's ALU output combinationally (chaining); every other consumer
  /// reads the register holding the signal.
  Source resolve(dfg::NodeId reader, dfg::NodeId signal) const;

 private:
  const dfg::Dfg* g_;
  const sched::Schedule* s_;
  const std::vector<int>* regOfSignal_;
  const std::vector<int>* aluOf_;
};

/// The wiring of one ALU input port after interconnect sharing.
struct PortWiring {
  std::vector<Source> sources;  ///< distinct wires into the mux, in first-use order

  /// One read the port carries: `reader` consumes `signal` through mux
  /// input `select` (an index into `sources`).
  struct Select {
    dfg::NodeId reader = dfg::kNoNode;
    dfg::NodeId signal = dfg::kNoNode;
    int select = -1;
  };
  /// Every read of the port, one entry (12 bytes) per (reader, signal) pair,
  /// sorted by (reader, signal) so selectFor is a binary search. Read it
  /// through selectFor and sourceFor; only wirePort writes it.
  std::vector<Select> selects;

  /// The mux select routing `signal` into `reader`, or -1 when this port
  /// never carries that read.
  int selectFor(dfg::NodeId reader, dfg::NodeId signal) const;

  /// The source wired for `reader`'s consumption of `signal`, or nullptr when
  /// this port never carries that read.
  const Source* sourceFor(dfg::NodeId reader, dfg::NodeId signal) const {
    const int sel = selectFor(reader, signal);
    return sel < 0 ? nullptr : &sources[static_cast<std::size_t>(sel)];
  }
};

/// Collapse per-operation reads into shared wires.
PortWiring wirePort(const SourceResolver& resolver,
                    const std::vector<std::pair<dfg::NodeId, dfg::NodeId>>& reads);

}  // namespace mframe::alloc
