// The register-transfer-level structure MFSA produces (Section 4.2: "MFSA
// generates a schedule and its corresponding RTL structure while optimizing
// the overall cost"): ALU instances drawn from the cell library, registers
// from left-edge allocation, two multiplexers per ALU, and shared
// interconnect lines.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "alloc/interconnect.h"
#include "alloc/lifetimes.h"
#include "alloc/muxopt.h"
#include "alloc/regalloc.h"
#include "celllib/cell_library.h"
#include "sched/schedule.h"

namespace mframe::rtl {

/// The two RTL design styles of Section 4.2.
enum class DesignStyle {
  Unrestricted,  ///< style 1: conventional datapath
  NoSelfLoop,    ///< style 2: no operation may share an ALU with one of its
                 ///< predecessors or successors (self-testable, SYNTEST [18])
};

struct AluInstance {
  celllib::ModuleId module = 0;
  int index = 0;                    ///< global instance index (0-based)
  std::vector<dfg::NodeId> ops;     ///< operations bound here
};

/// A complete datapath. Build with buildDatapath(); cost via rtl::evaluateCost;
/// check with rtl::verifyDatapath. The structure co-owns snapshots of the
/// graph (shared with its schedule) and the cell library, so results outlive
/// the caller's originals.
struct Datapath {
  std::shared_ptr<const dfg::Dfg> graph;
  std::shared_ptr<const celllib::CellLibrary> lib;
  sched::Schedule schedule;

  std::vector<AluInstance> alus;
  std::vector<alloc::Lifetime> lifetimes;
  alloc::RegAllocation regs;

  /// The binding and the register allocation as two tables indexed by
  /// NodeId and sized to the graph: the ALU executing each op and the
  /// register storing each value, -1 where there is none (inputs and
  /// constants have no ALU; chained-only values and constants no register).
  /// They take 8 bytes per node. Read them through aluIndexOf and
  /// registerOf; only buildDatapath writes them.
  std::vector<int> aluOf;
  std::vector<int> regOfSignal;

  /// Per-ALU operand arrangement (which signal feeds which port) and the
  /// physical wiring of the two ports after interconnect sharing.
  std::vector<alloc::MuxArrangement> arrangement;  ///< index = ALU index
  std::vector<alloc::PortWiring> leftPort;
  std::vector<alloc::PortWiring> rightPort;

  /// The ALU executing op `n`, or -1 when none does or `n` lies past the
  /// graph.
  int aluIndexOf(dfg::NodeId n) const {
    return n < aluOf.size() ? aluOf[n] : -1;
  }
  /// The register storing signal `n`, or -1 when none does or `n` lies past
  /// the graph.
  int registerOf(dfg::NodeId n) const {
    return n < regOfSignal.size() ? regOfSignal[n] : -1;
  }

  /// The paper's Table-2 "ALU's" column, e.g. "(+-); 2(*)".
  std::string aluSummary() const;
};

/// Assemble the full RTL structure from a schedule and an ALU binding:
/// lifetime analysis, register allocation, mux arrangement and interconnect
/// sharing. `alus[i].ops` must cover every schedulable operation exactly
/// once. `regs` replaces the left-edge register allocation: externally
/// bound designs (.bind files) pin their own register assignment, defects
/// included.
Datapath buildDatapath(const dfg::Dfg& g, const celllib::CellLibrary& lib,
                       const sched::Schedule& s, std::vector<AluInstance> alus,
                       std::optional<alloc::RegAllocation> regs = std::nullopt);

/// How wide a shared line is after declaration-driven sizing: as wide as its
/// widest declaring tenant. Width 0 means no tenant declares a `width=`
/// attribute — the line stays word-wide (unsized), and no width proof can
/// fail against it. `tenant` names the widest declaring tenant, for
/// provenance in diagnostics.
struct DeclaredWidth {
  int width = 0;
  dfg::NodeId tenant = dfg::kNoNode;
};

/// Per-register declared widths: a register is sized by the widest declared
/// width among the signals allocated to it (registerOf). A tenant with no
/// declaration adopts the register's size — which is exactly how an
/// undeclared wide value gets silently truncated by a narrow co-tenant; the
/// range analysis (WID001) audits that hazard.
std::vector<DeclaredWidth> declaredRegisterWidths(const Datapath& d);

/// Per-ALU declared output-line widths: the instance's line is sized by the
/// widest declared width among the operations bound to it (WID002 turf).
std::vector<DeclaredWidth> declaredAluWidths(const Datapath& d);

/// Derive an ALU binding from a schedule's (FU type, column) grid: each
/// occupied column of each type becomes one ALU instance (first-seen order),
/// implemented by the library's cheapest capable module. The scheduler ran
/// the columns of a type in c.pipelinedFus pipelined (`c` are the
/// constraints `s` was built under), so such a column that holds a
/// multicycle op takes the cheapest multi-stage module. MFS and the
/// baseline schedulers return bare schedules; this is the canonical binding
/// used to lift them into datapaths. Throws std::runtime_error when the
/// library cannot implement a needed column.
std::vector<AluInstance> bindByColumns(const dfg::Dfg& g,
                                       const celllib::CellLibrary& lib,
                                       const sched::Schedule& s,
                                       const sched::Constraints& c);

}  // namespace mframe::rtl
