// Microcode ROM view of the controller: the FSM's per-state control signals
// packed into fields, with a width/area estimate — the concrete "control
// path design" artifact behavioral synthesis owes after the datapath
// (Section 1).
//
// Field layout per ALU: an opcode field (wide enough for the distinct
// operations the ALU performs), and one select field per multiplexed port;
// plus one load-enable bit per register. ALUs with a single operation need
// no opcode bits, ports with a single source no select bits — exactly the
// places where datapath sharing buys controller area too.
//
// A field's role is data: its kind and the ALU or register it drives. The
// printed name ("alu2.selL", "R5.load") is derived from the two. Readers
// resolve one handle per (kind, unit) with fieldOf and index rows by it.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "rtl/controller.h"
#include "rtl/datapath.h"

namespace mframe::rtl {

struct MicrocodeField {
  enum class Kind {
    Opcode,   ///< "alu<k>.op": index into aluOpcodes(d, k)
    SelL,     ///< "alu<k>.selL": left-port mux select
    SelR,     ///< "alu<k>.selR": right-port mux select
    RegLoad,  ///< "R<j>.load": load enable of register j
    Next,     ///< "ctrl.next": target row, 0 = halt
    AltNext,  ///< "ctrl.altNext": a branching row's second target
  };
  Kind kind = Kind::Opcode;
  int unit = -1;  ///< ALU or register index; -1 for the sequencer fields
  int bits = 0;

  std::string name() const;
};

struct MicrocodeRom {
  int words = 0;  ///< one control word per control step
  std::vector<MicrocodeField> fields;
  /// rows[step-1][field] = value (-1 = don't care / idle).
  std::vector<std::vector<int>> rows;

  int wordBits() const;
  int totalBits() const { return words * wordBits(); }
  double areaEstimate(double umPerBit = 12.0) const { return totalBits() * umPerBit; }

  /// Handle (index into `fields` and into each row) of the `kind` field of
  /// `unit`, or -1 when absent: single-source ports and single-op ALUs have
  /// no field at all. A linear scan, since `fields` is public and an index
  /// cached beside it could go stale; callers resolve one handle per unit.
  int fieldOf(MicrocodeField::Kind kind, int unit = -1) const;

  /// The encoded value of handle `field` in control step `step` (1-based),
  /// or nullopt when the handle is -1, the step or handle is out of range,
  /// or the row holds a don't-care.
  std::optional<int> valueAt(int step, int field) const;

  std::string toString() const;
};

/// The distinct op kinds ALU `alu` performs, in the microcode's opcode
/// encoding order (the value of its Opcode field indexes this list).
std::vector<dfg::OpKind> aluOpcodes(const Datapath& d, int alu);

MicrocodeRom buildMicrocode(const Datapath& d, const ControllerFsm& fsm);

}  // namespace mframe::rtl
