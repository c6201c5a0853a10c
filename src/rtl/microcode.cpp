#include "rtl/microcode.h"

#include <algorithm>
#include <set>

#include "util/strings.h"

namespace mframe::rtl {

namespace {

int bitsFor(std::size_t alternatives) {
  if (alternatives <= 1) return 0;
  int bits = 0;
  std::size_t span = 1;
  while (span < alternatives) {
    span <<= 1;
    ++bits;
  }
  return bits;
}

}  // namespace

int MicrocodeRom::wordBits() const {
  int total = 0;
  for (const auto& f : fields) total += f.bits;
  return total;
}

std::string MicrocodeField::name() const {
  switch (kind) {
    case Kind::Opcode: return util::format("alu%d.op", unit);
    case Kind::SelL: return util::format("alu%d.selL", unit);
    case Kind::SelR: return util::format("alu%d.selR", unit);
    case Kind::RegLoad: return util::format("R%d.load", unit);
    case Kind::Next: return "ctrl.next";
    case Kind::AltNext: return "ctrl.altNext";
  }
  return "";
}

int MicrocodeRom::fieldOf(MicrocodeField::Kind kind, int unit) const {
  for (std::size_t f = 0; f < fields.size(); ++f)
    if (fields[f].kind == kind && fields[f].unit == unit)
      return static_cast<int>(f);
  return -1;
}

std::optional<int> MicrocodeRom::valueAt(int step, int field) const {
  if (field < 0 || step < 1 || step > static_cast<int>(rows.size()))
    return std::nullopt;
  const auto& row = rows[static_cast<std::size_t>(step - 1)];
  if (field >= static_cast<int>(row.size())) return std::nullopt;
  const int v = row[static_cast<std::size_t>(field)];
  if (v < 0) return std::nullopt;
  return v;
}

std::vector<dfg::OpKind> aluOpcodes(const Datapath& d, int alu) {
  const dfg::Dfg& g = *d.graph;
  std::set<dfg::OpKind> kinds;
  for (const AluInstance& a : d.alus)
    if (a.index == alu)
      for (dfg::NodeId op : a.ops) kinds.insert(g.node(op).kind);
  return {kinds.begin(), kinds.end()};
}

MicrocodeRom buildMicrocode(const Datapath& d, const ControllerFsm& fsm) {
  using Kind = MicrocodeField::Kind;
  MicrocodeRom rom;
  rom.words = fsm.numSteps;
  const dfg::Dfg& g = *d.graph;
  const auto addField = [&](Kind kind, int unit, int bits) {
    rom.fields.push_back({kind, unit, bits});
    return static_cast<int>(rom.fields.size()) - 1;
  };

  // Field layout: [aluK.op][aluK.selL][aluK.selR] ... [Rj.load] ..., with
  // each unit's handles (-1: no field) kept for the row fill. The opcode
  // encoding of an ALU is the distinct op kinds it performs.
  struct AluFields {
    std::vector<dfg::OpKind> opcodes;
    int op = -1, selL = -1, selR = -1;
  };
  std::vector<AluFields> alu(d.alus.size());
  for (const AluInstance& a : d.alus) {
    const auto ai = static_cast<std::size_t>(a.index);
    AluFields& f = alu[ai];
    f.opcodes = aluOpcodes(d, a.index);
    if (f.opcodes.size() > 1)
      f.op = addField(Kind::Opcode, a.index, bitsFor(f.opcodes.size()));
    if (d.leftPort[ai].sources.size() > 1)
      f.selL = addField(Kind::SelL, a.index,
                        bitsFor(d.leftPort[ai].sources.size()));
    if (d.rightPort[ai].sources.size() > 1)
      f.selR = addField(Kind::SelR, a.index,
                        bitsFor(d.rightPort[ai].sources.size()));
  }
  std::vector<int> load(d.regs.count());
  for (std::size_t r = 0; r < load.size(); ++r)
    load[r] = addField(Kind::RegLoad, static_cast<int>(r), 1);

  rom.rows.assign(static_cast<std::size_t>(fsm.numSteps),
                  std::vector<int>(rom.fields.size(), -1));
  auto cell = [&](int step, int field) -> int& {
    return rom.rows[static_cast<std::size_t>(step - 1)]
                   [static_cast<std::size_t>(field)];
  };

  for (const MicroOp& m : fsm.microOps) {
    const AluFields& f = alu[static_cast<std::size_t>(m.alu)];
    if (f.op >= 0)
      cell(m.step, f.op) = static_cast<int>(
          std::find(f.opcodes.begin(), f.opcodes.end(), g.node(m.op).kind) -
          f.opcodes.begin());
    if (f.selL >= 0 && m.leftSelect >= 0) cell(m.step, f.selL) = m.leftSelect;
    if (f.selR >= 0 && m.rightSelect >= 0) cell(m.step, f.selR) = m.rightSelect;
  }
  for (const RegLoad& rl : fsm.regLoads)
    if (rl.step >= 1)  // input preloads ride reset, not the ROM
      cell(rl.step, load[static_cast<std::size_t>(rl.reg)]) = 1;

  // Control-transfer fields: linear controllers need none (every word falls
  // through to the next), so they appear only when the FSM deviates —
  // value 0 encodes halt, 1..words name the target row.
  if (!fsm.linearControl()) {
    const int ctrlBits = bitsFor(static_cast<std::size_t>(fsm.numSteps) + 1);
    bool needAlt = false;
    for (int s = 1; s <= fsm.numSteps; ++s)
      needAlt = needAlt || fsm.successorsOf(s).size() > 1;
    const int nextF = addField(Kind::Next, -1, ctrlBits);
    const int altF = needAlt ? addField(Kind::AltNext, -1, ctrlBits) : -1;
    for (auto& row : rom.rows) row.resize(rom.fields.size(), -1);
    for (int s = 1; s <= fsm.numSteps; ++s) {
      const std::vector<int> succ = fsm.successorsOf(s);
      cell(s, nextF) = succ.empty() ? 0 : succ[0];
      if (altF >= 0 && succ.size() > 1) cell(s, altF) = succ[1];
    }
  }
  return rom;
}

std::string MicrocodeRom::toString() const {
  std::string out = util::format("microcode ROM: %d words x %d bits = %d bits\n",
                                 words, wordBits(), totalBits());
  out += "  fields:";
  for (const auto& f : fields) out += util::format(" %s[%d]", f.name().c_str(), f.bits);
  out += "\n";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    out += util::format("  step %2zu:", r + 1);
    for (std::size_t f = 0; f < fields.size(); ++f) {
      const int v = rows[r][f];
      out += v < 0 ? " -" : util::format(" %d", v);
    }
    out += "\n";
  }
  return out;
}

}  // namespace mframe::rtl
