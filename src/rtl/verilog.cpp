#include "rtl/verilog.h"

#include <algorithm>
#include <cctype>

#include "rtl/step_index.h"
#include "trace/trace.h"
#include "util/strings.h"

namespace mframe::rtl {

namespace {

std::string ident(const std::string& s) {
  std::string out;
  for (char c : s)
    out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0])))
    out.insert(out.begin(), 's');
  return out;
}

std::string verilogOp(dfg::OpKind k, const std::string& a, const std::string& b) {
  using dfg::OpKind;
  switch (k) {
    case OpKind::Add: return a + " + " + b;
    case OpKind::Sub: return a + " - " + b;
    case OpKind::Mul: return a + " * " + b;
    case OpKind::Div: return a + " / " + b;
    case OpKind::Inc: return a + " + 1";
    case OpKind::Dec: return a + " - 1";
    case OpKind::And: return a + " & " + b;
    case OpKind::Or: return a + " | " + b;
    case OpKind::Xor: return a + " ^ " + b;
    case OpKind::Not: return "~" + a;
    case OpKind::Shl: return a + " << " + b;
    case OpKind::Shr: return a + " >> " + b;
    case OpKind::Eq: return "{15'b0, " + a + " == " + b + "}";
    case OpKind::Ne: return "{15'b0, " + a + " != " + b + "}";
    case OpKind::Lt: return "{15'b0, " + a + " < " + b + "}";
    case OpKind::Gt: return "{15'b0, " + a + " > " + b + "}";
    case OpKind::Le: return "{15'b0, " + a + " <= " + b + "}";
    case OpKind::Ge: return "{15'b0, " + a + " >= " + b + "}";
    default: return a;  // LoopSuper etc. are placeholders
  }
}

}  // namespace

std::string toVerilog(const Datapath& d, const ControllerFsm& fsm, int width) {
  const trace::Span span("rtl.verilog");
  const dfg::Dfg& g = *d.graph;
  std::string v;
  const std::string mod = ident(g.name());

  // Ports: clock/reset, every primary input, every primary output.
  std::vector<std::string> ports{"clk", "rst"};
  for (const dfg::Node& n : g.nodes())
    if (n.kind == dfg::OpKind::Input) ports.push_back("in_" + ident(n.name));
  for (const auto& [id, ext] : g.outputs()) ports.push_back("out_" + ident(ext));

  v += util::format("// Generated by libmframe (MFSA) from DFG '%s'\n",
                    g.name().c_str());
  v += "module " + mod + "(" + util::join(ports, ", ") + ");\n";
  v += "  input clk, rst;\n";
  for (const dfg::Node& n : g.nodes())
    if (n.kind == dfg::OpKind::Input)
      v += util::format("  input [%d:0] in_%s;\n", width - 1, ident(n.name).c_str());
  for (const auto& [id, ext] : g.outputs())
    v += util::format("  output [%d:0] out_%s;\n", width - 1, ident(ext).c_str());

  v += util::format("\n  reg [7:0] state;\n");
  for (std::size_t r = 0; r < d.regs.count(); ++r)
    v += util::format("  reg [%d:0] R%zu;\n", width - 1, r);
  for (const AluInstance& a : d.alus)
    v += util::format("  reg [%d:0] alu%d_a, alu%d_b;\n  reg [%d:0] alu%d_y;\n",
                      width - 1, a.index, a.index, width - 1, a.index);

  // Source expression helper text.
  auto srcExpr = [&](const alloc::Source& s) -> std::string {
    switch (s.kind) {
      case alloc::Source::Kind::Register: return util::format("R%d", s.index);
      case alloc::Source::Kind::AluOut: return util::format("alu%d_y", s.index);
      case alloc::Source::Kind::PrimaryInput:
        return "in_" + ident(g.node(s.node).name);
      case alloc::Source::Kind::Constant:
        return util::format("%d'd%ld", width, g.node(s.node).constValue);
    }
    return "0";
  };

  // Combinational ALU input muxes + function selection, driven by state.
  const StepIndex idx(d, fsm);
  v += "\n  always @(*) begin\n";
  for (const AluInstance& a : d.alus)
    v += util::format("    alu%d_a = 0; alu%d_b = 0; alu%d_y = 0;\n", a.index,
                      a.index, a.index);
  v += "    case (state)\n";
  for (int s = 1; s <= fsm.numSteps; ++s) {
    std::string body;
    for (const MicroOp* m : idx.issues[static_cast<std::size_t>(s)]) {
      const auto ai = static_cast<std::size_t>(m->alu);
      const dfg::Node& n = g.node(m->op);
      const alloc::MuxArrangement::Ports p = d.arrangement[ai].portSignals(n);
      const auto operand = [&](const alloc::PortWiring& w,
                               dfg::NodeId signal) -> std::string {
        const alloc::Source* src =
            signal == dfg::kNoNode ? nullptr : w.sourceFor(m->op, signal);
        return src ? srcExpr(*src) : std::string("0");
      };
      body += util::format("        alu%d_a = %s; alu%d_b = %s;\n", m->alu,
                           operand(d.leftPort[ai], p.left).c_str(), m->alu,
                           operand(d.rightPort[ai], p.right).c_str());
      body += util::format("        alu%d_y = %s; // %s\n", m->alu,
                           verilogOp(n.kind, util::format("alu%d_a", m->alu),
                                     util::format("alu%d_b", m->alu))
                               .c_str(),
                           n.name.c_str());
    }
    if (!body.empty()) v += util::format("      8'd%d: begin\n%s      end\n", s, body.c_str());
  }
  v += "      default: ;\n    endcase\n  end\n";

  // Sequential: FSM counter and register loads.
  v += "\n  always @(posedge clk) begin\n    if (rst) begin\n      state <= 1;\n";
  for (const RegLoad* r : idx.loads[0])
    v += util::format("      R%d <= in_%s;\n", r->reg,
                      ident(g.node(r->signal).name).c_str());
  v += "    end else begin\n";
  v += util::format(
      "      state <= (state == 8'd%d) ? 8'd%d : state + 8'd1;\n",
      fsm.numSteps, fsm.numSteps);
  v += "      case (state)\n";
  for (int s = 1; s <= fsm.numSteps; ++s) {
    std::string body;
    for (const RegLoad* r : idx.loads[static_cast<std::size_t>(s)])
      if (r->fromAlu >= 0)
        body += util::format("          R%d <= alu%d_y; // %s\n", r->reg,
                             r->fromAlu, g.node(r->signal).name.c_str());
    if (!body.empty())
      v += util::format("        8'd%d: begin\n%s        end\n", s, body.c_str());
  }
  v += "        default: ;\n      endcase\n    end\n  end\n";

  // Output wiring: from the register holding the value, or the ALU output.
  for (const auto& [id, ext] : g.outputs()) {
    const int reg = d.registerOf(id);
    const int alu = d.aluIndexOf(id);
    if (reg >= 0)
      v += util::format("  assign out_%s = R%d;\n", ident(ext).c_str(), reg);
    else if (alu >= 0)
      v += util::format("  assign out_%s = alu%d_y;\n", ident(ext).c_str(),
                        alu);
    else if (g.node(id).kind == dfg::OpKind::Input)
      v += util::format("  assign out_%s = in_%s;\n", ident(ext).c_str(),
                        ident(g.node(id).name).c_str());
  }
  v += "endmodule\n";
  return v;
}

}  // namespace mframe::rtl
