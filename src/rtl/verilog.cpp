#include "rtl/verilog.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <concepts>
#include <string_view>

#include "rtl/step_index.h"
#include "trace/trace.h"

namespace mframe::rtl {

namespace {

/// `name` as a Verilog identifier: every character outside [A-Za-z0-9]
/// becomes '_', and an 's' goes first when that is empty or starts with a
/// digit.
struct Ident {
  std::string_view name;
};

/// Appends straight to the module text: strings as they are, integers
/// through std::to_chars and identifiers sanitized in place, so no line is
/// built as a temporary first.
class Writer {
 public:
  explicit Writer(std::string& out) : out_(&out) {}

  Writer& operator<<(std::string_view s) {
    out_->append(s);
    return *this;
  }
  template <std::integral T>
  Writer& operator<<(T x) {
    char buf[24];
    out_->append(buf, std::to_chars(buf, buf + sizeof buf, x).ptr);
    return *this;
  }
  Writer& operator<<(char) = delete;  // would print as a number
  Writer& operator<<(Ident id) {
    const std::size_t start = out_->size();
    for (char c : id.name)
      out_->push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
    if (out_->size() == start ||
        std::isdigit(static_cast<unsigned char>((*out_)[start])))
      out_->insert(start, 1, 's');
    return *this;
  }

 private:
  std::string* out_;
};

/// How an op kind reads in Verilog around its ALU's port registers: pre,
/// aluN_a, mid, then aluN_b when binary, then post.
struct OpForm {
  std::string_view pre, mid, post;
  bool binary = false;
};

OpForm opForm(dfg::OpKind k) {
  using dfg::OpKind;
  switch (k) {
    case OpKind::Add: return {"", " + ", "", true};
    case OpKind::Sub: return {"", " - ", "", true};
    case OpKind::Mul: return {"", " * ", "", true};
    case OpKind::Div: return {"", " / ", "", true};
    case OpKind::Inc: return {"", " + 1", ""};
    case OpKind::Dec: return {"", " - 1", ""};
    case OpKind::And: return {"", " & ", "", true};
    case OpKind::Or: return {"", " | ", "", true};
    case OpKind::Xor: return {"", " ^ ", "", true};
    case OpKind::Not: return {"~", "", ""};
    case OpKind::Shl: return {"", " << ", "", true};
    case OpKind::Shr: return {"", " >> ", "", true};
    case OpKind::Eq: return {"{15'b0, ", " == ", "}", true};
    case OpKind::Ne: return {"{15'b0, ", " != ", "}", true};
    case OpKind::Lt: return {"{15'b0, ", " < ", "}", true};
    case OpKind::Gt: return {"{15'b0, ", " > ", "}", true};
    case OpKind::Le: return {"{15'b0, ", " <= ", "}", true};
    case OpKind::Ge: return {"{15'b0, ", " >= ", "}", true};
    default: return {};  // LoopSuper etc. are placeholders: aluN_a
  }
}

}  // namespace

std::string toVerilog(const Datapath& d, const ControllerFsm& fsm, int width) {
  const trace::Span span("rtl.verilog");
  const dfg::Dfg& g = *d.graph;
  std::string v;
  Writer w(v);
  const int msb = width - 1;

  // Ports: clock/reset, every primary input, every primary output.
  w << "// Generated by libmframe (MFSA) from DFG '" << g.name() << "'\n";
  w << "module " << Ident{g.name()} << "(clk, rst";
  for (const dfg::Node& n : g.nodes())
    if (n.kind == dfg::OpKind::Input) w << ", in_" << Ident{n.name};
  for (const auto& [id, ext] : g.outputs()) w << ", out_" << Ident{ext};
  w << ");\n  input clk, rst;\n";
  for (const dfg::Node& n : g.nodes())
    if (n.kind == dfg::OpKind::Input)
      w << "  input [" << msb << ":0] in_" << Ident{n.name} << ";\n";
  for (const auto& [id, ext] : g.outputs())
    w << "  output [" << msb << ":0] out_" << Ident{ext} << ";\n";

  w << "\n  reg [7:0] state;\n";
  for (std::size_t r = 0; r < d.regs.count(); ++r)
    w << "  reg [" << msb << ":0] R" << r << ";\n";
  for (const AluInstance& a : d.alus)
    w << "  reg [" << msb << ":0] alu" << a.index << "_a, alu" << a.index
      << "_b;\n  reg [" << msb << ":0] alu" << a.index << "_y;\n";

  auto source = [&](const alloc::Source* s) {
    if (s == nullptr) {
      w << "0";
      return;
    }
    switch (s->kind) {
      case alloc::Source::Kind::Register: w << "R" << s->index; return;
      case alloc::Source::Kind::AluOut: w << "alu" << s->index << "_y"; return;
      case alloc::Source::Kind::PrimaryInput:
        w << "in_" << Ident{g.node(s->node).name};
        return;
      case alloc::Source::Kind::Constant:
        w << width << "'d" << g.node(s->node).constValue;
        return;
    }
    w << "0";
  };

  // Combinational ALU input muxes + function selection, driven by state.
  const StepIndex idx(d, fsm);
  w << "\n  always @(*) begin\n";
  for (const AluInstance& a : d.alus)
    w << "    alu" << a.index << "_a = 0; alu" << a.index << "_b = 0; alu"
      << a.index << "_y = 0;\n";
  w << "    case (state)\n";
  for (int s = 1; s <= fsm.numSteps; ++s) {
    const auto& issues = idx.issues[static_cast<std::size_t>(s)];
    if (issues.empty()) continue;
    w << "      8'd" << s << ": begin\n";
    for (const MicroOp* m : issues) {
      const auto ai = static_cast<std::size_t>(m->alu);
      const dfg::Node& n = g.node(m->op);
      const alloc::MuxArrangement::Ports p = d.arrangement[ai].portSignals(n);
      const auto wired = [&](const alloc::PortWiring& pw, dfg::NodeId signal) {
        return signal == dfg::kNoNode ? nullptr : pw.sourceFor(m->op, signal);
      };
      w << "        alu" << m->alu << "_a = ";
      source(wired(d.leftPort[ai], p.left));
      w << "; alu" << m->alu << "_b = ";
      source(wired(d.rightPort[ai], p.right));
      const OpForm f = opForm(n.kind);
      w << ";\n        alu" << m->alu << "_y = " << f.pre << "alu" << m->alu
        << "_a" << f.mid;
      if (f.binary) w << "alu" << m->alu << "_b";
      w << f.post << "; // " << n.name << "\n";
    }
    w << "      end\n";
  }
  w << "      default: ;\n    endcase\n  end\n";

  // Sequential: FSM counter and register loads.
  w << "\n  always @(posedge clk) begin\n    if (rst) begin\n      state <= 1;\n";
  for (const RegLoad* r : idx.loads[0])
    w << "      R" << r->reg << " <= in_" << Ident{g.node(r->signal).name}
      << ";\n";
  w << "    end else begin\n";
  w << "      state <= (state == 8'd" << fsm.numSteps << ") ? 8'd"
    << fsm.numSteps << " : state + 8'd1;\n";
  w << "      case (state)\n";
  const auto fromAlu = [](const RegLoad* r) { return r->fromAlu >= 0; };
  for (int s = 1; s <= fsm.numSteps; ++s) {
    const auto& loads = idx.loads[static_cast<std::size_t>(s)];
    if (std::none_of(loads.begin(), loads.end(), fromAlu)) continue;
    w << "        8'd" << s << ": begin\n";
    for (const RegLoad* r : loads)
      if (fromAlu(r))
        w << "          R" << r->reg << " <= alu" << r->fromAlu << "_y; // "
          << g.node(r->signal).name << "\n";
    w << "        end\n";
  }
  w << "        default: ;\n      endcase\n    end\n  end\n";

  // Output wiring: from the register holding the value, or the ALU output.
  for (const auto& [id, ext] : g.outputs()) {
    const int reg = d.registerOf(id);
    const int alu = d.aluIndexOf(id);
    if (reg >= 0)
      w << "  assign out_" << Ident{ext} << " = R" << reg << ";\n";
    else if (alu >= 0)
      w << "  assign out_" << Ident{ext} << " = alu" << alu << "_y;\n";
    else if (g.node(id).kind == dfg::OpKind::Input)
      w << "  assign out_" << Ident{ext} << " = in_"
        << Ident{g.node(id).name} << ";\n";
  }
  w << "endmodule\n";
  return v;
}

}  // namespace mframe::rtl
