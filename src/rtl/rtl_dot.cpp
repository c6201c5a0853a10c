#include "rtl/rtl_dot.h"

#include <set>

#include "util/strings.h"

namespace mframe::rtl {

namespace {

std::string sourceId(const alloc::Source& s) {
  using K = alloc::Source::Kind;
  switch (s.kind) {
    case K::Register: return util::format("reg%d", s.index);
    case K::AluOut: return util::format("alu%d", s.index);
    case K::PrimaryInput: return util::format("in%u", s.node);
    case K::Constant: return util::format("const%u", s.node);
  }
  return "unknown";
}

}  // namespace

std::string toDot(const Datapath& d) {
  const dfg::Dfg& g = *d.graph;
  std::string out = "digraph \"" + g.name() + "_rtl\" {\n  rankdir=LR;\n";

  // Nodes.
  for (const AluInstance& a : d.alus)
    out += util::format("  alu%d [shape=invtrapezium, label=\"ALU%d %s\"];\n",
                        a.index, a.index,
                        d.lib->module(a.module).signature().c_str());
  for (std::size_t r = 0; r < d.regs.count(); ++r)
    out += util::format("  reg%zu [shape=box, label=\"R%zu\"];\n", r, r);

  std::set<std::string> declared;
  auto declareSource = [&](const alloc::Source& s) {
    const std::string id = sourceId(s);
    if (!declared.insert(id).second) return id;
    if (s.kind == alloc::Source::Kind::PrimaryInput)
      out += util::format("  %s [shape=invtriangle, label=\"%s\"];\n",
                          id.c_str(), g.node(s.node).name.c_str());
    else if (s.kind == alloc::Source::Kind::Constant)
      out += util::format("  %s [shape=plaintext, label=\"%ld\"];\n",
                          id.c_str(), g.node(s.node).constValue);
    return id;
  };

  // Mux edges: source -> ALU port, labeled with the select index.
  for (const AluInstance& a : d.alus) {
    const auto ai = static_cast<std::size_t>(a.index);
    auto port = [&](const alloc::PortWiring& w, const char* name) {
      for (std::size_t i = 0; i < w.sources.size(); ++i) {
        const std::string id = declareSource(w.sources[i]);
        out += util::format("  %s -> alu%d [label=\"%s%zu\"];\n", id.c_str(),
                            a.index, name, i);
      }
    };
    port(d.leftPort[ai], "a");
    port(d.rightPort[ai], "b");
  }
  // Register write edges: producing ALU -> register, in NodeId order.
  for (dfg::NodeId signal = 0; signal < g.size(); ++signal) {
    const int reg = d.registerOf(signal);
    const int alu = d.aluIndexOf(signal);
    if (reg >= 0 && alu >= 0)
      out += util::format("  alu%d -> reg%d [style=dashed, label=\"%s\"];\n",
                          alu, reg, g.node(signal).name.c_str());
  }
  out += "}\n";
  return out;
}

}  // namespace mframe::rtl
