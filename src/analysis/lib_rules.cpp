#include "analysis/lib_rules.h"

#include "analysis/rules.h"
#include "util/strings.h"

namespace mframe::analysis {

LintReport lintLibrary(const celllib::CellLibrary& lib,
                       const std::set<dfg::FuType>& needed) {
  LintReport r;

  // -- LIB001: duplicate cell names (addModule drops later definitions) -----
  for (const std::string& name : lib.duplicateNames())
    r.add(diag(kLibDuplicateCell, EntityKind::Design, at("", -1, -1, name),
               util::format("duplicate cell '%s' (later definition ignored)",
                            name.c_str()),
               "give every module a unique name"));

  // -- LIB002/LIB003/LIB005: per-module attribute sanity --------------------
  for (const celllib::Module& m : lib.modules()) {
    if (m.areaUm2 <= 0.0)
      r.add(diag(kLibBadArea, EntityKind::Design, at("", -1, -1, m.name),
                 util::format("cell '%s' has non-positive area %.1f um^2",
                              m.name.c_str(), m.areaUm2),
                 "specify a positive area"));
    if (m.delayNs <= 0.0)
      r.add(diag(kLibBadDelay, EntityKind::Design, at("", -1, -1, m.name),
                 util::format("cell '%s' has non-positive delay %.1f ns",
                              m.name.c_str(), m.delayNs),
                 "specify a positive delay (chaining budgets divide by it)"));
    if (m.stages < 1)
      r.add(diag(kLibBadStages, EntityKind::Design, at("", -1, -1, m.name),
                 util::format("cell '%s' declares %d pipeline stages",
                              m.name.c_str(), m.stages),
                 "a module has at least 1 stage"));
  }

  // -- LIB004: required operation with no implementing cell -----------------
  for (dfg::FuType t : needed)
    if (lib.capableModules(t).empty())
      r.add(diag(kLibMissingCell, EntityKind::Design,
                 at("", -1, -1, std::string(dfg::fuTypeName(t))),
                 util::format("no cell implements FU type '%s'",
                              std::string(dfg::fuTypeName(t)).c_str()),
                 "add a module with the missing capability"));

  // -- LIB006: mux cost table must be monotone in input count ---------------
  for (int inputs = 2; inputs < 8; ++inputs)
    if (lib.muxCost(inputs + 1) < lib.muxCost(inputs)) {
      r.add(diag(kLibMuxTable, EntityKind::Design,
                 at("", -1, -1,
                    util::format("mux %d->%d inputs", inputs, inputs + 1)),
                 util::format("mux cost decreases from %.1f (%d inputs) to "
                              "%.1f (%d inputs)", lib.muxCost(inputs), inputs,
                              lib.muxCost(inputs + 1), inputs + 1),
                 "make the mux cost table non-decreasing"));
      break;  // one report per table is enough
    }

  return r;
}

}  // namespace mframe::analysis
