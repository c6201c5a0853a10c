// Cell library model: the hardware modules MFSA may allocate, with areas,
// delays and (for structural pipelining) stage counts, plus the nonlinear
// multiplexer cost table and register cost the Liapunov function of
// Section 4.1 consumes.
#pragma once

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "dfg/op.h"

namespace mframe::celllib {

/// One allocatable datapath module. A single-function unit has one
/// capability; a multifunction ALU (e.g. "(+-<)") has several. Capabilities
/// are expressed as FU types, so e.g. Comparator covers all relational op
/// kinds.
struct Module {
  std::string name;
  std::set<dfg::FuType> caps;
  double areaUm2 = 0.0;
  double delayNs = 0.0;  ///< worst-case combinational delay of any supported op
  int stages = 1;        ///< >1: structurally pipelined (one initiation per cycle)

  bool supports(dfg::FuType t) const { return caps.count(t) > 0; }

  /// The paper's "(+-<)" style signature built from FU-type symbols.
  std::string signature() const;
};

using ModuleId = int;

class CellLibrary {
 public:
  /// Library name as declared by the `library <name>` header (or set by a
  /// builder such as ncrLike). Carried through parse/serialize round-trips
  /// and used to attribute LibraryError messages.
  const std::string& name() const { return name_; }
  void setName(std::string n) { name_ = std::move(n); }

  /// Register the module; returns its id. Modules are deduplicated by name.
  ModuleId addModule(Module m);

  const std::vector<Module>& modules() const { return modules_; }
  const Module& module(ModuleId id) const { return modules_[static_cast<std::size_t>(id)]; }

  /// Ids of all modules able to perform FU type `t`, cheapest first.
  std::vector<ModuleId> capableModules(dfg::FuType t) const;

  /// The cheapest module for `t`, if any; with `pipelined`, the cheapest
  /// structurally pipelined one (stages > 1).
  std::optional<ModuleId> cheapestFor(dfg::FuType t,
                                      bool pipelined = false) const;

  /// Set the multiplexer cost table: costByInputs[r] = area of an r-input
  /// mux. Entries 0 and 1 must be 0 (a wire). Beyond the table, cost grows
  /// by the last increment.
  void setMuxCosts(std::vector<double> costByInputs);
  double muxCost(int dataInputs) const;

  /// f^MUX_max of Section 4.1: 2 * max_r (Cost(MUX_{r+1}) - Cost(MUX_r)).
  double maxMuxIncrement() const;

  void setRegCost(double areaUm2) { regCost_ = areaUm2; }
  double regCost() const { return regCost_; }

  /// Largest single-module area; used to derive the time constant C.
  double maxModuleArea() const;

  /// Validation: every FU type of `needed` has at least one capable module.
  std::optional<std::string> checkCoverage(const std::set<dfg::FuType>& needed) const;

  /// Names that addModule saw more than once (the later definition was
  /// dropped), in encounter order with repeats — lint fodder.
  const std::vector<std::string>& duplicateNames() const { return duplicateNames_; }

 private:
  std::string name_;
  std::vector<Module> modules_;
  std::vector<std::string> duplicateNames_;
  std::vector<double> muxCost_{0.0, 0.0};
  double regCost_ = 0.0;
};

}  // namespace mframe::celllib
