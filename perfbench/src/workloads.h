// The benchmark's workloads and how their inputs are made from the seed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "celllib/cell_library.h"
#include "dfg/dfg.h"

namespace perfbench {

enum class Workload {
  PaperFlow,  ///< the eight golden designs through the whole flow
  GraphFlow,  ///< three seeded 10^4-op random designs through the whole flow
  PaperTune,  ///< seven golden designs (all but fdct) through the tune loop
};

std::optional<Workload> parseWorkload(std::string_view name);
std::string_view workloadName(Workload w);

struct Design {
  std::string text;              ///< the .dfg text the flow receives
  mframe::dfg::Dfg reference;    ///< the generator's graph: the check's model
};

struct Inputs {
  mframe::celllib::CellLibrary lib;
  std::vector<Design> designs;
};

/// Build a workload's inputs from scratch. The same (workload, seed) always
/// gives byte-identical design texts; only graph_flow's texts depend on the
/// seed (the paper designs are fixed, their seed picks simulation vectors).
Inputs makeInputs(Workload w, std::uint32_t seed);

}  // namespace perfbench
