// The default "NCR-like" cell library.
//
// The paper prices Table-2 designs with the NCR ASIC Data Book (1989), which
// is not publicly available; this library substitutes plausible areas for a
// ~1.5um 1989-era standard-cell process and a 16-bit datapath (see DESIGN.md,
// "Substitutions"). MFSA's decisions depend only on relative costs — the
// multiplier/adder ratio, the mux-increment vs register trade-off — so the
// substitution preserves which designs win and the style-1 vs style-2 shape,
// while absolute um^2 rescale uniformly.
#pragma once

#include "celllib/cell_library.h"

namespace mframe::celllib {

/// Options tweaking the default library; the CLI sets pipelinedMultiplier
/// for --pipelined-mults.
struct NcrLikeOptions {
  bool pipelinedMultiplier = false;  ///< add a 2-stage pipelined multiplier
};

/// Build the default library: registers, a nonlinear mux table, all
/// single-function units and a set of multifunction ALUs.
CellLibrary ncrLike(const NcrLikeOptions& opt = {});

}  // namespace mframe::celllib
