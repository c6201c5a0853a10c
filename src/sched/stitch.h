// Stitching a re-scheduled cone back into its enclosing schedule — the
// splice step of the `mframe tune` loop. The cone scheduler only sees the
// extracted subgraph; this module re-embeds its placements into the full
// schedule, honoring the frontier boundary (every cone member must start
// after its out-of-cone producers finish), shifting the downstream tail when
// the cone got longer, and re-packing FU columns so occupancy stays legal.
#pragma once

#include <optional>
#include <string>

#include "dfg/transforms.h"
#include "sched/schedule.h"

namespace mframe::sched {

struct StitchResult {
  Schedule schedule;   ///< the stitched full schedule
  int base = 0;        ///< full-schedule step cone step 1 landed on
  int delta = 0;       ///< steps the downstream tail shifted (>= 0)
};

/// Splice `coneSched` (a schedule of `cut.cone`) into `full`. The cone block
/// is placed at the earliest step that satisfies every frontier dependence
/// and is no earlier than the original window start; operations strictly
/// after the original window shift down by the cone's growth; every FU
/// column is re-assigned left-edge style (by start step, then original
/// column, then id) so the merged placement is occupancy-clean. The result
/// is checked with analysis::lintSchedule under `c` — on any finding the
/// stitch is abandoned, *error (when given) describes why, and nullopt is
/// returned.
std::optional<StitchResult> stitchSchedule(const Schedule& full,
                                           const Constraints& c,
                                           const dfg::ConeCut& cut,
                                           const Schedule& coneSched,
                                           std::string* error = nullptr);

}  // namespace mframe::sched
