// The host-speed reference. This host's speed drifts between plateaus that
// can outlast a whole run, slowing every call in it alike. A fixed piece of
// work that uses no libmframe code, timed between passes, measures how fast
// the host was during the run, and every reported time is rescaled to a
// host on which the reference takes kReferenceMs. It is built apart from
// libmframe and allocates nothing while timed, so nothing the library sets
// at build time or leaves on the heap reaches it.
#pragma once

namespace perfbench {

/// The reference's fastest run on the host the benchmark was tuned on
/// (4-vCPU Intel Xeon, GCC 12 Release).
inline constexpr double kReferenceMs = 1.65;

/// Run the reference once; returns the milliseconds it took. Throws if its
/// result is not the fixed checksum, so the compiler cannot drop the work.
double timeReference();

}  // namespace perfbench
