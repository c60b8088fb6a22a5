#include "sim/replay_kernels.h"

namespace rfh {

// Compiled with the loop vectorizer enabled (see src/CMakeLists.txt);
// scripts/check.sh vectorize-report rebuilds this TU with
// -fopt-info-vec-optimized and fails when the classification loop
// below stops vectorizing.

FlagsClassCounts
classifyReplayFlags(const std::uint8_t *flags, std::size_t n)
{
    std::uint64_t executed = 0;
    std::uint64_t taken = 0;
    // The designated must-vectorize loop: a dual masked reduction over
    // the flags bytes, no branches, no calls, single input stream.
    for (std::size_t i = 0; i < n; i++) {
        executed += flags[i] & 1u;
        taken += (flags[i] >> 1) & 1u;
    }
    FlagsClassCounts out;
    out.executed = executed;
    out.taken = taken;
    return out;
}

} // namespace rfh
