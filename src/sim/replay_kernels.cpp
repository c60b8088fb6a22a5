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

void
packReplayPlanes(const std::uint8_t *flags, std::size_t n,
                 std::uint64_t *execWords)
{
    const std::size_t words = (n + 63) / 64;
    for (std::size_t w = 0; w < words; w++) {
        std::uint64_t e = 0;
        const std::size_t base = w * 64;
        const std::size_t lim = n - base < 64 ? n - base : 64;
        for (std::size_t b = 0; b < lim; b++)
            e |= static_cast<std::uint64_t>(flags[base + b] & 1u) << b;
        execWords[w] = e;
    }
}

void
histogramRecords(const std::int32_t *lin, std::size_t n,
                 std::uint32_t *histAll)
{
    for (std::size_t t = 0; t < n; t++)
        histAll[lin[t]]++;
}

void
histogramClearBits(const std::uint64_t *words, const std::int32_t *lin,
                   std::size_t n, std::uint32_t *hist)
{
    const std::size_t nwords = (n + 63) / 64;
    for (std::size_t w = 0; w < nwords; w++) {
        std::uint64_t clear = ~words[w];
        if (w == nwords - 1 && (n % 64) != 0)
            clear &= (std::uint64_t{1} << (n % 64)) - 1;
        while (clear) {
            const int b = __builtin_ctzll(clear);
            clear &= clear - 1;
            hist[lin[w * 64 + b]]++;
        }
    }
}

} // namespace rfh
