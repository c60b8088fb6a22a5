/**
 * @file
 * Data-oriented inner loop of the trace recorder.
 *
 * Classifying the per-record flags byte (executed / branch-taken) of
 * each recorded stream is a streaming pass over the
 * structure-of-arrays trace. It lives in this translation unit so a
 * single TU can be compiled with the vectorizer enabled and its
 * report checked by CI (scripts/check.sh vectorize-report): the
 * classification loop is the designated must-vectorize loop. Keep it
 * free of branches, function calls, and aliasing so the compiler can
 * prove it vectorizable.
 */

#ifndef RFH_SIM_REPLAY_KERNELS_H
#define RFH_SIM_REPLAY_KERNELS_H

#include <cstddef>
#include <cstdint>

namespace rfh {

/** Totals of one pass over a replay flags stream. */
struct FlagsClassCounts
{
    /** Records with kReplayExecuted set. */
    std::uint64_t executed = 0;
    /** Records with kReplayBranchTaken set. */
    std::uint64_t taken = 0;
};

/**
 * Classify @p n replay flags bytes in one streaming pass: how many
 * records executed (bit 0) and how many took a branch (bit 1).
 *
 * This is the vectorize-report gated loop (see file comment).
 */
FlagsClassCounts classifyReplayFlags(const std::uint8_t *flags,
                                     std::size_t n);

} // namespace rfh

#endif // RFH_SIM_REPLAY_KERNELS_H
