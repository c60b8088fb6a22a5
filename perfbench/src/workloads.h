/**
 * @file
 * The benchmark's three workloads and their seeded inputs.
 *
 *  - corpus-sweep: runCorpus over every builtin profile with the
 *    default cell grid (~37 cells share each kernel's analyses).
 *  - corpus-perf: the same kernels through sw3, hw2 and baseline at 3
 *    entries with the cycle-level pipeline on.
 *  - serve-cold: NDJSON run requests to `rfhc serve`, each carrying a
 *    distinct inline kernel printed from the corpus generator.
 *
 * Every input is a pure function of the seed, so a run can be repeated
 * exactly and its outputs checked against an in-process oracle.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/corpus.h"
#include "core/scheme.h"
#include "workloads/registry.h"

namespace perfbench {

enum class WorkloadKind
{
    CORPUS_SWEEP,
    CORPUS_PERF,
    SERVE_COLD,
};

/** @return false for an unknown workload name. */
bool parseWorkloadKind(const std::string &name, WorkloadKind &out);

/** Wire name of @p k ("corpus-sweep", ...). */
const char *workloadName(WorkloadKind k);

/** The seed whose corpus digests are recorded in expected_digests.json. */
inline constexpr std::uint64_t kDefaultSeed = 1;

/** Kernels per profile in one timed corpus call. */
inline constexpr int kCorpusKernelsPerProfile = 200;

/** Kernels per profile in the traced (per-layer) corpus run. */
inline constexpr int kTracedKernelsPerProfile = 12;

/**
 * Corpus configuration of a corpus workload: @p profiles at
 * @p kernelsPerProfile kernels each, seeded by @p seed.
 */
rfh::CorpusConfig corpusConfig(WorkloadKind kind, std::uint64_t seed,
                               std::vector<std::string> profiles,
                               int kernelsPerProfile);

/** One serve-cold request before it is printed. */
struct ServeRequestSpec
{
    int profile = 0;  ///< Index into rfh::allProfiles().
    int index = 0;    ///< Kernel index within the profile.
    rfh::Scheme scheme;
    int entries = 3;
};

/**
 * Request @p g of a serve-cold run under @p seed. Distinct @p g give
 * distinct kernels, so the server's memo caches never hit.
 */
ServeRequestSpec serveRequestSpec(std::uint64_t seed, std::uint64_t g);

/** The distinct (scheme, entries) cells of the serve-cold mix. */
std::vector<rfh::CorpusCell> serveMixCells();

/** The kernel of @p spec, generated exactly as a corpus run would. */
rfh::Workload serveWorkload(std::uint64_t seed, const ServeRequestSpec &spec);

/** Request @p g as one NDJSON line whose id is @p g. */
std::string serveRequestLine(std::uint64_t seed, std::uint64_t g);

/** The request line for @p w under @p spec with id @p g. */
std::string requestLineFor(const rfh::Workload &w,
                           const ServeRequestSpec &spec, std::uint64_t g);

/** FNV-1a 64-bit digest of @p text, as 16 hex digits. */
std::string fnv1aHex(const std::string &text);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
