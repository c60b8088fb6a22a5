/**
 * @file
 * Corpus-scale scenario sweeps: population statistics over tens of
 * thousands of generated kernels.
 *
 * Where the golden suite pins the paper's figures at ~20 hand-written
 * kernels (five golden points), the corpus engine turns each claim
 * into a population statement with error bars: it streams kernels
 * drawn from named scenario profiles (workloads/profiles.h) through
 * the batched replay engine, one chunk at a time, and folds each
 * run's energy ratio, per-level access shares, allocator decisions,
 * and (optionally) pipeline IPC into exactly-mergeable streaming
 * statistics (core/stats.h) per (profile, scheme, entries) cell.
 *
 * Determinism contract: sample values are quantized through the
 * result-JSON wire format before folding and the fold itself is exact
 * integer arithmetic, so the aggregate document is byte-identical
 * across thread counts, across repeated runs, and across execution
 * substrates — a local run and a run served by `rfhc serve` produce
 * the same bytes (service/corpus_client.h drives the served variant
 * through this module's accumulator).
 */

#ifndef RFH_CORE_CORPUS_H
#define RFH_CORE_CORPUS_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/stats.h"
#include "workloads/profiles.h"

namespace rfh {

class ThreadPool;
struct JsonValue;

/** One aggregation cell: a scheme at one entries-per-thread point. */
struct CorpusCell
{
    Scheme scheme;
    int entries = 3;
};

/**
 * The default cell grid: every paper-or-contributed scheme whose
 * capabilities sweep the entries axis, at entries {1, 2, 3, 4, 6, 8}.
 */
std::vector<CorpusCell> defaultCorpusCells();

/** Corpus run configuration. */
struct CorpusConfig
{
    /** Profile names ("all" expands to every builtin). */
    std::vector<std::string> profiles = {"all"};
    /** Kernels generated per resolved profile. */
    int kernelsPerProfile = 256;
    /** Aggregation cells; empty means defaultCorpusCells(). */
    std::vector<CorpusCell> cells;
    /** Corpus-level seed folded into every per-kernel parameter draw. */
    std::uint64_t seed = 1;
    /** Kernels per replayBatch slice (bounds peak memo-cache size). */
    int chunk = 64;
    /** Override every profile's warp count (0 = profile default). */
    int warps = 0;
    /** Also run the cycle-level pipeline and aggregate IPC. */
    bool perf = false;
    /** Pipeline timing knobs when @c perf is set. */
    PipelineConfig pipeline;
    /** Bootstrap resamples behind each confidence band. */
    int bootstrapResamples = 200;
    /** Two-sided confidence level of the bands. */
    double confidence = 0.95;
    /**
     * Drop the process-wide experiment caches after each chunk so a
     * 10k-kernel corpus runs in bounded memory. Tests sharing a
     * process may turn this off.
     */
    bool clearCaches = true;
};

/**
 * One run's folded observation. Every field is either an exact
 * integer count widened to double or a wire-rounded real, so samples
 * extracted locally (corpusSampleFromOutcome) and from a service
 * result document (corpusSampleFromResultJson) are bit-identical.
 */
struct CorpusSample
{
    double normalizedEnergy = 0.0;
    /** Per-level read/write counts, MRF/ORF/LRF order. */
    double reads[3] = {0, 0, 0};
    double writes[3] = {0, 0, 0};
    double instructions = 0.0;
    /** Allocator decisions (zero for hardware-managed schemes). */
    double valueInstances = 0.0;
    double lrfValues = 0.0;
    double orfValues = 0.0; ///< Full + partial ORF allocations.
    double mrfWritesElided = 0.0;
    /** Cycle-level pipeline outcome (when the run carried perf). */
    bool hasPerf = false;
    double cycles = 0.0;
    double issued = 0.0;
};

/** Extract the sample of a local run outcome (wire-quantized). */
CorpusSample corpusSampleFromOutcome(const RunOutcome &o);

/**
 * Extract the sample of a parsed service result document (the
 * "result" object of a response envelope). @return false with a
 * message when required fields are missing.
 */
bool corpusSampleFromResultJson(const JsonValue &result,
                                CorpusSample &out, std::string *err);

/** Population statistics of one (profile, cell). */
struct CorpusCellStats
{
    CorpusCell cell;
    /** Registry token of the cell's scheme, e.g. "sw3". */
    std::string schemeToken;
    StreamStat energyRatio;
    /** Reads (writes) at each level / all reads (writes), MRF/ORF/LRF. */
    StreamStat readShare[3];
    StreamStat writeShare[3];
    /** Fractions of value instances, folded for allocator schemes. */
    StreamStat orfFrac;
    StreamStat lrfFrac;
    StreamStat elideFrac;
    /** Pipeline IPC, folded when runs carry perf. */
    StreamStat ipc;
    std::uint64_t runs = 0;
    std::uint64_t errors = 0;
    std::string firstError;
};

/** Population statistics of one resolved profile. */
struct CorpusProfileStats
{
    ScenarioProfile profile;
    std::uint64_t kernels = 0;
    /** Dynamic (warp) instructions per kernel. */
    StreamStat dynInstrs;
    std::vector<CorpusCellStats> cells;
};

/** The full corpus aggregate. */
struct CorpusResult
{
    /** The resolved configuration that produced the aggregate. */
    CorpusConfig config;
    std::vector<CorpusProfileStats> profiles;
    std::uint64_t totalRuns = 0;
    std::uint64_t totalErrors = 0;
    /** Observability only; excluded from corpusToJson. */
    double wallSec = 0.0;
};

/**
 * Order-canonical fold of samples into per-(profile, cell) streaming
 * statistics. Shared by the local runner and the corpus client so both
 * substrates aggregate identically; thanks to the exact merge the
 * fold order cannot change any byte, but callers still fold in
 * (kernel index, cell index) order by convention.
 */
class CorpusAccumulator
{
  public:
    /**
     * @param cfg resolved configuration (cells non-empty).
     * @param profiles the resolved profile set.
     */
    CorpusAccumulator(const CorpusConfig &cfg,
                      std::vector<ScenarioProfile> profiles);

    /** Fold one run's sample into (profileIdx, cellIdx). */
    void fold(int profileIdx, int cellIdx, const CorpusSample &s);

    /** Record a failed run of (profileIdx, cellIdx). */
    void foldError(int profileIdx, int cellIdx,
                   const std::string &message);

    /** Record one generated kernel's dynamic instruction count. */
    void foldKernel(int profileIdx, double instructions);

    /** Finish and move the aggregate out. */
    CorpusResult take();

  private:
    CorpusResult result_;
};

/**
 * Run the corpus locally: generate each profile's kernels chunk by
 * chunk (fanned out across @p pool), execute every (kernel, cell)
 * pair through replayBatch, and fold. On a configuration error
 * (unknown profile, unregistered scheme, out-of-range entries)
 * returns false and sets @p err; the message lists the valid names,
 * mirroring the service's unknown_scheme/unknown-profile pattern.
 */
bool runCorpus(const CorpusConfig &cfg, CorpusResult &out,
               ThreadPool *pool = nullptr, std::string *err = nullptr);

/**
 * The "rfh-corpus-v1" aggregate document: per profile, per cell, the
 * full streaming summaries with bootstrap bands on the energy ratio.
 * A pure function of the aggregate state — byte-identical across
 * thread counts, shard layouts, and local/service substrates.
 */
std::string corpusToJson(const CorpusResult &r);

/**
 * Aligned text summary: per profile x scheme, the lowest-mean-energy
 * cell with its confidence band and population quantiles.
 */
std::string renderCorpusSummary(const CorpusResult &r);

/**
 * Resolve and validate @p cfg without running anything: expand
 * profiles, default empty cells, range-check entries and scheme
 * registration, and require a band confidence in (0,1) and at least
 * one bootstrap resample. Shared by the local runner and the corpus
 * client.
 */
bool resolveCorpusConfig(const CorpusConfig &cfg,
                         std::vector<ScenarioProfile> &profiles,
                         std::vector<CorpusCell> &cells,
                         std::string *err);

} // namespace rfh

#endif // RFH_CORE_CORPUS_H
