/**
 * @file
 * The traced per-layer ledger.
 *
 * The traced run re-executes a workload by calling each rfh layer's
 * public functions one at a time, on the same inputs and in the order
 * runCorpus / replayBatch / runScheme / runSchemePipeline and the batch
 * service call them, wrapping every call in a span. A span records its
 * name ("<layer>.<step>"), start, end and parent; a layer's self time
 * is its spans' durations minus the part their child spans cover.
 *
 * The replicas produce the same bytes as the untraced path (the corpus
 * document, the service's result line), which the benchmark checks, so
 * the ledger describes the work the untraced run really does. Layers
 * the untraced path of a workload never reaches are measured by probes
 * into a second Tracer, so their cost on the workload's inputs is still
 * reported but never counted in the layer sum.
 */

#ifndef PERFBENCH_LEDGER_H
#define PERFBENCH_LEDGER_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/corpus.h"

namespace perfbench {

/** One timed call into a layer. */
struct Span
{
    const char *name = "";  ///< Static "<layer>.<step>" string.
    int parent = -1;        ///< Index of the enclosing span, or -1.
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

/** In-memory span recorder for one thread. */
class Tracer
{
  public:
    /** Open a span nested in the innermost open one. @return its id. */
    int begin(const char *name);
    /** Close span @p id (must be the innermost open span). */
    void end(int id);

    const std::vector<Span> &
    spans() const
    {
        return spans_;
    }

    void clear();

  private:
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &t, const char *name) : t_(t), id_(t.begin(name)) {}
    ~ScopedSpan() { t_.end(id_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &t_;
    int id_;
};

/** Self time and call count of one span name. */
struct LayerTotal
{
    double selfSec = 0.0;
    std::uint64_t calls = 0;
};

/** Fold @p spans into per-name self time. */
std::map<std::string, LayerTotal>
layerTotals(const std::vector<Span> &spans);

/** Sum of self times over @p totals (seconds). */
double layerSum(const std::map<std::string, LayerTotal> &totals);

/**
 * @return "" when every span ends after it starts and lies inside its
 * parent, else a description of the first violation.
 */
std::string checkNesting(const std::vector<Span> &spans);

/** Sum of root-span durations of spans [first, last) (seconds). */
double rootSpanSec(const std::vector<Span> &spans, std::size_t first,
                   std::size_t last);

/** Work counts of a traced run; they must repeat exactly. */
struct WorkCounts
{
    std::uint64_t staticInstrs = 0;    ///< Static instructions generated.
    std::uint64_t dynInstrs = 0;       ///< Baseline dynamic instructions.
    std::uint64_t valueInstances = 0;  ///< Allocator value instances.
    std::uint64_t pipelineCycles = 0;  ///< Simulated pipeline cycles.

    bool operator==(const WorkCounts &) const = default;
};

/**
 * Traced replica of runCorpus(@p cfg) on one thread. @return the
 * rfh-corpus-v1 document, byte-identical to the untraced run's.
 */
std::string tracedCorpus(const rfh::CorpusConfig &cfg, Tracer &tr,
                         WorkCounts &wc);

/**
 * Off-path probes over @p cfg's kernels, one sw3@3 request each: the
 * RPTX parser, the protocol, the direct executor, result JSON and the
 * envelope, plus the pipeline when @p cfg has perf off.
 */
void probeCorpusLayers(const rfh::CorpusConfig &cfg, Tracer &tr,
                       WorkCounts &wc);

/**
 * Traced replica of the batch service's lone-request path for one
 * request line. @return the response line, byte-identical to the
 * server's.
 */
std::string tracedServeRequest(const std::string &line, Tracer &tr,
                               WorkCounts &wc);

/**
 * The untraced reference and output oracle for one request line:
 * parseServiceRequest, parseKernel, runScheme with ExecEngine::DIRECT,
 * outcomeToJson, makeResultLine.
 */
std::string serveRequestOracle(const std::string &line);

/**
 * Off-path probes over served request @p g: kernel generation, trace
 * recording, replay decode, the replay executor, the pipeline, and the
 * corpus fold (into @p acc, which must cover every profile and the
 * cells of serveFoldCells()).
 */
void probeServeRequest(std::uint64_t seed, std::uint64_t g, Tracer &tr,
                       WorkCounts &wc, rfh::CorpusAccumulator &acc);

/** The cells a serve-cold fold probe folds into. */
rfh::CorpusConfig serveFoldConfig(std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_LEDGER_H
