#include "core/sweep.h"

#include "core/memo.h"
#include "core/metrics.h"
#include "core/trace_events.h"
#include "sim/baseline_exec.h"

namespace rfh {

std::vector<SweepPoint>
sweepEntries(const std::vector<Scheme> &schemes,
             const ExperimentConfig &base, ThreadPool *pool,
             SweepTiming *timing)
{
    const std::vector<Workload> &ws = allWorkloads();
    ThreadPool &p = pool ? *pool : globalPool();
    const int W = static_cast<int>(ws.size());

    std::vector<SweepPoint> points;
    std::vector<ExperimentConfig> cfgs;
    for (Scheme s : schemes) {
        for (int e = 1; e <= kMaxOrfEntries; e++) {
            SweepPoint pt;
            pt.scheme = s;
            pt.entries = e;
            points.push_back(pt);
            ExperimentConfig cfg = base;
            cfg.scheme = s;
            cfg.entries = e;
            cfgs.push_back(cfg);
        }
    }
    const int P = static_cast<int>(points.size());

    // Fan out the full (point, workload) grid; cell order is
    // point-major so the single-thread path visits the grid in the
    // historical nesting order.
    std::vector<RunOutcome> cells(static_cast<std::size_t>(P) * W);
    std::vector<double> cellSec(cells.size(), 0.0);
    TraceSpan span("sweepEntries", "sweep",
                   "{\"points\":" + std::to_string(P) +
                       ",\"cells\":" + std::to_string(P * W) + "}");
    Stopwatch wall;
    p.parallelFor(P * W, [&](int t) {
        Stopwatch cellWatch;
        cells[t] = runScheme(ws[t % W], cfgs[t / W]);
        cellSec[t] = cellWatch.elapsedSec();
    });
    double wallSec = wall.elapsedSec();
    globalMetrics().counter("sweep.calls").add();
    globalMetrics().counter("sweep.cells").add(
        static_cast<std::uint64_t>(P) * W);
    globalMetrics().timer("sweep.wall").addSec(wallSec);

    // Deterministic fold: workloads in registry order per point.
    double cpuSec = 0.0;
    for (int i = 0; i < P; i++) {
        for (int w = 0; w < W; w++) {
            std::size_t t = static_cast<std::size_t>(i) * W + w;
            accumulateOutcome(points[i].outcome, cells[t], ws[w].name);
            points[i].cpuSec += cellSec[t];
        }
        cpuSec += points[i].cpuSec;
    }
    if (timing) {
        timing->wallSec = wallSec;
        timing->cpuSec = cpuSec;
        timing->threads = p.threadCount();
    }
    return points;
}

AccessCounts
aggregateBaselineCounts()
{
    const std::vector<Workload> &ws = allWorkloads();
    ExperimentCache &cache = globalExperimentCache();
    // Warm the memoized baselines in parallel, then fold in registry
    // order for a deterministic aggregate.
    globalPool().parallelFor(
        static_cast<int>(ws.size()),
        [&](int i) { cache.baseline(ws[i].kernel, ws[i].run); });
    AccessCounts agg;
    for (const Workload &w : ws)
        agg.add(cache.baseline(w.kernel, w.run));
    return agg;
}

const SweepPoint *
bestPoint(const std::vector<SweepPoint> &points, Scheme scheme)
{
    const SweepPoint *best = nullptr;
    for (const auto &pt : points) {
        if (pt.scheme != scheme)
            continue;
        if (!best || pt.outcome.normalizedEnergy() <
            best->outcome.normalizedEnergy())
            best = &pt;
    }
    return best;
}

} // namespace rfh
