/**
 * @file
 * Two-level warp scheduler study on one benchmark.
 *
 * Usage:
 *   ./build/examples/scheduler_study [workload-name]
 *
 * Sweeps the active-set size of the two-level scheduler (Section 2.2)
 * and prints IPC, so the "no performance loss with 8 active warps"
 * tradeoff can be inspected per workload. A smaller active set means a
 * smaller ORF/LRF (only active warps hold entries), so this sweep is
 * the performance half of the hierarchy sizing decision.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "core/report.h"
#include "sim/pipeline.h"
#include "sim/pipeline_account.h"
#include "sim/trace.h"
#include "workloads/registry.h"

int
main(int argc, char **argv)
{
    using namespace rfh;

    std::string name = argc > 1 ? argv[1] : "scalarprod";
    const Workload &w = workloadByName(name);
    std::printf("Two-level scheduler study: %s\n\n", w.name.c_str());

    // One recorded stream of the 32 resident warps drives every
    // active-set size.
    RunConfig rc;
    rc.numWarps = 32;
    DecodedTrace trace = recordDecodedTrace(w.kernel, rc);
    ReplayDecode dec(w.kernel);
    PipelineConfig cfg;
    const int kActiveSet[] = {1, 2, 4, 6, 8, 12, 16, 24, 32};
    std::vector<PipelineStats> runs;
    for (int a : kActiveSet) {
        cfg.activeWarps = a;
        AccessCounts counts;
        auto acct = makeFlatAccounting(w.kernel, &dec, counts);
        runs.push_back(runPipeline(trace, dec, *acct, cfg).stats);
    }
    const PipelineStats &flat = runs.back();
    TextTable t({"Active warps", "IPC", "vs flat", "Deschedules"});
    for (std::size_t i = 0; i < runs.size(); i++)
        t.addRow({std::to_string(kActiveSet[i]), fmt(runs[i].ipc(), 3),
                  pct(flat.ipc() > 0 ? runs[i].ipc() / flat.ipc() : 0),
                  std::to_string(runs[i].swaps)});
    std::printf("%s\n", t.str().c_str());
    std::printf("%d resident warps; ALU %d cy, shared mem %d cy, "
                "DRAM %d cy (Table 2).\n", rc.numWarps, cfg.aluLatency,
                cfg.sharedMemLatency, cfg.dramLatency);
    return 0;
}
