/**
 * @file
 * Reproduces the two-level warp scheduler performance validation
 * (Section 6, first claim; simulation parameters in Table 2): with 8
 * active warps out of 32 machine-resident warps, the SM suffers no
 * performance penalty relative to scheduling all 32 warps at once.
 */

#include <cstdio>

#include "bench_util.h"
#include "core/report.h"
#include "sim/pipeline.h"
#include "sim/pipeline_account.h"
#include "sim/trace.h"
#include "workloads/registry.h"

using namespace rfh;

int
main()
{
    bench::header("Table 2 / two-level scheduler performance",
                  "no performance loss with >=8 active warps (of 32)");

    PipelineConfig cfg;
    RunConfig rc;
    rc.numWarps = 32;
    std::printf("\nSimulation parameters (Table 2): 32-wide SIMT, ALU %d, "
                "SFU %d, shared mem %d,\nTEX %d, DRAM %d cycles; %d "
                "resident warps.\n\n",
                cfg.aluLatency, cfg.sfuLatency, cfg.sharedMemLatency,
                cfg.texLatency, cfg.dramLatency, rc.numWarps);

    const int kActiveSet[] = {1, 2, 4, 6, 8, 12, 16, 32};

    TextTable t({"Benchmark", "A=1", "A=2", "A=4", "A=6", "A=8", "A=12",
                 "A=16", "A=32"});
    double sum8 = 0, sum32 = 0;
    int n = 0;
    const char *samples[] = {"scalarprod", "matrixmul", "mandelbrot",
                             "nbody", "histogram", "montecarlo",
                             "hotspot", "sortingnetworks"};
    for (const char *name : samples) {
        const Workload &w = workloadByName(name);
        DecodedTrace trace = recordDecodedTrace(w.kernel, rc);
        ReplayDecode dec(w.kernel);
        std::vector<std::string> row = {w.name};
        double ipc8 = 0, ipc32 = 0;
        for (int a : kActiveSet) {
            cfg.activeWarps = a;
            AccessCounts counts;
            auto acct = makeFlatAccounting(w.kernel, &dec, counts);
            double ipc = runPipeline(trace, dec, *acct, cfg).stats.ipc();
            row.push_back(fmt(ipc, 3));
            if (a == 8)
                ipc8 = ipc;
            if (a == 32)
                ipc32 = ipc;
        }
        t.addRow(row);
        sum8 += ipc8;
        sum32 += ipc32;
        n++;
    }
    std::printf("IPC vs active-set size A (two-level scheduler; A=32 is "
                "the flat scheduler)\n%s\n", t.str().c_str());

    bench::compare("IPC(A=8) / IPC(A=32), average (%)", 100.0,
                   100.0 * (sum8 / n) / (sum32 / n));
    return 0;
}
