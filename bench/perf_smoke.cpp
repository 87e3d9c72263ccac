/**
 * @file
 * Simulator smoke sweep: runs a fixed set of OLTP and DSS
 * configurations and writes an aggregated machine-readable report to
 * BENCH_sim_perf.json (override with --json PATH).  The report holds
 * simulated results only, so it is byte-identical for the same flags;
 * CI drives it through the kill/resume, checkpoint and ThreadSanitizer
 * jobs.  Simulator speed is measured by simbench/ instead.
 *
 * Usage: perf_smoke [--jobs N] [--json PATH]
 *        plus the shared fault-tolerance flags (bench_util.hpp):
 *        [--journal PATH|none] [--resume JOURNAL] [--on-failure abort|collect]
 *        [--item-timeout-sec S]
 *        and the checkpoint/epoch-hash flags (DESIGN.md §5g):
 *        [--checkpoint-dir DIR] [--checkpoint-interval CYCLES]
 *        [--state-hash-interval CYCLES]
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hpp"

#include "core/cli_guard.hpp"

static int
run(dbsim::bench::BenchOptions opts)
{
    using namespace dbsim;

    if (opts.json_path.empty())
        opts.json_path = "BENCH_sim_perf.json";

    bench::BenchContext ctx("perf_smoke", opts);

    std::vector<core::SweepItem> items;
    for (const auto kind :
         {core::WorkloadKind::Oltp, core::WorkloadKind::Dss}) {
        for (const std::uint32_t nodes : {4u, 1u}) {
            char label[32];
            std::snprintf(label, sizeof(label), "%s-%unode",
                          core::workloadName(kind), nodes);
            items.push_back({label, core::makeScaledConfig(kind, nodes)});
        }
    }

    const auto results = ctx.sweep("perf", items);

    core::printHeader(std::cout, "Simulator smoke sweep");
    std::printf("  jobs: %u\n\n", ctx.runner().jobs());
    std::printf("  %-14s %12s %12s %6s\n", "config", "cycles", "instrs",
                "IPC");
    for (const auto &r : results) {
        std::printf("  %-14s %12llu %12llu %6.2f\n", r.label.c_str(),
                    static_cast<unsigned long long>(r.run.cycles),
                    static_cast<unsigned long long>(r.run.instructions),
                    r.run.ipc);
    }
    // finish() returns nonzero when the JSON report could not be
    // written (or items failed under collect); CI keys off the
    // exit code, so never announce a report that is not actually there.
    const int code = ctx.finish();
    if (code == 0)
        std::cout << "\nreport: " << opts.json_path << "\n";
    else
        std::cerr << "perf_smoke: finishing with exit code " << code
                  << " (report " << opts.json_path << " is stale or "
                  << "incomplete)\n";
    return code;
}

int
main(int argc, char **argv)
{
    return dbsim::core::guardedMain(
        [&] { return run(dbsim::bench::parseBenchArgs(argc, argv)); });
}
