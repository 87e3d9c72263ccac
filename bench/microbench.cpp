/**
 * @file
 * google-benchmark microbenchmarks of the simulator's own hot paths:
 * cache array lookups, MSHR file operations, branch prediction, the
 * scheduler, and trace generation.  End-to-end simulator speed is
 * measured by simbench/.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "cpu/branch_predictor.hpp"
#include "memory/cache.hpp"
#include "memory/mshr.hpp"
#include "sim/scheduler.hpp"
#include "workload/oltp_engine.hpp"

using namespace dbsim;

namespace {

void
BM_CacheAccess(benchmark::State &state)
{
    mem::CacheArray cache(512 * 1024, 4, 64);
    Rng rng(7);
    // Pre-fill.
    for (int i = 0; i < 16384; ++i)
        cache.insert(rng.below(1 << 24) * 64, mem::CoherState::Shared);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(rng.below(1 << 24) * 64));
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_MshrAllocDrain(benchmark::State &state)
{
    mem::MshrFile mshr(8);
    Cycles now = 0;
    for (auto _ : state) {
        ++now;
        mshr.drain(now);
        mshr.allocate(now * 64, true, now, now + 100);
    }
}
BENCHMARK(BM_MshrAllocDrain);

void
BM_BranchPredict(benchmark::State &state)
{
    cpu::BranchPredictor bp;
    Rng rng(3);
    trace::TraceRecord rec;
    rec.op = trace::OpClass::BranchCond;
    for (auto _ : state) {
        rec.pc = 0x1000 + rng.below(4096) * 4;
        rec.taken = rng.chance(0.7);
        benchmark::DoNotOptimize(bp.predict(rec));
    }
}
BENCHMARK(BM_BranchPredict);

/**
 * The run loop's per-iteration event-skip query with N blocked
 * processes.  Was a linear scan of the blocked list; now the heap root.
 */
void
BM_SchedulerNextWake(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    sim::Scheduler sched(1);
    std::vector<std::unique_ptr<cpu::ProcessContext>> procs;
    for (std::size_t i = 0; i < n; ++i) {
        procs.push_back(std::make_unique<cpu::ProcessContext>(
            static_cast<ProcId>(i), nullptr));
        sched.addProcess(procs.back().get(), 0);
        (void)sched.pickNext(0, 0);
        sched.block(procs.back().get(), 1'000'000 + i);
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(sched.nextWake(0));
}
BENCHMARK(BM_SchedulerNextWake)->Arg(8)->Arg(64)->Arg(512);

/**
 * Steady-state block/wake churn with N resident blocked processes:
 * every iteration wakes the earliest process and re-blocks it at the
 * back of the time window.
 */
void
BM_SchedulerBlockWake(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    sim::Scheduler sched(1);
    std::vector<std::unique_ptr<cpu::ProcessContext>> procs;
    for (std::size_t i = 0; i < n; ++i) {
        procs.push_back(std::make_unique<cpu::ProcessContext>(
            static_cast<ProcId>(i), nullptr));
        sched.addProcess(procs.back().get(), 0);
        (void)sched.pickNext(0, 0);
        sched.block(procs.back().get(), static_cast<Cycles>(i) + 1);
    }
    Cycles now = 0;
    for (auto _ : state) {
        ++now;
        cpu::ProcessContext *p = sched.pickNext(0, now);
        if (p)
            sched.block(p, now + static_cast<Cycles>(n));
    }
}
BENCHMARK(BM_SchedulerBlockWake)->Arg(8)->Arg(64)->Arg(512);

void
BM_OltpTraceGen(benchmark::State &state)
{
    workload::OltpParams p;
    p.num_procs = 1;
    workload::OltpWorkload wl(p);
    auto src = wl.makeProcess(0);
    trace::TraceRecord rec;
    for (auto _ : state) {
        if (!src->next(rec))
            state.SkipWithError("source exhausted");
        benchmark::DoNotOptimize(rec);
    }
}
BENCHMARK(BM_OltpTraceGen);

} // namespace

BENCHMARK_MAIN();
