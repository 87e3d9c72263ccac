/**
 * @file
 * Tests of the simulation integrity layer: config validation
 * (ConfigError), the forward-progress watchdog, the coherence invariant
 * checker, the hardened panic path with crash dumps, and the hardened
 * environment-variable parsing.
 */

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>

#include "common/errors.hpp"
#include "common/log.hpp"
#include "coherence/checker.hpp"
#include "coherence/directory.hpp"
#include "core/config.hpp"
#include "core/simulation.hpp"
#include "sim/diagnostics.hpp"
#include "sim/system.hpp"
#include "trace/source.hpp"
#include "workload/oltp_engine.hpp"

namespace dbsim {
namespace {

using trace::OpClass;
using trace::TraceRecord;

TraceRecord
rec(OpClass op, Addr pc, Addr va = kNoAddr, std::uint64_t extra = 0)
{
    TraceRecord r;
    r.op = op;
    r.pc = pc;
    r.vaddr = va;
    r.extra = extra;
    return r;
}

/** The field a ConfigError blames, or "" if the config validates. */
std::string
rejectedField(const sim::SystemParams &sp)
{
    try {
        sp.validate();
        return "";
    } catch (const ConfigError &e) {
        return e.field();
    }
}

std::string
rejectedField(const core::SimConfig &cfg)
{
    try {
        cfg.validate();
        return "";
    } catch (const ConfigError &e) {
        return e.field();
    }
}

// ---------------------------------------------------------------------
// Config validation
// ---------------------------------------------------------------------

TEST(ConfigValidation, DefaultsAndPresetsAreValid)
{
    EXPECT_NO_THROW(sim::SystemParams{}.validate());
    for (auto kind : {core::WorkloadKind::Oltp, core::WorkloadKind::Dss}) {
        EXPECT_NO_THROW(core::makeScaledConfig(kind).validate());
        EXPECT_NO_THROW(core::makePaperScaleConfig(kind).validate());
        EXPECT_NO_THROW(core::makeScaledConfig(kind, 8).validate());
    }
}

TEST(ConfigValidation, RejectsNonPowerOfTwoLineSize)
{
    sim::SystemParams sp;
    sp.node.l1i.line_bytes = 96;
    sp.node.l1d.line_bytes = 96;
    sp.node.l2.line_bytes = 96;
    EXPECT_EQ(rejectedField(sp), "system.node.l1i.line_bytes");
}

TEST(ConfigValidation, RejectsMismatchedLineSizes)
{
    sim::SystemParams sp;
    sp.node.l2.line_bytes = 128;
    EXPECT_EQ(rejectedField(sp), "system.node.*.line_bytes");
}

TEST(ConfigValidation, RejectsZeroMshrs)
{
    sim::SystemParams sp;
    sp.node.l1d.mshrs = 0;
    EXPECT_EQ(rejectedField(sp), "system.node.l1d.mshrs");
    sp.node.l1d.mshrs = 65;
    EXPECT_EQ(rejectedField(sp), "system.node.l1d.mshrs");
}

TEST(ConfigValidation, RejectsBadNodeCounts)
{
    sim::SystemParams sp;
    sp.num_nodes = 0;
    EXPECT_EQ(rejectedField(sp), "system.num_nodes");
    sp.num_nodes = 33;
    EXPECT_EQ(rejectedField(sp), "system.num_nodes");
    sp.num_nodes = 32;
    EXPECT_EQ(rejectedField(sp), "");
}

TEST(ConfigValidation, RejectsNonPowerOfTwoSetCount)
{
    sim::SystemParams sp;
    // 3-way 96 KB with 64 B lines: 512 sets (fine).  3-way 48 KB: 256
    // sets (fine).  3-way 64 KB is not divisible at all.
    sp.node.l1d = {64 * 1024, 3, 64, 1, 8, 2};
    EXPECT_EQ(rejectedField(sp), "system.node.l1d.size_bytes");
}

TEST(ConfigValidation, RejectsDegenerateCoreAndPage)
{
    sim::SystemParams sp;
    sp.core.window_size = 2;
    sp.core.issue_width = 4;
    EXPECT_EQ(rejectedField(sp), "system.core.window_size");

    sp = sim::SystemParams{};
    sp.node.page_bytes = 32; // smaller than the 64 B line
    EXPECT_EQ(rejectedField(sp), "system.node.page_bytes");

    sp = sim::SystemParams{};
    sp.core.write_buffer_size = 0;
    EXPECT_EQ(rejectedField(sp), "system.core.write_buffer_size");
}

TEST(ConfigValidation, RejectsWarmupAtOrAboveBudget)
{
    core::SimConfig cfg = core::makeScaledConfig(core::WorkloadKind::Oltp);
    cfg.warmup_instructions = cfg.total_instructions;
    EXPECT_EQ(rejectedField(cfg), "warmup_instructions");
    cfg.warmup_instructions = cfg.total_instructions + 1;
    EXPECT_EQ(rejectedField(cfg), "warmup_instructions");
    cfg.warmup_instructions = cfg.total_instructions - 1;
    EXPECT_EQ(rejectedField(cfg), "");
}

TEST(ConfigValidation, RejectsWorkloadProcessMismatch)
{
    core::SimConfig cfg = core::makeScaledConfig(core::WorkloadKind::Oltp, 4);
    cfg.oltp.num_procs = 30; // not a multiple of 4
    EXPECT_EQ(rejectedField(cfg), "oltp.num_procs");
    cfg.oltp.num_procs = 0;
    EXPECT_EQ(rejectedField(cfg), "oltp.num_procs");

    core::SimConfig dss = core::makeScaledConfig(core::WorkloadKind::Dss, 4);
    dss.dss.num_procs = 6;
    EXPECT_EQ(rejectedField(dss), "dss.num_procs");
    dss.dss.selectivity = 1.5;
    dss.dss.num_procs = 8;
    EXPECT_EQ(rejectedField(dss), "dss.selectivity");
}

TEST(ConfigValidation, MessageNamesFieldAndRemedy)
{
    sim::SystemParams sp;
    sp.node.l1d.mshrs = 0;
    try {
        sp.validate();
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("config error [system.node.l1d.mshrs]"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("at least one MSHR"), std::string::npos) << msg;
    }
}

TEST(ConfigValidation, SystemConstructorRejectsBeforeBuildingState)
{
    sim::SystemParams sp;
    sp.node.l2.line_bytes = 48;
    EXPECT_THROW(sim::System{sp}, ConfigError);
}

TEST(ConfigValidation, SimulationConstructorRejectsBeforeBuildingState)
{
    core::SimConfig cfg = core::makeScaledConfig(core::WorkloadKind::Oltp);
    cfg.warmup_instructions = cfg.total_instructions;
    EXPECT_THROW(core::Simulation{cfg}, ConfigError);
}

// ---------------------------------------------------------------------
// Forward-progress watchdog
// ---------------------------------------------------------------------

TEST(Watchdog, FiresOnArtificialDeadlockAndNamesStuckCpu)
{
    sim::SystemParams sp;
    sp.num_nodes = 1;
    sp.watchdog_cycles = 100'000;
    // Keep the safety cap far beyond the injected block so the watchdog
    // (not the max_cycles fatal) is what trips.
    sp.max_cycles = 4ull << 30;

    sim::System sys(sp);
    std::vector<TraceRecord> v;
    for (int i = 0; i < 20; ++i)
        v.push_back(rec(OpClass::IntAlu, 0x1000 + i * 4));
    // Artificial deadlock: the only process blocks on a "syscall" whose
    // wake time is two billion cycles out; nothing can retire meanwhile.
    v.push_back(rec(OpClass::SyscallBlock, 0x2000, kNoAddr, 2'000'000'000));
    v.push_back(rec(OpClass::IntAlu, 0x2004));
    sys.addProcess(std::make_unique<trace::VectorSource>(v), 0);

    PanicThrowGuard guard;
    try {
        sys.run(10'000'000);
        FAIL() << "expected the watchdog to fire";
    } catch (const SimInvariantError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("forward-progress watchdog"), std::string::npos)
            << msg;
        // The crash dump names the stuck CPU and its scheduler state.
        EXPECT_NE(msg.find("cpu0"), std::string::npos) << msg;
        EXPECT_NE(msg.find("machine state"), std::string::npos) << msg;
        EXPECT_NE(msg.find("blocked=1"), std::string::npos) << msg;
    }
}

TEST(Watchdog, DisabledWatchdogLetsLongBlocksComplete)
{
    sim::SystemParams sp;
    sp.num_nodes = 1;
    sp.watchdog_cycles = 0; // disabled
    sp.max_cycles = 4ull << 30;

    sim::System sys(sp);
    std::vector<TraceRecord> v;
    v.push_back(rec(OpClass::IntAlu, 0x1000));
    v.push_back(rec(OpClass::SyscallBlock, 0x1004, kNoAddr, 1'000'000'000));
    for (int i = 0; i < 10; ++i)
        v.push_back(rec(OpClass::IntAlu, 0x2000 + i * 4));
    sys.addProcess(std::make_unique<trace::VectorSource>(v), 0);

    const auto r = sys.run(10'000'000);
    EXPECT_EQ(r.instructions, 12u);
}

TEST(Watchdog, ToleratesLegitimateBlockingWithinWindow)
{
    sim::SystemParams sp;
    sp.num_nodes = 1;
    sp.watchdog_cycles = 50'000;
    sim::System sys(sp);
    std::vector<TraceRecord> v;
    // Repeated sub-window blocks must not trip the watchdog even though
    // each one is a long retire-free gap.
    for (int i = 0; i < 5; ++i) {
        v.push_back(rec(OpClass::IntAlu, 0x1000 + i * 16));
        v.push_back(
            rec(OpClass::SyscallBlock, 0x1004 + i * 16, kNoAddr, 40'000));
    }
    sys.addProcess(std::make_unique<trace::VectorSource>(v), 0);
    PanicThrowGuard guard;
    EXPECT_NO_THROW(sys.run(10'000'000));
}

// ---------------------------------------------------------------------
// Coherence invariant checker
// ---------------------------------------------------------------------

TEST(CoherenceChecker, CleanOltpRunHasNoViolations)
{
    sim::SystemParams sp;
    sp.num_nodes = 2;
    sp.check_coherence = true;
    sim::System sys(sp);

    workload::OltpParams op;
    op.num_procs = 8;
    workload::OltpWorkload wl(op);
    for (ProcId p = 0; p < op.num_procs; ++p)
        sys.addProcess(wl.makeProcess(p), p % 2);
    const auto r = sys.run(60'000, 10'000);

    ASSERT_NE(sys.checker(), nullptr);
    EXPECT_GT(r.instructions, 0u);
    EXPECT_GT(sys.checker()->stats().transactions, 0u);
    EXPECT_GT(sys.checker()->stats().audits, 0u);
    EXPECT_EQ(sys.checker()->stats().violations, 0u);
}

/** A cache site whose reported state the test controls directly. */
struct FakeSite : coher::CacheSite
{
    mem::CoherState st = mem::CoherState::Invalid;
    mem::CoherState siteState(Addr) override { return st; }
    void siteInvalidate(Addr) override { st = mem::CoherState::Invalid; }
    void siteDowngrade(Addr) override { st = mem::CoherState::Shared; }
};

TEST(CoherenceChecker, DetectsForeignStrongCopy)
{
    coher::CoherenceFabric fabric(2);
    FakeSite site0, site1;
    fabric.attachSite(0, &site0);
    fabric.attachSite(1, &site1);
    coher::CoherenceChecker checker(/*panic_on_violation=*/false);
    fabric.attachChecker(&checker);

    const Addr block = 0x4000;
    // Node 0 takes the line Exclusive (uncached -> E grant, owner=0).
    const auto res = fabric.read(0, block, 0, 0, 0x100);
    EXPECT_EQ(res.grant, mem::CoherState::Exclusive);
    site0.st = mem::CoherState::Exclusive;

    // Sanity: the settled state passes the audit.
    checker.auditPending(fabric, 1);
    EXPECT_EQ(checker.stats().violations, 0u);

    // Corrupt the machine: node 1 claims a Modified copy the directory
    // never granted (I3: foreign strong copy while an owner is recorded).
    site1.st = mem::CoherState::Modified;
    checker.auditBlock(fabric, block, "test", 2);
    ASSERT_EQ(checker.stats().violations, 1u);
    ASSERT_EQ(checker.violations().size(), 1u);
    const std::string &v = checker.violations().front();
    EXPECT_NE(v.find("node 1"), std::string::npos) << v;
    EXPECT_NE(v.find("recorded owner"), std::string::npos) << v;
}

TEST(CoherenceChecker, DetectsSilentStrongCopy)
{
    coher::CoherenceFabric fabric(2);
    FakeSite site0, site1;
    fabric.attachSite(0, &site0);
    fabric.attachSite(1, &site1);
    coher::CoherenceChecker checker(false);
    fabric.attachChecker(&checker);

    const Addr block = 0x8000;
    fabric.read(0, block, 0, 0, 0x100);
    site0.st = mem::CoherState::Exclusive;
    fabric.evict(0, block, 0, /*dirty=*/false, 5);
    site0.st = mem::CoherState::Invalid;
    checker.auditPending(fabric, 6);
    EXPECT_EQ(checker.stats().violations, 0u);

    // Corrupt: node 1 materializes a Modified copy of a line the
    // directory believes is uncached (I2: silent strong copy).
    site1.st = mem::CoherState::Modified;
    checker.auditBlock(fabric, block, "test", 7);
    ASSERT_EQ(checker.stats().violations, 1u);
    EXPECT_NE(checker.violations().front().find("unknown to the directory"),
              std::string::npos)
        << checker.violations().front();
}

TEST(CoherenceChecker, CountsDistinctViolatingBlocks)
{
    coher::CoherenceFabric fabric(2);
    FakeSite site0, site1;
    fabric.attachSite(0, &site0);
    fabric.attachSite(1, &site1);
    coher::CoherenceChecker checker(/*panic_on_violation=*/false);
    fabric.attachChecker(&checker);

    const Addr b1 = 0x4000, b2 = 0x8000;
    fabric.read(0, b1, 0, 0, 0x100);
    fabric.read(0, b2, 0, 10, 0x104);
    site0.st = mem::CoherState::Exclusive;
    checker.auditPending(fabric, 20);
    EXPECT_EQ(checker.stats().violations, 0u);
    EXPECT_EQ(checker.stats().violating_blocks, 0u);

    // FakeSite reports one state for every block, so node 1's bogus
    // Modified copy corrupts both lines at once.  Auditing b1 twice
    // must count two violations but only one violating block.
    site1.st = mem::CoherState::Modified;
    checker.auditBlock(fabric, b1, "test", 30);
    checker.auditBlock(fabric, b2, "test", 31);
    checker.auditBlock(fabric, b1, "test", 32);
    EXPECT_EQ(checker.stats().violations, 3u);
    EXPECT_EQ(checker.stats().violating_blocks, 2u);
    const std::vector<Addr> blocks = checker.violatingBlocks();
    ASSERT_EQ(blocks.size(), 2u);
    EXPECT_EQ(blocks[0], b1); // sorted ascending: b1 < b2
    EXPECT_EQ(blocks[1], b2);
}

// ---------------------------------------------------------------------
// Dynamic checker vs. seeded protocol mutants
// ---------------------------------------------------------------------

/** Drive read(0) -> write(1) on one block with @p bug seeded and audit;
 *  returns the checker for inspection. */
struct MutantAudit
{
    coher::CoherenceChecker checker{/*panic_on_violation=*/false};
    std::uint64_t triggers = 0;
};

MutantAudit
auditWithMutant(verify::ProtocolBug bug)
{
    FakeSite site0, site1;
    coher::CoherenceFabric fabric(2);
    fabric.attachSite(0, &site0);
    fabric.attachSite(1, &site1);
    MutantAudit out;
    fabric.attachChecker(&out.checker);
    verify::ProtocolMutator mut;
    mut.bug = bug;
    fabric.attachMutator(&mut);

    // read(0), read(1), evict(0), read(0) again (the directory-shared
    // refill path), then write(1): every fabric mutation point is on
    // this path.
    const Addr block = 0x4000;
    site0.st = fabric.read(0, block, 0, 0, 0x100).grant;
    site1.st = fabric.read(1, block, 0, 10, 0x200).grant;
    fabric.evict(0, block, 0, /*dirty=*/false, 20);
    site0.st = mem::CoherState::Invalid;
    site0.st = fabric.read(0, block, 0, 30, 0x100).grant;
    site1.st = fabric.write(1, block, 0, 40, 0x204).grant;
    out.checker.auditBlock(fabric, block, "test", 50);
    out.triggers = mut.triggers;
    return out;
}

TEST(CoherenceChecker, StaleOwnerMutantIsObservableAtAuditPoints)
{
    // The stale-owner mutant leaves the writer's Modified copy
    // unrecorded -- exactly the I2/I3 condition the dynamic checker
    // audits, so it must be flagged with a non-empty diagnostic.
    const MutantAudit a = auditWithMutant(verify::ProtocolBug::StaleOwner);
    EXPECT_GT(a.triggers, 0u);
    ASSERT_GE(a.checker.stats().violations, 1u);
    ASSERT_FALSE(a.checker.violations().empty());
    EXPECT_FALSE(a.checker.violations().front().empty());
    EXPECT_NE(a.checker.violations().front().find("directory"),
              std::string::npos)
        << a.checker.violations().front();
    EXPECT_GE(a.checker.stats().violating_blocks, 1u);
}

TEST(CoherenceChecker, WeakCopyMutantsAreBeyondAuditScopeByDesign)
{
    // Dropped invalidations and lost sharer bits leave stale *Shared*
    // copies, which the audit invariants deliberately tolerate (real
    // L2s replace clean lines silently, so sharer bits are
    // conservative).  These mutants are the model checker's job -- its
    // strict agreement and data-value invariants catch them (see
    // test_verify.cpp); here we pin down the division of labor.
    for (const verify::ProtocolBug bug :
         {verify::ProtocolBug::DroppedInvalidation,
          verify::ProtocolBug::LostSharerBit}) {
        const MutantAudit a = auditWithMutant(bug);
        EXPECT_EQ(a.checker.stats().violations, 0u)
            << verify::protocolBugName(bug);
    }
}

TEST(CoherenceChecker, PanickingModeThrowsUnderGuard)
{
    coher::CoherenceFabric fabric(2);
    FakeSite site0, site1;
    fabric.attachSite(0, &site0);
    fabric.attachSite(1, &site1);
    coher::CoherenceChecker checker; // panicking mode (the default)
    fabric.attachChecker(&checker);

    const Addr block = 0xC000;
    fabric.read(0, block, 0, 0, 0x100);
    site0.st = mem::CoherState::Exclusive;
    site1.st = mem::CoherState::Modified;

    PanicThrowGuard guard;
    EXPECT_THROW(checker.auditPending(fabric, 1), SimInvariantError);
}

// ---------------------------------------------------------------------
// Hardened panic path
// ---------------------------------------------------------------------

/** DBSIM_PANIC under the caller's PanicThrowGuard; the thrown text. */
template <typename... Args>
std::string
panicMessage(const Args &...args)
{
    try {
        DBSIM_PANIC(args...);
    } catch (const SimInvariantError &e) {
        return e.what();
    }
}

TEST(PanicPath, CrashDumpsRunBeforeThrow)
{
    const int h = registerCrashDump(
        "integrity test", [] { return std::string("MARKER_FROM_DUMP"); });

    // A second thread registers its own dump and stays blocked while
    // this thread panics.  That dump describes the other thread's live
    // machine, so this panic must not run it.
    std::mutex mu;
    std::condition_variable cv;
    bool registered = false, release = false;
    std::thread other([&] {
        const int oh = registerCrashDump("other thread", [] {
            return std::string("MARKER_FROM_OTHER_THREAD");
        });
        std::unique_lock<std::mutex> lock(mu);
        registered = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
        unregisterCrashDump(oh);
    });
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return registered; });
    }

    PanicThrowGuard guard;
    const std::string msg = panicMessage("synthetic failure ", 42);
    {
        std::lock_guard<std::mutex> lock(mu);
        release = true;
    }
    cv.notify_all();
    other.join();

    EXPECT_NE(msg.find("synthetic failure 42"), std::string::npos) << msg;
    EXPECT_NE(msg.find("crash dump: integrity test"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("MARKER_FROM_DUMP"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("MARKER_FROM_OTHER_THREAD"), std::string::npos)
        << "another thread's dump ran in this panic:\n"
        << msg;

    unregisterCrashDump(h);
    EXPECT_EQ(panicMessage("second failure").find("MARKER_FROM_DUMP"),
              std::string::npos);
}

TEST(PanicPath, ThrowGuardRestoresAbortBehavior)
{
    EXPECT_EQ(panicBehavior(), PanicBehavior::Abort);
    {
        PanicThrowGuard guard;
        EXPECT_EQ(panicBehavior(), PanicBehavior::Throw);
        {
            PanicThrowGuard nested;
            EXPECT_EQ(panicBehavior(), PanicBehavior::Throw);
        }
        EXPECT_EQ(panicBehavior(), PanicBehavior::Throw);
    }
    EXPECT_EQ(panicBehavior(), PanicBehavior::Abort);
}

TEST(PanicPath, FaultyDumpCallbackDoesNotMaskThePanic)
{
    const int h = registerCrashDump("broken dump", []() -> std::string {
        throw std::runtime_error("dump exploded");
    });
    PanicThrowGuard guard;
    try {
        DBSIM_PANIC("original message");
        FAIL() << "expected SimInvariantError";
    } catch (const SimInvariantError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("original message"), std::string::npos) << msg;
    }
    unregisterCrashDump(h);
}

// ---------------------------------------------------------------------
// Hardened environment parsing
// ---------------------------------------------------------------------

TEST(CyclesFromEnv, ParsesValidValuesAndRejectsGarbage)
{
    const char *kVar = "DBSIM_TEST_CYCLES";
    ::unsetenv(kVar);
    EXPECT_EQ(sim::cyclesFromEnv(kVar), 0u);

    ::setenv(kVar, "", 1);
    EXPECT_EQ(sim::cyclesFromEnv(kVar), 0u);

    ::setenv(kVar, "250000", 1);
    EXPECT_EQ(sim::cyclesFromEnv(kVar), 250'000u);

    ::setenv(kVar, "garbage", 1);
    EXPECT_EQ(sim::cyclesFromEnv(kVar), 0u);

    ::setenv(kVar, "123abc", 1); // trailing junk: reject, not read 123
    EXPECT_EQ(sim::cyclesFromEnv(kVar), 0u);

    ::setenv(kVar, "-5", 1); // strtoull would wrap this silently
    EXPECT_EQ(sim::cyclesFromEnv(kVar), 0u);

    ::setenv(kVar, "99999999999999999999999999", 1); // overflow
    EXPECT_EQ(sim::cyclesFromEnv(kVar), 0u);

    ::unsetenv(kVar);
}

// ---------------------------------------------------------------------
// Diagnostics rendering
// ---------------------------------------------------------------------

TEST(Diagnostics, MachineStateDumpCoversEveryCpuAndTheDirectory)
{
    sim::SystemParams sp;
    sp.num_nodes = 2;
    sim::System sys(sp);
    workload::OltpParams op;
    op.num_procs = 4;
    workload::OltpWorkload wl(op);
    for (ProcId p = 0; p < op.num_procs; ++p)
        sys.addProcess(wl.makeProcess(p), p % 2);
    sys.run(20'000);

    const std::string dump = sim::machineStateDump(sys);
    EXPECT_NE(dump.find("cpu0"), std::string::npos) << dump;
    EXPECT_NE(dump.find("cpu1"), std::string::npos) << dump;
    EXPECT_NE(dump.find("l1d mshr"), std::string::npos) << dump;
    EXPECT_NE(dump.find("directory:"), std::string::npos) << dump;
    EXPECT_NE(dump.find("sched:"), std::string::npos) << dump;
    EXPECT_NE(dump.find("locks:"), std::string::npos) << dump;
}

// The machine-state dump renders unordered containers (the lock table,
// the checker's violating-block set) through sorted snapshots, so two
// identically configured runs -- and even two machines whose unordered
// maps were populated in different orders -- must dump byte-identical
// text (DESIGN.md §5c).

TEST(Diagnostics, MachineStateDumpIsByteIdenticalAcrossRuns)
{
    auto run_and_dump = [] {
        sim::SystemParams sp;
        sp.num_nodes = 2;
        sim::System sys(sp);
        workload::OltpParams op;
        op.num_procs = 4;
        workload::OltpWorkload wl(op);
        for (ProcId p = 0; p < op.num_procs; ++p)
            sys.addProcess(wl.makeProcess(p), p % 2);
        sys.run(20'000);
        return sim::machineStateDump(sys);
    };
    EXPECT_EQ(run_and_dump(), run_and_dump());
}

TEST(Diagnostics, LockTableDumpIsSortedRegardlessOfInsertionOrder)
{
    sim::SystemParams sp;
    sp.num_nodes = 1;
    sim::System a(sp);
    sim::System b(sp);

    // Same final lock table, inserted in opposite orders: the unordered
    // map may hash/rehash differently, but the dumps must match.
    const Addr addrs[] = {0x400, 0x100, 0x900, 0x200, 0x700};
    for (std::size_t i = 0; i < std::size(addrs); ++i)
        ASSERT_TRUE(a.lockTryAcquire(addrs[i], static_cast<ProcId>(i)));
    for (std::size_t i = std::size(addrs); i-- > 0;)
        ASSERT_TRUE(b.lockTryAcquire(addrs[i], static_cast<ProcId>(i)));

    const auto held = a.heldLocks();
    ASSERT_EQ(held.size(), std::size(addrs));
    for (std::size_t i = 1; i < held.size(); ++i)
        EXPECT_LT(held[i - 1].first, held[i].first);

    EXPECT_EQ(sim::machineStateDump(a), sim::machineStateDump(b));
    EXPECT_NE(sim::machineStateDump(a).find("locks: 5 held (0x100:p1"),
              std::string::npos)
        << sim::machineStateDump(a);
}

TEST(CoherenceChecker, ViolatingBlocksAreReportedSorted)
{
    coher::CoherenceFabric fabric(2);
    FakeSite site0, site1;
    fabric.attachSite(0, &site0);
    fabric.attachSite(1, &site1);
    coher::CoherenceChecker checker(/*panic_on_violation=*/false);

    // Node 1 claims a Modified copy of lines the directory believes
    // uncached (I2), audited in non-ascending block order.
    site1.st = mem::CoherState::Modified;
    for (const Addr block : {Addr{0x3c00}, Addr{0x1400}, Addr{0x2800}})
        checker.auditBlock(fabric, block, "test", 10);

    EXPECT_EQ(checker.stats().violations, 3u);
    const std::vector<Addr> blocks = checker.violatingBlocks();
    ASSERT_EQ(blocks.size(), 3u);
    EXPECT_EQ(blocks[0], Addr{0x1400});
    EXPECT_EQ(blocks[1], Addr{0x2800});
    EXPECT_EQ(blocks[2], Addr{0x3c00});
}

} // namespace
} // namespace dbsim
