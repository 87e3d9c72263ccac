#include "sim/diagnostics.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstring>
#include <sstream>

#include "common/log.hpp"
#include "common/parse.hpp"
#include "sim/system.hpp"

namespace dbsim::sim {

namespace {

// Annotated host-timing code: the sweep deadline layer measures the
// *host* wall clock by design and never feeds simulated state or
// reported statistics (a timeout becomes a structured SweepFailure).
// Every wall-clock read below goes through this one sanctioned alias.
// dbsim-analyze: allow(determinism-wallclock)
using HostClock = std::chrono::steady_clock;

// Per-thread deadline state: each sweep worker arms its own item's
// deadline, so concurrently running simulations cannot time each other
// out.
thread_local bool t_deadline_armed = false;
thread_local double t_deadline_seconds = 0.0;
thread_local HostClock::time_point t_deadline{};

} // namespace

void
setHostDeadline(double seconds)
{
    if (seconds <= 0.0) {
        clearHostDeadline();
        return;
    }
    t_deadline_armed = true;
    t_deadline_seconds = seconds;
    t_deadline = HostClock::now() +
                 std::chrono::duration_cast<HostClock::duration>(
                     std::chrono::duration<double>(seconds));
}

void
clearHostDeadline()
{
    t_deadline_armed = false;
    t_deadline_seconds = 0.0;
}

bool
hostDeadlineArmed()
{
    return t_deadline_armed;
}

bool
hostDeadlineExpired()
{
    return t_deadline_armed && HostClock::now() >= t_deadline;
}

double
hostDeadlineSeconds()
{
    return t_deadline_armed ? t_deadline_seconds : 0.0;
}

namespace {

// Async-signal state: written only from the handler, read (and
// consumed) from the run loop's strided poll.
volatile std::sig_atomic_t g_signal_pending = 0;

extern "C" void
checkpointSignalTrampoline(int signo)
{
    g_signal_pending = signo;
}

} // namespace

std::uint32_t
deadlinePollStride()
{
    const Cycles v = cyclesFromEnv("DBSIM_DEADLINE_STRIDE");
    if (v == 0)
        return 4096;
    return static_cast<std::uint32_t>(
        std::min<Cycles>(v, ~std::uint32_t{0}));
}

void
installCheckpointSignalHandler()
{
#ifdef _WIN32
    std::signal(SIGINT, checkpointSignalTrampoline);
    std::signal(SIGTERM, checkpointSignalTrampoline);
#else
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = checkpointSignalTrampoline;
    sigemptyset(&sa.sa_mask);
    // One-shot: a second SIGINT/SIGTERM gets the default disposition,
    // so an operator can still kill a process stuck before the poll.
    sa.sa_flags = SA_RESETHAND;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
#endif
}

bool
checkpointSignalPending()
{
    return g_signal_pending != 0;
}

int
consumeCheckpointSignal()
{
    const int signo = g_signal_pending;
    g_signal_pending = 0;
    return signo;
}

Cycles
cyclesFromEnv(const char *name)
{
    return unsignedFromEnv(name, "a nonnegative cycle count").value_or(0);
}

std::string
progressLine(const System &sys)
{
    std::ostringstream os;
    os << "[dbsim] cyc=" << sys.now() << " retired=" << sys.totalRetired();
    for (std::uint32_t i = 0; i < sys.numNodes(); ++i) {
        const cpu::Core &core = sys.core(i);
        os << " cpu" << i << "(" << (core.current() ? "run" : "idle") << ","
           << stallCatName(core.headCat()) << ") " << core.debugString();
    }
    return os.str();
}

std::string
machineStateDump(const System &sys)
{
    const Scheduler &sched = sys.scheduler();
    std::ostringstream os;
    os << "machine state @ cycle " << sys.now()
       << " (total retired=" << sys.totalRetired() << ")\n";
    for (std::uint32_t i = 0; i < sys.numNodes(); ++i) {
        const cpu::Core &core = sys.core(i);
        const Node &node = sys.node(i);
        os << "  cpu" << i << ": ";
        if (const cpu::ProcessContext *p = core.current()) {
            os << "running proc " << p->id() << " (retired=" << p->retired
               << "), head stall=" << stallCatName(core.headCat()) << ", "
               << core.debugString();
        } else {
            os << "idle";
        }
        os << "\n        sched: ready=" << sched.readyCount(i)
           << " blocked=" << sched.blockedCount(i);
        const Cycles wake = sched.nextWake(i);
        os << " next_wake=";
        if (wake == kNever)
            os << "never";
        else
            os << wake;
        const mem::MshrFile &l1d = node.l1dMshr();
        const mem::MshrFile &l2 = node.l2Mshr();
        os << "\n        l1d mshr " << l1d.inUse() << "/" << l1d.capacity();
        if (l1d.inUse())
            os << " (earliest fill @" << l1d.earliestDone() << ")";
        os << ", l2 mshr " << l2.inUse() << "/" << l2.capacity();
        if (l2.inUse())
            os << " (earliest fill @" << l2.earliestDone() << ")";
        if (node.streamBuffer().enabled()) {
            os << ", sbuf stuck=" << node.streamBuffer().unboundedEntries();
        }
        os << "\n";
    }
    const coher::CoherenceFabric &fabric = sys.fabric();
    os << "  directory: " << fabric.dirEntries() << " blocks tracked, "
       << fabric.dirCachedEntries() << " believed cached; "
       << fabric.stats().totalMisses() << " misses serviced ("
       << fabric.stats().dirtyMisses() << " dirty), "
       << fabric.stats().invalidations_sent << " invalidations, "
       << fabric.stats().writebacks << " writebacks\n";

    // Lock table and checker state are rendered from sorted snapshots:
    // both live in unordered containers, and a crash dump must be
    // bitwise-identical across runs (DESIGN.md §5c).
    const auto locks = sys.heldLocks();
    os << "  locks: " << locks.size() << " held";
    constexpr std::size_t kMaxLocksShown = 16;
    for (std::size_t i = 0; i < locks.size() && i < kMaxLocksShown; ++i) {
        os << (i == 0 ? " (" : " ") << "0x" << std::hex << locks[i].first
           << std::dec << ":p" << locks[i].second;
    }
    if (!locks.empty()) {
        if (locks.size() > kMaxLocksShown)
            os << " ... +" << locks.size() - kMaxLocksShown << " more";
        os << ")";
    }
    os << "\n";
    if (const coher::CoherenceChecker *chk = sys.checker()) {
        os << "  checker: " << chk->stats().audits << " audits, "
           << chk->stats().violations << " violations";
        const auto blocks = chk->violatingBlocks();
        constexpr std::size_t kMaxBlocksShown = 16;
        for (std::size_t i = 0;
             i < blocks.size() && i < kMaxBlocksShown; ++i) {
            os << (i == 0 ? " (blocks: " : " ") << "0x" << std::hex
               << blocks[i] << std::dec;
        }
        if (!blocks.empty()) {
            if (blocks.size() > kMaxBlocksShown)
                os << " ... +" << blocks.size() - kMaxBlocksShown << " more";
            os << ")";
        }
        os << "\n";
    }
    return os.str();
}

} // namespace dbsim::sim
