/**
 * @file
 * Sample producer for the simulator benchmark (see NOTES.md).
 *
 * Runs one benchmark workload repeatedly for a host-time budget and
 * prints one JSON object per line: a "setup" line per extra set-up
 * sample, a "run" line per untraced simulation, a "traced" line per
 * traced simulation, a "reference" line per pass of the host reference
 * work after each simulation (or pair), one "replay" line (traced
 * mode), and a final "end" line once everything finished.  run.py
 * turns the lines into the benchmark's metrics and checks the
 * simulated fingerprints.
 *
 * Untraced simulations go through core::Simulation.  Traced ones build
 * the same machine through the public constructors, as
 * Simulation::build does, with every trace source wrapped in a timing
 * decorator; the replay drives standalone sim::Nodes with the same
 * trace streams to price the memory and coherence layers.
 *
 * Usage: simbench --workload NAME --seed N --seconds S --trace 0|1
 *                 [--budget INSTRUCTIONS]
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <memory_resource>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/cli_guard.hpp"
#include "core/simulation.hpp"
#include "sim/node.hpp"
#include "sim/system.hpp"
#include "trace/source.hpp"

namespace {

using namespace dbsim;
using Clock = std::chrono::steady_clock;

/** Simulated instructions per simulation, warmup included. */
constexpr std::uint64_t kDefaultBudget = 1'000'000;
/** Set-up-only samples taken before each untraced simulation, after
 *  one untimed set-up that refills the host caches the reference pass
 *  evicted. */
constexpr int kExtraSetups = 8;
/** Records per time-resolved phase sample of the traced run. */
constexpr std::uint64_t kPhaseRecords = 10'000;
/** Records a replay process drains before the next one takes over. */
constexpr std::uint64_t kReplayQuantum = 1000;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t
nanos(Clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
}

/**
 * Fixed host work timed between simulations, so that run.py can divide
 * the host's speed out of the end-to-end figures.  On a shared host the
 * speed of one thread drifts by up to 1.8x over minutes; the reference
 * drifts with it.  It mixes the kinds of work the simulator's host time
 * goes to: hash-table updates and lookups, sorting, and set-associative
 * tag lookups with LRU replacement over a table larger than the host's
 * L2.  Every pass does the same work on the same inputs, and none of it
 * calls into src/, so a change to the simulator moves the normalized
 * figures exactly as much as the raw ones.  A pass allocates nothing:
 * the hash table's nodes come from a buffer reset before each pass, so
 * no pass pays for page faults, whose cost on a virtual machine varies
 * on its own.
 */
class HostReference
{
  public:
    HostReference()
        : arena_(new std::byte[kArenaBytes]), sorted_(kSorted),
          tags_(kSets * kWays), lru_(kSets * kWays)
    {
        pass(); // untimed: faults the tables in
    }

    /** Host seconds of one pass. */
    double
    seconds()
    {
        const auto t0 = Clock::now();
        pass();
        return secondsSince(t0);
    }

  private:
    static constexpr std::uint64_t kKeys = 1u << 18;
    static constexpr std::uint64_t kMapOps = 1'000'000;
    /** Room for the buckets and a node per operation: more than a pass
     *  can allocate, as erased nodes are not reused. */
    static constexpr std::size_t kArenaBytes = kKeys * 16 + kMapOps * 32;
    static constexpr std::size_t kSorted = 1u << 19;
    static constexpr std::uint64_t kSets = 1u << 16;
    static constexpr int kWays = 4;

    static std::uint64_t
    xorshift(std::uint64_t &x)
    {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    }

    void
    pass()
    {
        std::uint64_t acc = 0;

        std::uint64_t x = 99;
        {
            std::pmr::monotonic_buffer_resource pool(
                arena_.get(), kArenaBytes, std::pmr::null_memory_resource());
            std::pmr::unordered_map<std::uint64_t, std::uint64_t> map(&pool);
            map.reserve(kKeys);
            for (std::uint64_t i = 0; i < kMapOps; ++i) {
                const std::uint64_t k = xorshift(x) & (kKeys - 1);
                if ((x >> 20) & 1) {
                    map[k] += i;
                } else if (auto it = map.find(k); it != map.end()) {
                    acc += it->second;
                    if (((x >> 21) & 7) == 0)
                        map.erase(it);
                }
            }
        }

        for (auto &e : sorted_)
            e = xorshift(x);
        std::sort(sorted_.begin(), sorted_.end());
        acc += sorted_[sorted_.size() / 2];

        // Mostly hits on a small hot region, the rest spread wide.
        std::fill(tags_.begin(), tags_.end(), 0);
        std::fill(lru_.begin(), lru_.end(), 0);
        for (std::uint64_t i = 1; i <= 4'000'000; ++i) {
            const std::uint64_t r = xorshift(x);
            const std::uint64_t a =
                (r & 0xff) < 200 ? (r >> 8) & 0xfff : (r >> 8) & 0xffffff;
            std::uint64_t *tag = &tags_[(a & (kSets - 1)) * kWays];
            std::uint64_t *age = &lru_[(a & (kSets - 1)) * kWays];
            int way = -1;
            for (int w = 0; w < kWays && way < 0; ++w)
                if (tag[w] == a >> 16)
                    way = w;
            if (way < 0) {
                way = 0;
                for (int w = 1; w < kWays; ++w)
                    if (age[w] < age[way])
                        way = w;
                tag[way] = a >> 16;
                ++acc;
            }
            age[way] = i;
        }
        sink_ = acc;
    }

    /** Left uninitialized, so only the part a pass uses is resident. */
    std::unique_ptr<std::byte[]> arena_;
    std::vector<std::uint64_t> sorted_;
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint64_t> lru_;
    /** Keeps the passes' results live. */
    volatile std::uint64_t sink_ = 0;
};

/** Median host cost of one empty timed interval (two clock reads). */
double
clockOverheadNs()
{
    std::vector<std::int64_t> d(2001);
    for (auto &x : d) {
        const auto a = Clock::now();
        const auto b = Clock::now();
        x = nanos(b) - nanos(a);
    }
    std::nth_element(d.begin(), d.begin() + 1000, d.end());
    return static_cast<double>(d[1000]);
}

/**
 * Peak resident memory of this program, in KiB.  VmHWM starts afresh at
 * exec; getrusage's ru_maxrss would also count the parent that forked
 * us (its size carries across exec).
 */
std::uint64_t
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::uint64_t budget = kDefaultBudget;
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            throw ConfigError(a, "missing value");
        const char *v = argv[++i];
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v, nullptr, 10);
            have_seed = true;
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v, nullptr);
            have_seconds = true;
        } else if (a == "--trace") {
            o.trace = std::strcmp(v, "1") == 0;
        } else if (a == "--budget") {
            o.budget = std::strtoull(v, nullptr, 10);
        } else {
            throw ConfigError(a, "unknown option");
        }
    }
    if (o.workload.empty() || !have_seed || !have_seconds ||
        !(o.seconds > 0.0))
        throw ConfigError("usage", "simbench --workload NAME --seed N "
                                   "--seconds S --trace 0|1 [--budget N]");
    return o;
}

/**
 * The benchmark workloads.  The seed reaches the simulator only through
 * the workload generator's parameters.
 */
core::SimConfig
workloadConfig(const Options &o)
{
    core::SimConfig cfg;
    if (o.workload == "oltp-4node" || o.workload == "oltp-4node-sc") {
        cfg = core::makeScaledConfig(core::WorkloadKind::Oltp, 4);
        cfg.oltp.seed = o.seed;
        if (o.workload == "oltp-4node-sc") {
            cfg.system.core.model = cpu::ConsistencyModel::SC;
            cfg.system.core.cons = cpu::ConsistencyImpl{};
        }
    } else if (o.workload == "dss-1node") {
        cfg = core::makeScaledConfig(core::WorkloadKind::Dss, 1);
        cfg.dss.seed = o.seed;
    } else {
        throw ConfigError("--workload", "unknown workload '" + o.workload +
                                            "' (oltp-4node, dss-1node, "
                                            "oltp-4node-sc)");
    }
    cfg.total_instructions = o.budget;
    cfg.validate();
    return cfg;
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

/** Builds one JSON object on a single line. */
class Line
{
  public:
    explicit Line(const char *type)
        : s_("{\"type\":\"" + std::string(type) + "\"")
    {
    }

    Line &
    num(const char *k, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return raw(k, buf);
    }

    Line &
    u64(const char *k, std::uint64_t v)
    {
        return raw(k, std::to_string(v));
    }

    Line &
    raw(const char *k, const std::string &v)
    {
        s_ += ",\"" + std::string(k) + "\":" + v;
        return *this;
    }

    void
    emit() const
    {
        std::printf("%s}\n", s_.c_str());
        std::fflush(stdout);
    }

  private:
    std::string s_;
};

/**
 * The simulated outcome of a run: post-warmup cycles and instructions,
 * the breakdown, fabric totals and the final machine-state hash.  Any
 * change to what is simulated changes it.
 */
std::string
fingerprint(const sim::System &sys, const sim::RunResult &r)
{
    const coher::FabricStats &f = sys.fabric().stats();
    std::string s = "{\"cycles\":" + std::to_string(r.cycles) +
                    ",\"instructions\":" + std::to_string(r.instructions) +
                    ",\"breakdown\":{";
    for (std::size_t c = 0; c < kNumStallCats; ++c) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "%s\"%s\":%.17g", c ? "," : "",
                      stallCatName(static_cast<StallCat>(c)),
                      r.breakdown.cycles[c]);
        s += buf;
    }
    const std::pair<const char *, std::uint64_t> fab[] = {
        {"reads_local", f.reads_local},
        {"reads_remote", f.reads_remote},
        {"reads_dirty", f.reads_dirty},
        {"writes_local", f.writes_local},
        {"writes_remote", f.writes_remote},
        {"writes_dirty", f.writes_dirty},
        {"upgrades", f.upgrades},
        {"migratory_handoffs", f.migratory_handoffs},
        {"invalidations_sent", f.invalidations_sent},
        {"writebacks", f.writebacks},
        {"flushes", f.flushes},
    };
    s += "},\"fabric\":{";
    for (const auto &[k, v] : fab) {
        if (s.back() != '{')
            s += ",";
        s += "\"" + std::string(k) + "\":" + std::to_string(v);
    }
    char hash[32];
    std::snprintf(hash, sizeof(hash), "%016" PRIx64, sys.stateHash());
    return s + "},\"state_hash\":\"" + hash + "\"}";
}

/** Host-side figures common to untraced and traced runs. */
void
addRunFigures(Line &l, const sim::System &sys, const sim::RunResult &r,
              double run_s)
{
    l.num("run_s", run_s)
        .u64("retired", sys.totalRetired())
        .u64("now", sys.now())
        .u64("cores", sys.numNodes())
        .raw("fingerprint", fingerprint(sys, r));
}

// ---------------------------------------------------------------------
// Untraced run: the end-to-end figures
// ---------------------------------------------------------------------

double
timedSetup(const core::SimConfig &cfg, std::unique_ptr<core::Simulation> &out)
{
    const auto t0 = Clock::now();
    out = std::make_unique<core::Simulation>(cfg);
    out->prepare();
    return secondsSince(t0);
}

void
untracedRun(const core::SimConfig &cfg)
{
    std::unique_ptr<core::Simulation> sim;
    const double setup_s = timedSetup(cfg, sim);
    const auto t0 = Clock::now();
    const sim::RunResult r = sim->run();
    const double run_s = secondsSince(t0);
    Line l("run");
    l.num("setup_s", setup_s).u64("peak_rss_kb", peakRssKb());
    addRunFigures(l, sim->system(), r, run_s);
    l.emit();
}

// ---------------------------------------------------------------------
// Traced run: the per-layer figures
// ---------------------------------------------------------------------

/** Host time and record counts of the workload layer, across processes. */
struct WorkloadClock
{
    std::int64_t self_ns = 0;
    std::uint64_t records = 0;
    std::vector<std::uint64_t> pulled; ///< records per process
    std::int64_t phase_start_ns = 0;
    std::vector<double> phase_ms; ///< host ms per kPhaseRecords records
};

/** Times every pull from a process's trace source. */
class TimedSource : public trace::TraceSource
{
  public:
    TimedSource(std::unique_ptr<trace::TraceSource> inner, ProcId proc,
                WorkloadClock &clock)
        : inner_(std::move(inner)), proc_(proc), clock_(clock)
    {
    }

    bool
    next(trace::TraceRecord &out) override
    {
        const std::int64_t t0 = nanos(Clock::now());
        const bool ok = inner_->next(out);
        const std::int64_t t1 = nanos(Clock::now());
        clock_.self_ns += t1 - t0;
        if (!ok)
            return false;
        ++clock_.pulled[proc_];
        if (++clock_.records % kPhaseRecords == 0) {
            clock_.phase_ms.push_back(
                static_cast<double>(t1 - clock_.phase_start_ns) * 1e-6);
            clock_.phase_start_ns = t1;
        }
        return true;
    }

    // Forwarded so the machine-state hash equals the untraced run's.
    void saveState(snap::Writer &w) const override { inner_->saveState(w); }
    void restoreState(snap::Reader &r) override { inner_->restoreState(r); }

  private:
    std::unique_ptr<trace::TraceSource> inner_;
    ProcId proc_;
    WorkloadClock &clock_;
};

std::uint32_t
numProcs(const core::SimConfig &cfg)
{
    return cfg.workload == core::WorkloadKind::Oltp ? cfg.oltp.num_procs
                                                    : cfg.dss.num_procs;
}

/** The workload's own per-process trace sources. */
struct WorkloadSources
{
    std::unique_ptr<workload::OltpWorkload> oltp;
    std::unique_ptr<workload::DssWorkload> dss;

    explicit WorkloadSources(const core::SimConfig &cfg)
    {
        if (cfg.workload == core::WorkloadKind::Oltp)
            oltp = std::make_unique<workload::OltpWorkload>(cfg.oltp);
        else
            dss = std::make_unique<workload::DssWorkload>(cfg.dss);
    }

    std::unique_ptr<trace::TraceSource>
    make(ProcId p) const
    {
        return oltp ? oltp->makeProcess(p) : dss->makeProcess(p);
    }
};

/** Runs one traced simulation; returns the records pulled per process. */
std::vector<std::uint64_t>
tracedRun(const core::SimConfig &cfg, double clock_overhead_ns)
{
    WorkloadClock clock;
    clock.pulled.assign(numProcs(cfg), 0);

    // Simulation::build, step by step (the benchmark's workloads insert
    // no software hints).  The workload outlives the machine, as there.
    std::optional<WorkloadSources> wl;
    const auto t0 = Clock::now();
    auto sys = std::make_unique<sim::System>(cfg.system);
    const double system_s = secondsSince(t0);
    const auto t1 = Clock::now();
    wl.emplace(cfg);
    for (ProcId p = 0; p < numProcs(cfg); ++p) {
        sys->addProcess(std::make_unique<TimedSource>(wl->make(p), p, clock),
                        p % cfg.system.num_nodes);
    }
    const double workload_s = secondsSince(t1);

    const auto t2 = Clock::now();
    clock.phase_start_ns = nanos(t2);
    const sim::RunResult r =
        sys->run(cfg.total_instructions, cfg.warmup_instructions);
    const double run_s = secondsSince(t2);

    std::uint64_t l1i_fetches = 0, l1i_misses = 0, l1d_accesses = 0,
                  l1d_misses = 0, l2_accesses = 0, l2_misses = 0,
                  mshr_full = 0, dtlb_misses = 0;
    std::uint64_t spins = 0, yields = 0, switches = 0, violations = 0,
                  mispredicts = 0;
    for (std::uint32_t i = 0; i < sys->numNodes(); ++i) {
        const sim::Node &n = sys->node(i);
        l1i_fetches += n.stats().l1i_fetches;
        l1i_misses += n.stats().l1i_misses;
        l1d_accesses += n.stats().l1d_accesses;
        l1d_misses += n.stats().l1d_misses;
        l2_accesses += n.stats().l2_accesses;
        l2_misses += n.stats().l2_misses;
        mshr_full += n.l1dMshrStats().full_stalls +
                     n.l2MshrStats().full_stalls;
        dtlb_misses += n.dtlbStats().misses;
        const cpu::Core &c = sys->core(i);
        spins += c.stats().lock_spin_retries;
        yields += c.stats().lock_yields;
        switches += c.stats().context_switches;
        violations += c.stats().spec_load_violations;
        mispredicts += c.branchStats().mispredicts();
    }
    const coher::CoherenceFabric &fab = sys->fabric();
    const coher::FabricStats &fs = fab.stats();
    // Mesh::totalLinkWait only reads; mesh() lacks a const overload.
    const Cycles link_wait =
        const_cast<coher::CoherenceFabric &>(fab).mesh().totalLinkWait();

    std::string phases = "[";
    for (double ms : clock.phase_ms) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%s%.6g", phases.size() > 1 ? "," : "",
                      ms);
        phases += buf;
    }
    phases += "]";

    const double workload_self_ns =
        static_cast<double>(clock.self_ns) -
        clock_overhead_ns * static_cast<double>(clock.records);

    Line l("traced");
    l.num("system_s", system_s).num("workload_s", workload_s);
    addRunFigures(l, *sys, r, run_s);
    l.u64("records", clock.records)
        .num("workload_self_s", workload_self_ns * 1e-9)
        .raw("phase_ms", phases)
        .u64("l1i_fetches", l1i_fetches)
        .u64("l1i_misses", l1i_misses)
        .u64("l1d_accesses", l1d_accesses)
        .u64("l1d_misses", l1d_misses)
        .u64("l2_accesses", l2_accesses)
        .u64("l2_misses", l2_misses)
        .u64("mshr_full_stalls", mshr_full)
        .u64("dtlb_misses", dtlb_misses)
        .u64("fabric_misses", fs.totalMisses())
        .u64("dirty_misses", fs.dirtyMisses())
        .u64("invalidations", fs.invalidations_sent)
        .u64("upgrades", fs.upgrades)
        .u64("writebacks", fs.writebacks)
        .u64("flushes", fs.flushes)
        .u64("dir_entries", fab.dirEntries())
        .u64("link_wait_cycles", link_wait)
        .u64("window_instructions", r.instructions)
        .u64("window_cycles", r.cycles)
        .num("ipc", r.ipc)
        .u64("lock_spin_retries", spins)
        .u64("lock_yields", yields)
        .u64("context_switches", switches)
        .u64("spec_load_violations", violations)
        .u64("branch_mispredicts", mispredicts);
    l.emit();
    return clock.pulled;
}

// ---------------------------------------------------------------------
// Replay: the memory and coherence layers, priced call by call
// ---------------------------------------------------------------------

std::uint64_t
fabricCount(const coher::FabricStats &f)
{
    return f.totalMisses() + f.upgrades + f.migratory_handoffs +
           f.invalidations_sent + f.writebacks + f.flushes;
}

/**
 * Drains each process's own trace source, as far as the traced run
 * pulled it, into standalone nodes sharing one fabric and page map.
 * Processes take turns in quanta of kReplayQuantum records; the clock
 * advances one cycle per record, and a refused access retries at the
 * cycle the node names.
 */
void
replay(const core::SimConfig &cfg, const std::vector<std::uint64_t> &pulled,
       double clock_overhead_ns)
{
    const sim::SystemParams &sp = cfg.system;
    mem::PageMap page_map(sp.node.page_bytes, sp.page_bins, sp.num_nodes);
    coher::CoherenceFabric fabric(sp.num_nodes, sp.fabric, sp.mesh);
    std::vector<std::unique_ptr<sim::Node>> nodes;
    for (std::uint32_t i = 0; i < sp.num_nodes; ++i) {
        nodes.push_back(
            std::make_unique<sim::Node>(i, sp.node, &page_map, &fabric));
        fabric.attachSite(i, nodes.back().get());
    }

    WorkloadSources wl(cfg);
    const std::uint32_t procs = numProcs(cfg);
    std::vector<std::unique_ptr<trace::TraceSource>> srcs;
    for (ProcId p = 0; p < procs; ++p)
        srcs.push_back(wl.make(p));
    std::vector<std::uint64_t> left = pulled;
    std::vector<Addr> last_line(procs, kNoAddr);

    std::int64_t mem_ns = 0, txn_ns = 0;
    std::uint64_t mem_calls = 0, txn_calls = 0, refusals = 0;
    Cycles now = 0;

    // Times one hierarchy call and files it by whether it reached the
    // fabric.  Returns the call's result.
    auto timed = [&](auto &&call) {
        const std::uint64_t before = fabricCount(fabric.stats());
        const std::int64_t t0 = nanos(Clock::now());
        auto res = call();
        const std::int64_t dt = nanos(Clock::now()) - t0;
        if (fabricCount(fabric.stats()) != before) {
            txn_ns += dt;
            ++txn_calls;
        } else {
            mem_ns += dt;
            ++mem_calls;
        }
        return res;
    };

    const auto t_start = Clock::now();
    bool any = true;
    while (any) {
        any = false;
        for (ProcId p = 0; p < procs; ++p) {
            sim::Node &node = *nodes[p % sp.num_nodes];
            for (std::uint64_t q = 0; q < kReplayQuantum && left[p]; ++q) {
                trace::TraceRecord rec;
                if (!srcs[p]->next(rec))
                    throw SimInvariantError(
                        "replay: trace source ended before the traced "
                        "run's record count");
                --left[p];
                any = true;
                ++now;
                const Addr line = blockAlign(rec.pc, sp.core.fetch_line_bytes);
                if (line != last_line[p]) {
                    last_line[p] = line;
                    timed([&] { return node.instrFetch(rec.pc, now); });
                }
                if (!trace::isMemory(rec.op) || trace::isHint(rec.op))
                    continue;
                const bool is_write = rec.op != trace::OpClass::Load;
                for (;;) {
                    Cycles retry = now + 1;
                    const auto r = timed([&] {
                        return node.dataAccess(rec.vaddr, rec.pc, is_write,
                                               now, false, &retry);
                    });
                    if (r)
                        break;
                    ++refusals;
                    now = std::max(now + 1, retry);
                }
            }
        }
    }
    const double replay_s = secondsSince(t_start);

    // Every call above was one empty timed interval longer than its work.
    const double mem_self_ns =
        static_cast<double>(mem_ns) -
        clock_overhead_ns * static_cast<double>(mem_calls);
    const double txn_self_ns =
        static_cast<double>(txn_ns) -
        clock_overhead_ns * static_cast<double>(txn_calls);
    const std::uint64_t accepted = mem_calls + txn_calls - refusals;
    Line l("replay");
    l.num("replay_s", replay_s)
        .u64("mem_calls", mem_calls)
        .u64("txn_calls", txn_calls)
        .u64("refusals", refusals)
        .u64("accepted", accepted)
        .num("mem_self_s", mem_self_ns * 1e-9)
        .num("txn_self_s", txn_self_ns * 1e-9)
        .num("clock_overhead_ns", clock_overhead_ns);
    l.emit();
}

/**
 * Times one reference pass and prints its "reference" line.  The
 * reference is built on first use, after the first simulation, so its
 * tables stay out of that simulation's peak RSS.
 */
void
referencePass(std::optional<HostReference> &ref)
{
    if (!ref)
        ref.emplace();
    Line("reference").num("ref_s", ref->seconds()).emit();
}

int
run(const Options &o)
{
    const core::SimConfig cfg = workloadConfig(o);
    const auto start = Clock::now();

    // Starts another simulation only if it should end within the
    // budget, judging by the last one; the minimum count still runs.
    double last_s = 0.0;
    auto more = [&](int done, int minimum) {
        if (done < minimum)
            return true;
        return secondsSince(start) + last_s <= o.seconds;
    };

    // A reference pass follows every simulation (or pair), so each one
    // has a host-speed reading on both sides but the first.
    std::optional<HostReference> ref;
    if (!o.trace) {
        // At least two simulations, so repeats can be compared.  The
        // set-up samples spread over the whole run, as the host's speed
        // drifts.
        for (int n = 0; more(n, 2); ++n) {
            const auto t0 = Clock::now();
            for (int i = 0; i <= kExtraSetups; ++i) {
                std::unique_ptr<core::Simulation> sim;
                const double setup_s = timedSetup(cfg, sim);
                if (i > 0)
                    Line("setup").num("setup_s", setup_s).emit();
            }
            untracedRun(cfg);
            referencePass(ref);
            last_s = secondsSince(t0);
        }
    } else {
        // Untraced and traced simulations run in pairs, so the tracing
        // overhead compares runs made under the same host load; which
        // goes first alternates, as the first simulation of a process
        // runs on cold host caches.
        const double overhead = clockOverheadNs();
        std::vector<std::uint64_t> pulled;
        for (int n = 0; more(n, 1); ++n) {
            const auto t0 = Clock::now();
            if (n % 2 == 0)
                untracedRun(cfg);
            pulled = tracedRun(cfg, overhead);
            if (n % 2 == 1)
                untracedRun(cfg);
            referencePass(ref);
            last_s = secondsSince(t0);
        }
        replay(cfg, pulled, overhead);
    }

    Line("end").emit();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return dbsim::core::guardedMain(
        [&] { return run(parseArgs(argc, argv)); });
}
