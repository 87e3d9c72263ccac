/**
 * @file
 * The simulated CC-NUMA multiprocessor: nodes (core + hierarchy),
 * coherence fabric, page map, OS scheduler model, the lock table
 * maintained in the simulated environment, and the main run loop with
 * event-driven cycle skipping.
 */

#ifndef DBSIM_SIM_SYSTEM_HPP
#define DBSIM_SIM_SYSTEM_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "coherence/checker.hpp"
#include "coherence/directory.hpp"
#include "cpu/interfaces.hpp"
#include "cpu/ooo_core.hpp"
#include "cpu/process.hpp"
#include "memory/page_map.hpp"
#include "common/breakdown.hpp"
#include "common/mutator.hpp"
#include "common/snapshot.hpp"
#include "sim/node.hpp"
#include "sim/scheduler.hpp"
#include "trace/source.hpp"

namespace dbsim::sim {

/** Whole-machine configuration. */
struct SystemParams
{
    std::uint32_t num_nodes = 4;
    cpu::CoreParams core;
    NodeParams node;
    coher::FabricParams fabric;
    net::MeshParams mesh;
    Cycles sched_quantum = 200000;  ///< round-robin backstop time slice
    std::uint32_t page_bins = 32;   ///< bin-hopping colors
    Cycles max_cycles = 4ull << 30; ///< hard safety cap

    /**
     * Forward-progress watchdog: if no instruction retires anywhere for
     * this many simulated cycles, the run loop panics with a full
     * machine-state dump instead of silently spinning to max_cycles.
     * Must comfortably exceed the longest legitimate retire-free period
     * (blocking-syscall latencies, scheduling quanta).  0 disables.
     */
    Cycles watchdog_cycles = 10'000'000;

    /**
     * Enable the coherence invariant checker (coherence/checker.hpp):
     * SWMR / directory-vs-cache agreement audited after every directory
     * transaction, plus an end-of-run quiescence check.  Also enabled
     * by a nonzero DBSIM_CHECK environment variable (how the tier-1
     * test suite turns it on everywhere).
     */
    bool check_coherence = false;

    /**
     * Epoch state-hashing: every state_hash_interval simulated cycles
     * the run loop records an FNV-1a hash of the full serialized
     * machine state (DESIGN.md §5g).  Hashing observes the machine
     * without mutating it, so enabling it never changes a run's
     * results.  0 disables.
     */
    Cycles state_hash_interval = 0;

    /**
     * Periodic checkpointing: every checkpoint_interval simulated
     * cycles the run loop writes a checkpoint to checkpoint_path
     * (atomically: tmp + rename).  Both knobs are host-side
     * observation parameters -- they are excluded from the checkpoint
     * config signature, so a checkpoint taken at one interval restores
     * under any other.  0 / empty disables.
     */
    Cycles checkpoint_interval = 0;
    std::string checkpoint_path;

    /**
     * Stop the run loop at the first iteration where now() >= this
     * cycle (writing a checkpoint first when checkpoint_path is set).
     * The machine is left mid-flight: the end-of-run quiescence audit
     * is skipped and the partial-window RunResult is returned.  Used
     * by the restore-determinism tests and the dbsim-diverge bisector.
     * 0 disables.
     */
    Cycles stop_at_cycle = 0;

    /**
     * Structured validation; throws ConfigError (common/errors.hpp)
     * naming the offending field if any parameter is out of bounds.
     * Called by the System constructor before any state is built.
     */
    void validate() const;
};

/**
 * Write the machine block of @p p -- core (functional units and branch
 * predictor included), node, fabric and mesh parameters, in that order
 * -- into @p w.  The one field list that System::configSignature() and
 * core::simConfigSignature() share.
 */
void signMachineParams(snap::Writer &w, const SystemParams &p);

/** One epoch-hash sample: machine-state hash at an epoch boundary. */
struct EpochHash
{
    Cycles epoch = 0;        ///< the boundary cycle the sample labels
    std::uint64_t hash = 0;  ///< FNV-1a over the serialized machine
};

/** Results of a run (post-warmup window). */
struct RunResult
{
    Cycles cycles = 0;               ///< simulated cycles in the window
    std::uint64_t instructions = 0;  ///< instructions retired
    Breakdown breakdown;             ///< aggregated over all cores
    double ipc = 0.0;                ///< instructions / (cycles * cores)

    /** Epoch hash samples (empty unless state_hash_interval is set).
     *  A restored run carries the pre-restore samples forward, so the
     *  full list matches an uninterrupted run's. */
    std::vector<EpochHash> epoch_hashes;
};

/**
 * The simulated machine.
 */
class System : public cpu::CoreEnvIf
{
  public:
    explicit System(const SystemParams &params);
    ~System() override;

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /**
     * Add a workload process with @p affinity.  Ownership of the trace
     * source transfers to the system.
     */
    cpu::ProcessContext *addProcess(std::unique_ptr<trace::TraceSource> src,
                                    CpuId affinity);

    /**
     * Run until @p max_instructions have retired in total (across all
     * CPUs, including warmup) or every process finished.  Statistics are
     * reset once @p warmup_instructions have retired, so the returned
     * result covers the post-warmup window.
     */
    RunResult run(std::uint64_t max_instructions,
                  std::uint64_t warmup_instructions = 0);

    std::uint32_t numNodes() const { return params_.num_nodes; }
    const SystemParams &params() const { return params_; }
    Node &node(std::uint32_t i) { return *cpus_[i].node; }
    cpu::Core &core(std::uint32_t i) { return *cpus_[i].core; }
    const Node &node(std::uint32_t i) const { return *cpus_[i].node; }
    const cpu::Core &core(std::uint32_t i) const { return *cpus_[i].core; }
    const Scheduler &scheduler() const { return sched_; }
    const coher::CoherenceFabric &fabric() const { return fabric_; }
    Cycles now() const { return now_; }

    /** The coherence invariant checker, if enabled (else nullptr). */
    const coher::CoherenceChecker *checker() const { return checker_.get(); }

    /**
     * Snapshot of the simulated-environment lock table, sorted by lock
     * address.  The table itself is an unordered map; diagnostics
     * (machineStateDump) render this sorted view so crash dumps stay
     * bitwise-deterministic (DESIGN.md §5c).
     */
    std::vector<std::pair<Addr, ProcId>> heldLocks() const;

    /** Total instructions retired since construction (incl. warmup). */
    std::uint64_t totalRetired() const;

    // ----------------------------------------------------------------
    // Checkpoint / restore (DESIGN.md §5g)
    // ----------------------------------------------------------------

    /**
     * Serialize the complete architectural and micro-architectural
     * machine state -- clock, run-loop carry state, lock table, CPU
     * scheduling state, page map, fabric + directory, scheduler,
     * checker, every node's hierarchy, every core's window, every
     * process context and trace source -- in a fixed byte-stable order.
     * Epoch/checkpoint bookkeeping is *not* included, so the bytes (and
     * stateHash()) are insensitive to the observation knobs.
     */
    void serializeState(snap::Writer &w) const;

    /**
     * Inverse of serializeState().  The machine must have been built
     * from a structurally identical configuration (same node count,
     * cache geometry, process set); throws snap::SnapshotError
     * otherwise.  Arms the run-loop carry state so the next run()
     * continues mid-flight instead of reinitializing.
     */
    void deserializeState(snap::Reader &r);

    /** FNV-1a 64 over the serializeState() byte stream. */
    std::uint64_t stateHash() const;

    /**
     * Hash of the structural configuration (machine geometry + process
     * placement).  Stored in checkpoint headers; restore refuses a
     * checkpoint whose signature disagrees.  Host observation knobs
     * (checkpoint/state-hash intervals, stop_at_cycle, paths) are
     * excluded so a checkpoint restores under any of them.
     */
    std::uint64_t configSignature() const;

    /** Write a checkpoint file (atomic tmp + rename).  Throws
     *  snap::SnapshotError on I/O failure. */
    void saveCheckpoint(const std::string &path) const;

    /** Restore from a checkpoint file; validates magic, version,
     *  config signature, and a whole-file integrity hash. */
    void restoreCheckpoint(const std::string &path);

    /** Epoch hash samples recorded so far (see state_hash_interval). */
    const std::vector<EpochHash> &epochHashes() const
    {
        return epoch_hashes_;
    }

    /**
     * Attach a protocol mutator to the coherence fabric (tests and the
     * dbsim-diverge bisector only; nullptr detaches).  Caller owns the
     * mutator and keeps it alive for the system's lifetime.
     */
    void attachMutator(const verify::ProtocolMutator *m)
    {
        fabric_.attachMutator(m);
    }

    // CoreEnvIf
    bool lockIsFree(Addr addr, ProcId proc) const override;
    bool lockTryAcquire(Addr addr, ProcId proc) override;
    void lockRelease(Addr addr, ProcId proc) override;
    void onSyscallBlock(ProcId proc, Cycles latency) override;
    void onLockYield(ProcId proc) override;
    void onProcessDone(ProcId proc) override;

  private:
    enum class Pending : std::uint8_t { None, Block, Yield, Done };

    struct CpuState
    {
        std::unique_ptr<Node> node;
        std::unique_ptr<cpu::Core> core;
        Pending pending = Pending::None;
        Cycles pending_latency = 0;
        Cycles run_start = 0;
        bool ever_ran = false;
    };

    void resetStats();
    void handlePending(CpuState &cs);
    CpuId cpuOf(ProcId proc) const { return proc_cpu_.at(proc); }

    /**
     * End-of-run quiescence audit (checker enabled only): no MSHR or
     * stream-buffer entry may be unbounded, and once every process has
     * finished, every core must have released its process with an empty
     * window.  Panics with a machine-state dump otherwise.
     */
    void verifyQuiesced() const;

    SystemParams params_;
    mem::PageMap page_map_;
    coher::CoherenceFabric fabric_;
    Scheduler sched_;
    std::unique_ptr<coher::CoherenceChecker> checker_;
    int crash_dump_handle_ = 0;
    std::vector<CpuState> cpus_;
    std::vector<std::unique_ptr<cpu::ProcessContext>> procs_;
    std::vector<std::unique_ptr<trace::TraceSource>> sources_;
    std::vector<CpuId> proc_cpu_;
    std::unordered_map<Addr, ProcId> lock_holder_;
    Cycles now_ = 0;
    std::uint64_t retired_before_reset_ = 0;
    Cycles window_start_ = 0;

    // Run-loop carry state.  Formerly locals of run(); promoted to
    // members so a checkpoint captures them and a restored run()
    // continues with the exact same watchdog/warmup decisions an
    // uninterrupted run would have made (carry_valid_ gates the
    // reinitialization at run() entry).
    bool warmed_ = false;
    std::uint64_t wd_last_retired_ = 0;
    Cycles wd_last_progress_ = 0;
    bool carry_valid_ = false;

    // Epoch-hash / checkpoint bookkeeping (not part of the state hash).
    Cycles epoch_next_ = 0;
    Cycles ckpt_next_ = 0;
    std::vector<EpochHash> epoch_hashes_;
};

} // namespace dbsim::sim

#endif // DBSIM_SIM_SYSTEM_HPP
