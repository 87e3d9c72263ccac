/**
 * @file
 * Parallel configuration-sweep runner, its fault-tolerance layer, and
 * the machine-readable report.
 *
 * Every figure bench replays the same workload through a list of
 * independent configurations.  SweepRunner executes such a list on a
 * bounded pool of host threads -- one fully independent Simulation per
 * configuration -- and returns results in input order.
 *
 * Determinism contract (see DESIGN.md): the simulated results of a
 * sweep (cycle counts, instruction counts, breakdowns, miss rates,
 * occupancy distributions) are a pure function of the configuration
 * list.  Running the same list with 1 job or 8 jobs produces bitwise
 * identical simulated statistics; only wall-clock fields differ.  This
 * holds because each Simulation owns all of its state, every stochastic
 * decision draws from Rngs seeded by the configuration, and the few
 * process-global facilities (logging, the crash-dump registry) are
 * thread-safe and feedback-free.
 *
 * Fault tolerance (DESIGN.md §5e): runChecked() isolates each item --
 * a panic (captured via PanicThrowGuard), exception, or host-deadline
 * expiry in item k becomes a structured SweepFailure instead of killing
 * the pool.  Under abort the caller rethrows the lowest-index failure;
 * under collect it stays a report entry.  SweepJournal appends each
 * finished item as one JSON line, and planResume() turns a journal back
 * into "skip these, re-run those", which is how an interrupted or
 * partly failed sweep is re-run without repeating completed work.
 */

#ifndef DBSIM_CORE_SWEEP_HPP
#define DBSIM_CORE_SWEEP_HPP

#include <cstdint>
#include <exception>
#include <fstream>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "coherence/directory.hpp"
#include "common/stats.hpp"
#include "core/config.hpp"
#include "core/fault_plan.hpp"
#include "core/report.hpp"
#include "core/simulation.hpp"
#include "sim/node.hpp"

namespace dbsim::core {

/** One configuration of a sweep. */
struct SweepItem
{
    std::string label;
    SimConfig cfg;
};

/** Migratory-sharing characterization snapshot (collected per run). */
struct MigratorySummary
{
    std::uint64_t shared_writes = 0;
    std::uint64_t migratory_writes = 0;
    std::uint64_t dirty_reads = 0;
    std::uint64_t migratory_dirty_reads = 0;
    std::uint64_t migratory_lines = 0;
    std::uint64_t migratory_pcs = 0;
    double write_fraction = 0.0;
    double dirty_read_fraction = 0.0;
    double line_concentration_70 = 0.0; ///< lines covering 70% of writes
    double pc_concentration_75 = 0.0;   ///< PCs covering 75% of references
};

/**
 * Everything the reporting layer needs from one configuration run.
 * Every field is deterministic in the configuration: nothing here
 * depends on the host.
 */
struct SweepResult
{
    std::string label;
    std::string config;    ///< describe(cfg)
    SimConfig cfg;
    sim::RunResult run;
    Characterization ch;
    sim::NodeStats node0;  ///< node-0 cache/stream-buffer counters
    coher::FabricStats fabric;
    std::uint64_t context_switches = 0; ///< summed over all cores
    stats::OccupancyTracker l1d_occ{64};
    stats::OccupancyTracker l1d_read_occ{64};
    stats::OccupancyTracker l2_occ{64};
    stats::OccupancyTracker l2_read_occ{64};
    MigratorySummary migratory;

    /** The figure row for the text reports. */
    BreakdownRow
    row() const
    {
        return BreakdownRow{label, run.breakdown, run.instructions};
    }
};

// ---------------------------------------------------------------------
// Failure taxonomy
// ---------------------------------------------------------------------

/** Classification of a captured per-item failure. */
enum class FailureKind : std::uint8_t {
    Config,    ///< ConfigError: the configuration was rejected
    Invariant, ///< SimInvariantError: DBSIM_PANIC / watchdog / checker
    Timeout,   ///< SimTimeoutError: host-side item deadline expired
    Exception, ///< any other exception
    Interrupted, ///< SimInterruptedError: SIGINT/SIGTERM
};

const char *failureKindName(FailureKind kind);

/** A structured, per-item failure captured by the isolation layer. */
struct SweepFailure
{
    std::string label;  ///< effective label of the failed item
    std::size_t index = 0; ///< index within the original item list
    FailureKind kind = FailureKind::Exception;
    std::string what;   ///< first line of the error message
    std::string crash_dump_excerpt; ///< bounded diagnostic dump (may be empty)
    /** Path of the item's checkpoint file, when one exists on disk --
     *  how a resumed sweep continues a long item mid-flight instead of
     *  starting it over. */
    std::string checkpoint_path;
};

/** The outcome of one item under runChecked(). */
struct SweepItemOutcome
{
    enum class Status : std::uint8_t { Ok, Failed };

    Status status = Status::Ok;
    std::size_t index = 0;  ///< index within the original item list
    SweepResult result;     ///< valid when ok()
    SweepFailure failure;   ///< valid when !ok()
    std::exception_ptr error; ///< last exception (abort-mode rethrow)

    bool ok() const { return status == Status::Ok; }
};

/** All per-item outcomes of a runChecked() sweep, in input order. */
struct SweepOutcome
{
    std::vector<SweepItemOutcome> items;

    std::size_t failures() const;
    bool allOk() const { return failures() == 0; }
};

/**
 * Exit code benches use for "the sweep finished, but some items failed
 * under collect" -- distinct from config rejection (2),
 * invariant abort (3) and generic/IO failure (1).
 */
inline constexpr int kSweepPartialFailureExit = 4;

/**
 * dbsim's one worker pool: call @p fn(i) for every i in [0, n), handing
 * the indices out from one atomic counter to min(@p jobs, n) host
 * threads, or on the calling thread when that is at most 1.  @p fn must
 * be safe to call concurrently and is what puts results in index order.
 * If @p fn throws, no further indices are handed out and the first
 * exception is rethrown once every thread has joined.
 */
void forEachIndex(std::size_t n, unsigned jobs,
                  const std::function<void(std::size_t)> &fn);

/**
 * Runs a list of configurations across a bounded pool of host threads
 * (forEachIndex).
 */
class SweepRunner
{
  public:
    /** Hard ceiling on the resolved job count (see resolveJobs). */
    static constexpr unsigned kMaxJobs = 4096;

    /**
     * @param jobs concurrent simulations; 0 resolves via resolveJobs(0)
     *             (DBSIM_JOBS, then the host's hardware concurrency).
     */
    explicit SweepRunner(unsigned jobs = 0);

    unsigned jobs() const { return jobs_; }

    /**
     * Failure handling for runChecked().  false (abort, the default):
     * a DBSIM_PANIC keeps its process-abort semantics and the caller
     * rethrows the lowest-index failure.  true (collect): panics are
     * captured too, and every failure stays a per-item SweepFailure.
     */
    void setCollect(bool collect) { collect_ = collect; }
    bool collects() const { return collect_; }

    /**
     * Host-side wall-clock budget per item in seconds (0 disables).  An
     * item still running past the deadline is abandoned mid-loop and
     * recorded as a FailureKind::Timeout carrying the machine-state
     * dump.
     */
    void setItemTimeout(double seconds)
    {
        item_timeout_sec_ = seconds > 0.0 ? seconds : 0.0;
    }
    double itemTimeout() const { return item_timeout_sec_; }

    /**
     * Test-only hook: consult @p plan (not owned; may be nullptr) before
     * each item and fire any scheduled fault.  Used by the
     * fault-injection tests.
     */
    void setFaultPlan(const FaultPlan *plan) { fault_plan_ = plan; }

    /**
     * Directory for per-item checkpoints (empty disables, the default).
     * When set, every item runs with a checkpoint path of
     * checkpointPathFor(original index): the run loop checkpoints
     * periodically and on timeout/signal unwind, and failures record
     * the checkpoint path in the journal so a resumed sweep continues
     * long items mid-flight (setRestore).
     */
    void setCheckpointDir(std::string dir);

    /** Simulated-cycle cadence of periodic checkpoints (0 = a default
     *  of 500k cycles when a checkpoint dir is configured). */
    void setCheckpointInterval(Cycles interval)
    {
        checkpoint_interval_ = interval;
    }

    /** Epoch state-hash cadence forwarded to every item's config
     *  (0 disables; see SystemParams::state_hash_interval). */
    void setStateHashInterval(Cycles interval)
    {
        state_hash_interval_ = interval;
    }

    /** When true, an item with a checkpoint on disk continues from it
     *  instead of starting over (what --resume does once a checkpoint
     *  dir is set). */
    void setRestore(bool restore) { restore_ = restore; }

    /** Checkpoint file path for original item @p index (empty when no
     *  checkpoint dir is configured). */
    std::string checkpointPathFor(std::size_t index) const;

    /**
     * Invoked once per item as it reaches its final status (from worker
     * threads, serialized by the runner) -- the journaling hook.  The
     * outcome's index refers to the original item list.
     */
    void
    setCompletionCallback(std::function<void(const SweepItemOutcome &)> cb)
    {
        on_complete_ = std::move(cb);
    }

    /**
     * Run every item: per-item outcomes in input order regardless of
     * completion order, failures captured as SweepFailure (with panics
     * converted to exceptions via PanicThrowGuard under collect).  All
     * items run even when some fail; nothing is rethrown here -- the
     * caller owns propagation (BenchContext::sweep rethrows the
     * lowest-index error under abort, so error behavior is independent
     * of the job count).
     */
    SweepOutcome runChecked(const std::vector<SweepItem> &items) const;

    /**
     * Like runChecked(items), but item i is treated as index
     * @p original_indices[i] of a larger sweep -- checkpoint paths,
     * fault matching and reported indices all use the original index.
     * This is the resume path: the failed/missing subset of a journaled
     * sweep re-runs as the same items of the same sweep.
     * @p original_indices must have items.size() entries.
     */
    SweepOutcome
    runChecked(const std::vector<SweepItem> &items,
               const std::vector<std::size_t> &original_indices) const;

    /**
     * Resolve a job count: a nonzero @p cli_jobs wins; otherwise a valid
     * positive DBSIM_JOBS environment value; otherwise the host's
     * hardware concurrency (at least 1).  Invalid DBSIM_JOBS values
     * warn and are ignored; values above kMaxJobs (from either source)
     * warn and clamp -- a fat-fingered DBSIM_JOBS must not spawn
     * thousands of threads.
     */
    static unsigned resolveJobs(unsigned cli_jobs);

  private:
    SweepResult runOne(const SweepItem &item, std::size_t index) const;
    SweepItemOutcome runIsolated(const SweepItem &item,
                                 std::size_t index) const;

    unsigned jobs_;
    bool collect_ = false;
    double item_timeout_sec_ = 0.0;
    const FaultPlan *fault_plan_ = nullptr;
    std::function<void(const SweepItemOutcome &)> on_complete_;
    std::string checkpoint_dir_;
    Cycles checkpoint_interval_ = 0;
    Cycles state_hash_interval_ = 0;
    bool restore_ = false;
};

// ---------------------------------------------------------------------
// Report (schema dbsim-bench-v4)
// ---------------------------------------------------------------------

/**
 * Accumulates sweep results across a bench's sections for the --json
 * report.  The emitted document is schema "dbsim-bench-v4": every
 * result is one compact entry object (section/label/index/status, then
 * the metrics, or an error object for failures), so a journal line and
 * a report entry are the same bytes -- the property a resumed report's
 * byte equality with an uninterrupted one rests on.
 */
struct SweepReport
{
    std::string bench;  ///< e.g. "fig2_oltp_ilp"
    unsigned jobs = 1;
    std::string failure_policy = "abort";
    double item_timeout_sec = 0.0;

    struct Entry
    {
        std::string section;
        bool replayed = false;  ///< true: raw journal line spliced verbatim
        std::string raw;        ///< the journal line (replayed only)
        SweepItemOutcome outcome; ///< fresh result/failure (!replayed)
    };
    std::vector<Entry> entries;

    /** Number of failed entries accumulated so far. */
    std::size_t failures() const;
};

/**
 * Render one report entry as a compact, single-line JSON object --
 * exactly the text that goes into both the journal and the report's
 * results array.  Deterministic: identical outcomes render to identical
 * bytes.
 */
std::string renderSweepEntryJson(const std::string &section,
                                 const SweepItemOutcome &outcome);

/** Emit the full report as JSON (schema dbsim-bench-v4). */
void writeSweepJson(std::ostream &os, const SweepReport &report);

/**
 * Write the report to @p path (overwrites).
 * @return false (with a warning) if the file cannot be written.
 */
bool writeSweepJsonFile(const std::string &path, const SweepReport &report);

// ---------------------------------------------------------------------
// Journal + resume
// ---------------------------------------------------------------------

/** Minimal parsed view of one journal line (plus the verbatim line). */
struct SweepJournalEntry
{
    std::string section;
    std::string label;
    std::string status; ///< "ok" or "failed"
    std::string raw;    ///< the full line, one JSON object

    bool ok() const { return status == "ok"; }
};

/**
 * Append-only, line-flushed journal of finished sweep items.  Each line
 * is one renderSweepEntryJson() object, written and flushed as the item
 * completes, so a killed process leaves a parseable prefix.  Thread-safe
 * (the runner's completion callback fires from worker threads).
 */
class SweepJournal
{
  public:
    SweepJournal() = default;

    /**
     * Open @p path for journaling; truncates unless @p append.
     * @return false (with a warning) when the file cannot be opened --
     * the sweep still runs, just without a journal.
     */
    bool open(const std::string &path, bool append);

    /** Append one finished item (rendered) and flush. */
    void append(const std::string &section, const SweepItemOutcome &outcome);

    /** Append one pre-rendered line verbatim and flush. */
    void appendRaw(const std::string &raw_line);

    void close();

    /**
     * Parse @p path into entries, tolerating a torn final line (a
     * mid-write kill): lines that are not complete JSON objects with
     * the expected fields are skipped with a warning.  A missing or
     * unreadable file warns and yields no entries.
     */
    static std::vector<SweepJournalEntry> load(const std::string &path);

  private:
    mutable std::mutex mu_;
    // Guarded by mu_.
    std::ofstream os_;
    // Guarded by mu_.
    std::string path_;
};

/** Which items of a section a resumed sweep replays vs. re-runs. */
struct ResumePlan
{
    /** Per input item: the journal line to splice, or empty = re-run. */
    std::vector<std::string> replayed;
    /** Indices (into the input items) that must actually run. */
    std::vector<std::size_t> to_run;

    std::size_t
    replayedCount() const
    {
        return replayed.size() - to_run.size();
    }
};

/**
 * Match @p items of @p section against journal @p entries: an item whose
 * (section, label) has a status-"ok" journal line is replayed verbatim;
 * failed, torn or missing items are re-run.  Duplicate labels consume
 * journal lines in order.  Items with empty labels match on
 * describe(cfg), mirroring runOne()'s effective-label rule.
 */
ResumePlan planResume(const std::string &section,
                      const std::vector<SweepItem> &items,
                      const std::vector<SweepJournalEntry> &entries);

} // namespace dbsim::core

#endif // DBSIM_CORE_SWEEP_HPP
