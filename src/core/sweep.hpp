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
 * the pool.  FailurePolicy selects abort / collect / bounded retry;
 * retries re-run the identical (item, index) pair, so a retried success
 * is bitwise-equal to an undisturbed run.  SweepJournal appends each
 * finished item as one JSON line, and planResume() turns a journal back
 * into "skip these, re-run those", which is how an interrupted sweep
 * resumes without repeating completed work.
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
 * Simulated statistics are deterministic in the configuration; only
 * wall_seconds / sim_ips depend on the host.
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
    double wall_seconds = 0.0; ///< host time spent simulating this config
    double sim_ips = 0.0;      ///< simulated instructions per host second

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
    Config,    ///< ConfigError: the configuration was rejected (not retried)
    Invariant, ///< SimInvariantError: DBSIM_PANIC / watchdog / checker
    Timeout,   ///< SimTimeoutError: host-side item deadline expired
    Exception, ///< any other exception
    Interrupted, ///< SimInterruptedError: SIGINT/SIGTERM (never retried)
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
    unsigned attempts = 1; ///< attempts consumed, including the last
    /** Path of the item's checkpoint file, when one exists on disk --
     *  how a resumed sweep continues a long item mid-flight instead of
     *  starting it over. */
    std::string checkpoint_path;
};

/** What the runner does when an item fails. */
struct FailurePolicy
{
    enum class Mode : std::uint8_t {
        Abort,   ///< record, finish remaining items, caller rethrows
        Collect, ///< record as SweepFailure, keep going
        Retry,   ///< re-run up to max_attempts, then collect
    };

    Mode mode = Mode::Abort;
    unsigned max_attempts = 1; ///< total attempts per item (Retry only)

    static FailurePolicy abort() { return {}; }
    static FailurePolicy collect() { return {Mode::Collect, 1}; }
    static FailurePolicy
    retry(unsigned max_attempts)
    {
        return {Mode::Retry, max_attempts < 1 ? 1u : max_attempts};
    }

    /** True when failures are captured instead of propagated. */
    bool isolating() const { return mode != Mode::Abort; }

    /** "abort" / "collect" / "retry:N" (for reports and logs). */
    std::string describe() const;
};

/** The outcome of one item under runChecked(). */
struct SweepItemOutcome
{
    enum class Status : std::uint8_t { Ok, Failed };

    Status status = Status::Ok;
    std::size_t index = 0;  ///< index within the original item list
    unsigned attempts = 1;  ///< attempts consumed
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
 * under a collect/retry policy" -- distinct from config rejection (2),
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
     * Derive per-item workload seeds as splitmix64(base ^ index) instead
     * of using the seeds in each SimConfig.  The default (0) leaves the
     * configs' own seeds untouched, which is what the figure benches
     * want: every configuration replays the *same* workload.
     */
    void setBaseSeed(std::uint64_t base) { base_seed_ = base; }

    /** Failure handling for runChecked() (default: abort). */
    void setFailurePolicy(FailurePolicy policy) { policy_ = policy; }
    const FailurePolicy &failurePolicy() const { return policy_; }

    /**
     * Host-side wall-clock budget per item in seconds (0 disables).  An
     * item still running past the deadline is abandoned mid-loop and
     * recorded as a FailureKind::Timeout carrying the machine-state
     * dump.  Retries re-arm a fresh deadline.
     */
    void setItemTimeout(double seconds)
    {
        item_timeout_sec_ = seconds > 0.0 ? seconds : 0.0;
    }
    double itemTimeout() const { return item_timeout_sec_; }

    /**
     * Test-only hook: consult @p plan (not owned; may be nullptr) before
     * each (item, attempt) and fire any scheduled fault.  Used by the
     * fault-injection tests.
     */
    void setFaultPlan(const FaultPlan *plan) { fault_plan_ = plan; }

    /**
     * Directory for per-item checkpoints (empty disables, the default).
     * When set, every item runs with a checkpoint path of
     * checkpointPathFor(original index): the run loop checkpoints
     * periodically and on timeout/signal unwind, retries of
     * timeout-kind failures restore from the item's checkpoint instead
     * of starting over, and failures record the checkpoint path in the
     * journal so a resumed sweep continues long items mid-flight.
     */
    void setCheckpointDir(std::string dir);
    const std::string &checkpointDir() const { return checkpoint_dir_; }

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

    /** When true, first attempts also restore from an existing item
     *  checkpoint (the --restore resume path).  Retries always do. */
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
     * Run every item; results come back in input order regardless of
     * completion order.  If any configuration throws (e.g. ConfigError
     * from validation), all remaining items still run, then the
     * lowest-index exception is rethrown -- so error behavior is also
     * independent of the job count.  (Equivalent to runChecked() under
     * FailurePolicy::abort() plus the rethrow.)
     */
    std::vector<SweepResult> run(const std::vector<SweepItem> &items) const;

    /**
     * Fault-isolated run under the configured FailurePolicy: per-item
     * outcomes in input order, failures captured as SweepFailure (with
     * panics converted to exceptions via PanicThrowGuard while an
     * isolating policy is active).  Under FailurePolicy::abort() nothing
     * is rethrown here either -- the caller owns propagation (see
     * run()).
     */
    SweepOutcome runChecked(const std::vector<SweepItem> &items) const;

    /**
     * Like runChecked(items), but item i is treated as index
     * @p original_indices[i] of a larger sweep -- labels, derived seeds,
     * fault matching and reported indices all use the original index.
     * This is the resume path: re-running the failed/missing subset of a
     * journaled sweep must reproduce the exact per-item seeds of the
     * clean run.  @p original_indices must have items.size() entries.
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

    /**
     * Resolve the per-item timeout: a positive @p cli_seconds wins;
     * otherwise a valid nonnegative integer DBSIM_ITEM_TIMEOUT (seconds)
     * from the environment; otherwise 0 (disabled).  Invalid environment
     * values warn and are ignored, in the cyclesFromEnv() style.
     */
    static double resolveItemTimeout(double cli_seconds);

  private:
    SweepResult runOne(const SweepItem &item, std::size_t index,
                       unsigned attempt) const;
    SweepItemOutcome runIsolated(const SweepItem &item,
                                 std::size_t index) const;

    unsigned jobs_;
    std::uint64_t base_seed_ = 0;
    FailurePolicy policy_;
    double item_timeout_sec_ = 0.0;
    const FaultPlan *fault_plan_ = nullptr;
    std::function<void(const SweepItemOutcome &)> on_complete_;
    std::string checkpoint_dir_;
    Cycles checkpoint_interval_ = 0;
    Cycles state_hash_interval_ = 0;
    bool restore_ = false;
};

// ---------------------------------------------------------------------
// Report (schema dbsim-bench-v2)
// ---------------------------------------------------------------------

/**
 * Accumulates sweep results across a bench's sections for the --json
 * report.  The emitted document is schema "dbsim-bench-v2": every
 * result is one compact entry object (section/label/index/status/
 * attempts, then the metrics, or an error object for failures), so a
 * journal line and a report entry are the same bytes -- the property
 * the resume path's field-exactness rests on.
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

    /** Append fresh successful results (status ok, 1 attempt each). */
    void add(const std::string &section,
             const std::vector<SweepResult> &results);

    /** Append every outcome of a fault-isolated sweep. */
    void add(const std::string &section, const SweepOutcome &outcome);

    /** Append one journaled entry verbatim (resume path). */
    void addReplayed(const std::string &section, std::string raw_line);

    /** Number of failed entries accumulated so far. */
    std::size_t failures() const;
};

/**
 * Render one report entry as a compact, single-line JSON object --
 * exactly the text that goes into both the journal and the v2 report's
 * results array.  Deterministic: identical outcomes render to identical
 * bytes (modulo the wall-clock fields' values).
 */
std::string renderSweepEntryJson(const std::string &section,
                                 const SweepItemOutcome &outcome);

/** Emit the full report as JSON (schema dbsim-bench-v2). */
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

    bool
    isOpen() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return os_.is_open();
    }

    std::string
    path() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return path_;
    }

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
    // dbsim-analyze: guarded_by(mu_)
    std::ofstream os_;
    // dbsim-analyze: guarded_by(mu_)
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
