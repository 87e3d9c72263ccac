/**
 * @file
 * Shared harness for the figure-reproduction benchmarks.
 *
 * Every bench builds declarative SweepItem lists (one per figure
 * section), runs them through core::SweepRunner -- in parallel across
 * host threads, deterministically -- and prints the same text reports
 * as before from the returned results.  The harness also owns the
 * flags every bench shares:
 *
 *   --jobs N              bound the number of concurrent simulations
 *                         (default: DBSIM_JOBS, then hardware concurrency)
 *   --json PATH           write every section's results as machine-readable
 *                         JSON (schema dbsim-bench-v2)
 *   --journal PATH        incremental journal of finished items (default:
 *                         <bench>.journal.jsonl; "none" disables)
 *   --resume PATH         replay completed items from PATH, re-run only
 *                         failed/missing ones
 *   --on-failure MODE     abort (default) or collect: keep going past a
 *                         failed item and record it in the report
 *   --max-retries N       re-run a failed item up to N more times with
 *                         identical seeds (implies collect on final failure)
 *   --item-timeout-sec N  host wall-clock budget per item (default:
 *                         DBSIM_ITEM_TIMEOUT, then disabled)
 *   --checkpoint-dir D    write per-item checkpoints under D; timed-out /
 *                         interrupted items leave a resumable checkpoint
 *   --checkpoint-interval N  periodic checkpoint every N cycles (default
 *                         500000 once a checkpoint dir is set)
 *   --state-hash-interval N  record an FNV state hash every N cycles
 *                         (emitted per item in the JSON report)
 *   --restore             before running an item, restore it from its
 *                         checkpoint under --checkpoint-dir if one exists
 *
 * Exit codes: 0 clean; 1 JSON/journal write failure; 2 config rejection;
 * 3 invariant failure; core::kSweepPartialFailureExit (4) when a
 * collect/retry sweep finished with failed items in the report.
 */

#ifndef DBSIM_BENCH_BENCH_UTIL_HPP
#define DBSIM_BENCH_BENCH_UTIL_HPP

#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/errors.hpp"
#include "common/parse.hpp"
#include "core/config.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"
#include "sim/diagnostics.hpp"

namespace dbsim::bench {

/** Harness flags plus whatever bench-specific flags remain. */
struct BenchOptions
{
    unsigned jobs = 0;       ///< 0 = resolve via DBSIM_JOBS / hardware
    std::string json_path;   ///< empty = no JSON report
    std::string journal_path; ///< empty = default; "none" = disabled
    std::string resume_path;  ///< empty = no resume
    bool collect_failures = false;   ///< --on-failure collect
    unsigned max_retries = 0;        ///< extra attempts per failed item
    unsigned item_timeout_sec = 0;   ///< 0 = DBSIM_ITEM_TIMEOUT / disabled
    std::string checkpoint_dir;      ///< empty = checkpointing disabled
    std::uint64_t checkpoint_interval = 0; ///< cycles; 0 = default
    std::uint64_t state_hash_interval = 0; ///< cycles; 0 = disabled
    bool restore = false;            ///< --restore: reuse item checkpoints
    std::vector<std::string> rest; ///< unconsumed (bench-specific) args

    bool
    has(const char *flag) const
    {
        for (const auto &a : rest)
            if (a == flag)
                return true;
        return false;
    }
};

/**
 * Parse the shared harness flags (each accepts both `--flag V` and
 * `--flag=V`); everything else is passed through in `rest`.  Bad values
 * throw ConfigError (guardedMain turns that into exit code 2).
 */
inline BenchOptions
parseBenchArgs(int argc, char **argv)
{
    BenchOptions opts;
    constexpr std::uint64_t kMaxU32 = 0xffffffffu;
    auto apply = [&](const std::string &flag, const std::string &v) {
        if (flag == "--jobs") {
            opts.jobs = parseUnsignedFlag(flag, v, 1, kMaxU32);
        } else if (flag == "--json") {
            opts.json_path = v;
        } else if (flag == "--journal") {
            opts.journal_path = v;
        } else if (flag == "--resume") {
            opts.resume_path = v;
        } else if (flag == "--max-retries") {
            opts.max_retries = parseUnsignedFlag(flag, v, 0, kMaxU32);
        } else if (flag == "--item-timeout-sec") {
            opts.item_timeout_sec = parseUnsignedFlag(flag, v, 0, kMaxU32);
        } else if (flag == "--checkpoint-dir") {
            opts.checkpoint_dir = v;
        } else if (flag == "--checkpoint-interval") {
            opts.checkpoint_interval = parseUnsignedFlag(flag, v);
        } else if (flag == "--state-hash-interval") {
            opts.state_hash_interval = parseUnsignedFlag(flag, v);
        } else if (flag == "--on-failure") {
            if (v == "collect") {
                opts.collect_failures = true;
            } else if (v == "abort") {
                opts.collect_failures = false;
            } else {
                throw ConfigError("cli.on-failure",
                                  "--on-failure wants abort or collect, "
                                  "got \"" +
                                      v + "\"");
            }
        }
    };
    const char *valued[] = {"--jobs",        "--json",
                            "--journal",     "--resume",
                            "--max-retries", "--item-timeout-sec",
                            "--on-failure",  "--checkpoint-dir",
                            "--checkpoint-interval",
                            "--state-hash-interval"};
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        bool consumed = false;
        if (a == "--restore") { // valueless flag
            opts.restore = true;
            continue;
        }
        for (const char *flag : valued) {
            if (a == flag) {
                if (i + 1 >= argc) {
                    throw ConfigError("cli." + std::string(flag + 2),
                                      a + " needs a value");
                }
                apply(flag, argv[++i]);
                consumed = true;
                break;
            }
            const std::string eq = std::string(flag) + "=";
            if (a.rfind(eq, 0) == 0) {
                apply(flag, a.substr(eq.size()));
                consumed = true;
                break;
            }
        }
        if (!consumed)
            opts.rest.push_back(a);
    }
    return opts;
}

/**
 * One bench run: a SweepRunner plus the accumulated JSON report, the
 * incremental journal, and (optionally) the resume plan.  Sections call
 * sweep(); main ends with `return ctx.finish();`.
 */
class BenchContext
{
  public:
    BenchContext(std::string bench_name, const BenchOptions &opts)
        : opts_(opts), runner_(opts.jobs)
    {
        report_.bench = std::move(bench_name);
        report_.jobs = runner_.jobs();

        core::FailurePolicy policy = core::FailurePolicy::abort();
        if (opts.max_retries > 0)
            policy = core::FailurePolicy::retry(1 + opts.max_retries);
        else if (opts.collect_failures)
            policy = core::FailurePolicy::collect();
        runner_.setFailurePolicy(policy);
        runner_.setItemTimeout(core::SweepRunner::resolveItemTimeout(
            static_cast<double>(opts.item_timeout_sec)));
        runner_.setStateHashInterval(opts.state_hash_interval);
        if (!opts.checkpoint_dir.empty()) {
            runner_.setCheckpointDir(opts.checkpoint_dir);
            runner_.setCheckpointInterval(opts.checkpoint_interval);
            runner_.setRestore(opts.restore);
            // SIGINT/SIGTERM now flush a checkpoint before unwinding, so
            // an interrupted sweep can be resumed mid-item.
            sim::installCheckpointSignalHandler();
        }
        report_.failure_policy = policy.describe();
        report_.item_timeout_sec = runner_.itemTimeout();

        if (!opts.resume_path.empty())
            journal_entries_ = core::SweepJournal::load(opts.resume_path);

        std::string journal_path = opts.journal_path;
        if (journal_path.empty())
            journal_path = report_.bench + ".journal.jsonl";
        if (journal_path != "none") {
            // Resuming from the journal we are about to write: append,
            // so completed lines survive and a second resume still sees
            // them.  Otherwise start a fresh journal; replayed entries
            // are copied into it as sections are assembled, keeping the
            // new journal complete on its own.
            const bool append = journal_path == opts.resume_path;
            if (journal_.open(journal_path, append)) {
                copy_replayed_to_journal_ = !append;
                runner_.setCompletionCallback(
                    [this](const core::SweepItemOutcome &o) {
                        journal_.append(current_section_, o);
                    });
            }
        }
    }

    const BenchOptions &opts() const { return opts_; }
    const core::SweepRunner &runner() const { return runner_; }

    /**
     * Run @p items (in parallel) and log them under @p section.  On
     * resume, journaled-ok items are replayed into the report without
     * re-running; the returned vector holds only the freshly-run
     * successful results (bench text output degrades gracefully).
     * Under the abort policy a failure is rethrown -- lowest index
     * first -- after the section's other items finished and were
     * journaled.
     */
    std::vector<core::SweepResult>
    sweep(const std::string &section,
          const std::vector<core::SweepItem> &items)
    {
        core::ResumePlan plan;
        if (!opts_.resume_path.empty()) {
            plan = core::planResume(section, items, journal_entries_);
        } else {
            plan.replayed.resize(items.size());
            for (std::size_t i = 0; i < items.size(); ++i)
                plan.to_run.push_back(i);
        }

        core::SweepOutcome outcome;
        if (!plan.to_run.empty()) {
            std::vector<core::SweepItem> subset;
            subset.reserve(plan.to_run.size());
            for (const std::size_t i : plan.to_run)
                subset.push_back(items[i]);
            current_section_ = section;
            outcome = runner_.runChecked(subset, plan.to_run);
        }
        if (plan.replayedCount() > 0) {
            std::cout << "[resume] " << section << ": replayed "
                      << plan.replayedCount() << "/" << items.size()
                      << " completed items from " << opts_.resume_path
                      << "\n";
        }

        // Assemble the section in input order: replayed lines verbatim,
        // fresh outcomes as produced.
        std::vector<core::SweepResult> fresh_ok;
        std::size_t next_fresh = 0;
        std::exception_ptr abort_error;
        for (std::size_t i = 0; i < items.size(); ++i) {
            if (!plan.replayed[i].empty()) {
                if (copy_replayed_to_journal_)
                    journal_.appendRaw(plan.replayed[i]);
                report_.addReplayed(section, plan.replayed[i]);
                continue;
            }
            const core::SweepItemOutcome &o = outcome.items[next_fresh++];
            if (o.ok())
                fresh_ok.push_back(o.result);
            else if (!abort_error && o.error)
                abort_error = o.error;
            report_.entries.push_back({section, false, {}, o});
        }
        if (abort_error &&
            runner_.failurePolicy().mode ==
                core::FailurePolicy::Mode::Abort) {
            std::rethrow_exception(abort_error);
        }
        return fresh_ok;
    }

    /**
     * Write the JSON report if requested and close the journal.
     * Returns the exit code: 1 when the report could not be written
     * (CI must fail loudly, never upload a stale file),
     * core::kSweepPartialFailureExit when items failed under a
     * collect/retry policy, 0 otherwise.
     */
    int
    finish()
    {
        journal_.close();
        int code = 0;
        if (report_.failures() > 0) {
            std::cerr << "dbsim: sweep finished with "
                      << report_.failures() << " failed item(s) of "
                      << report_.entries.size() << " (policy "
                      << report_.failure_policy << ")\n";
            code = core::kSweepPartialFailureExit;
        }
        if (!opts_.json_path.empty() &&
            !core::writeSweepJsonFile(opts_.json_path, report_)) {
            code = 1;
        }
        return code;
    }

    const core::SweepReport &report() const { return report_; }

  private:
    BenchOptions opts_;
    core::SweepRunner runner_;
    core::SweepReport report_;
    core::SweepJournal journal_;
    std::vector<core::SweepJournalEntry> journal_entries_;
    std::string current_section_;
    bool copy_replayed_to_journal_ = false;
};

/** The figure rows of a result list, in sweep order. */
inline std::vector<core::BreakdownRow>
rowsOf(const std::vector<core::SweepResult> &results)
{
    std::vector<core::BreakdownRow> rows;
    rows.reserve(results.size());
    for (const auto &r : results)
        rows.push_back(r.row());
    return rows;
}

} // namespace dbsim::bench

#endif // DBSIM_BENCH_BENCH_UTIL_HPP
