#include "core/sweep.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/errors.hpp"
#include "common/log.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "core/json_writer.hpp"
#include "common/breakdown.hpp"
#include "sim/diagnostics.hpp"

namespace dbsim::core {

namespace {

/** Ceiling on the diagnostic dump text carried by a SweepFailure. */
constexpr std::size_t kMaxDumpExcerpt = 4000;

/** Periodic checkpoint cadence used when a checkpoint directory is
 *  configured without an explicit --checkpoint-interval. */
constexpr Cycles kDefaultCheckpointInterval = 500'000;

bool
fileExists(const std::string &path)
{
    return std::ifstream(path, std::ios::binary).good();
}

std::string
truncated(std::string s)
{
    if (s.size() > kMaxDumpExcerpt) {
        s.resize(kMaxDumpExcerpt);
        s += "\n... [truncated]";
    }
    return s;
}

/** Split an error message into (first line, remainder). */
std::pair<std::string, std::string>
splitFirstLine(const std::string &msg)
{
    const std::size_t nl = msg.find('\n');
    if (nl == std::string::npos)
        return {msg, {}};
    return {msg.substr(0, nl), msg.substr(nl + 1)};
}

} // namespace

const char *
failureKindName(FailureKind kind)
{
    switch (kind) {
      case FailureKind::Config:
        return "config";
      case FailureKind::Invariant:
        return "invariant";
      case FailureKind::Timeout:
        return "timeout";
      case FailureKind::Exception:
        return "exception";
      case FailureKind::Interrupted:
        return "interrupted";
    }
    return "unknown";
}

// dbsim-analyze: cold(sweep-journal bookkeeping, once per sweep point)
std::string
FailurePolicy::describe() const
{
    switch (mode) {
      case Mode::Abort:
        return "abort";
      case Mode::Collect:
        return "collect";
      case Mode::Retry:
        return "retry:" + std::to_string(max_attempts);
    }
    return "unknown";
}

std::size_t
SweepOutcome::failures() const
{
    std::size_t n = 0;
    for (const auto &o : items)
        n += o.ok() ? 0 : 1;
    return n;
}

void
forEachIndex(std::size_t n, unsigned jobs,
             const std::function<void(std::size_t)> &fn)
{
    const std::size_t workers = std::min<std::size_t>(jobs, n);
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    std::mutex mu;
    std::exception_ptr first_error; // guarded by mu
    const auto worker = [&] {
        try {
            for (std::size_t i = next++; i < n; i = next++)
                fn(i);
        } catch (...) {
            const std::lock_guard<std::mutex> lock(mu);
            if (!first_error)
                first_error = std::current_exception();
            next = n; // hand out no further indices
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    try {
        for (std::size_t w = 0; w < workers; ++w)
            pool.emplace_back(worker);
    } catch (...) {
        // Thread creation failed: stop and join the threads already
        // running before their captures go out of scope.
        next = n;
        for (std::thread &t : pool)
            t.join();
        throw;
    }
    for (std::thread &t : pool)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

// ---------------------------------------------------------------------
// SweepRunner
// ---------------------------------------------------------------------

unsigned
SweepRunner::resolveJobs(unsigned cli_jobs)
{
    unsigned resolved = 0;
    const char *source = "--jobs";
    if (cli_jobs > 0) {
        resolved = cli_jobs;
    } else if (const auto v = unsignedFromEnv("DBSIM_JOBS",
                                               "a positive integer")) {
        // Clamp before the unsigned narrowing: a huge DBSIM_JOBS must
        // not wrap into a small (or zero) thread count.
        resolved = *v > kMaxJobs ? kMaxJobs + 1 : static_cast<unsigned>(*v);
        source = "DBSIM_JOBS";
        if (*v == 0)
            DBSIM_WARN("DBSIM_JOBS=0 is not a positive integer; ignoring it");
    }
    if (resolved == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        return hw > 0 ? std::min(hw, kMaxJobs) : 1;
    }
    if (resolved > kMaxJobs) {
        DBSIM_WARN(source, " asks for ", resolved,
                   " concurrent simulations; clamping to ", kMaxJobs,
                   " (each job is a full Simulation on its own thread)");
        return kMaxJobs;
    }
    return resolved;
}

double
SweepRunner::resolveItemTimeout(double cli_seconds)
{
    if (cli_seconds > 0.0)
        return cli_seconds;
    return static_cast<double>(
        unsignedFromEnv("DBSIM_ITEM_TIMEOUT",
                        "a nonnegative number of seconds")
            .value_or(0));
}

SweepRunner::SweepRunner(unsigned jobs) : jobs_(resolveJobs(jobs)) {}

void
SweepRunner::setCheckpointDir(std::string dir)
{
    checkpoint_dir_ = std::move(dir);
    if (!checkpoint_dir_.empty()) {
        // Create the directory eagerly so the first mid-run periodic
        // checkpoint never turns a healthy item into a failure.
        std::error_code ec;
        std::filesystem::create_directories(checkpoint_dir_, ec);
        if (ec) {
            DBSIM_WARN("cannot create checkpoint dir ", checkpoint_dir_,
                       ": ", ec.message());
        }
    }
}

std::string
SweepRunner::checkpointPathFor(std::size_t index) const
{
    if (checkpoint_dir_.empty())
        return {};
    return checkpoint_dir_ + "/item-" + std::to_string(index) + ".ckpt";
}

SweepResult
SweepRunner::runOne(const SweepItem &item, std::size_t index,
                    unsigned attempt) const
{
    // The deadline covers everything below, including injected delays,
    // so a Delay fault plus a short timeout exercises the real
    // mid-simulation abandonment path.
    sim::HostDeadlineScope deadline(item_timeout_sec_);

    if (fault_plan_) {
        if (const FaultSpec *f = fault_plan_->match(index, attempt)) {
            switch (f->kind) {
              case FaultSpec::Kind::Throw:
                throw std::runtime_error(f->message);
              case FaultSpec::Kind::Panic:
                DBSIM_PANIC("injected fault: ", f->message);
                break;
              case FaultSpec::Kind::Delay:
                // dbsim-analyze: allow(determinism-wallclock) -- a
                // test-only injected host delay (exercises timeouts).
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(f->delay_seconds));
                break;
            }
        }
    }

    SweepResult out;
    out.label = item.label;
    out.cfg = item.cfg;
    if (base_seed_ != 0) {
        const std::uint64_t seed = splitmix64(base_seed_ ^ index);
        out.cfg.oltp.seed = seed;
        out.cfg.dss.seed = seed;
    }
    out.config = describe(out.cfg);
    if (out.label.empty())
        out.label = out.config;

    if (state_hash_interval_)
        out.cfg.system.state_hash_interval = state_hash_interval_;
    const std::string ckpt_path = checkpointPathFor(index);
    if (!ckpt_path.empty()) {
        out.cfg.system.checkpoint_path = ckpt_path;
        out.cfg.system.checkpoint_interval =
            checkpoint_interval_ ? checkpoint_interval_
                                 : kDefaultCheckpointInterval;
    }

    // Annotated host-timing code: wall_seconds / sim_ips report *host*
    // throughput and are excluded from determinism comparisons
    // (tools/compare_reports.py ignores exactly these fields).
    // dbsim-analyze: allow(determinism-wallclock)
    const auto t0 = std::chrono::steady_clock::now();
    Simulation simulation(out.cfg);
    // Continue from the item's checkpoint when resuming (--restore) or
    // retrying after a mid-flight failure; a fresh deadline plus the
    // already-simulated prefix is what makes timeout retries able to
    // finish instead of deterministically timing out again.
    if ((restore_ || attempt > 1) && !ckpt_path.empty() &&
        fileExists(ckpt_path)) {
        if (simulation.restoreFromCheckpoint(ckpt_path)) {
            DBSIM_WARN("sweep item ", index, " (\"", out.label,
                       "\") restored from checkpoint ", ckpt_path,
                       " at cycle ", simulation.system().now());
        }
    }
    out.run = simulation.run();
    // dbsim-analyze: allow(determinism-wallclock)
    const auto t1 = std::chrono::steady_clock::now();

    out.ch = simulation.characterize();
    auto &n0 = simulation.system().node(0);
    out.node0 = n0.stats();
    out.l1d_occ = n0.l1dMshrStats().occupancy;
    out.l1d_read_occ = n0.l1dMshrStats().read_occupancy;
    out.l2_occ = n0.l2MshrStats().occupancy;
    out.l2_read_occ = n0.l2MshrStats().read_occupancy;
    out.fabric = simulation.system().fabric().stats();
    for (std::uint32_t i = 0; i < simulation.system().numNodes(); ++i)
        out.context_switches +=
            simulation.system().core(i).stats().context_switches;

    const auto &mig = simulation.system().fabric().migratory();
    const auto &ms = mig.stats();
    out.migratory.shared_writes = ms.shared_writes;
    out.migratory.migratory_writes = ms.migratory_writes;
    out.migratory.dirty_reads = ms.dirty_reads;
    out.migratory.migratory_dirty_reads = ms.migratory_dirty_reads;
    out.migratory.migratory_lines = mig.migratoryLines();
    out.migratory.migratory_pcs = mig.migratoryPcs();
    out.migratory.write_fraction = ms.writeFraction();
    out.migratory.dirty_read_fraction = ms.dirtyReadFraction();
    out.migratory.line_concentration_70 = mig.lineConcentration(0.70);
    out.migratory.pc_concentration_75 = mig.pcConcentration(0.75);

    out.wall_seconds =
        std::chrono::duration<double>(t1 - t0).count();
    out.sim_ips = out.wall_seconds > 0.0
                      ? static_cast<double>(out.run.instructions) /
                            out.wall_seconds
                      : 0.0;
    return out;
}

SweepItemOutcome
SweepRunner::runIsolated(const SweepItem &item, std::size_t index) const
{
    const unsigned max_attempts =
        policy_.mode == FailurePolicy::Mode::Retry
            ? std::max(1u, policy_.max_attempts)
            : 1u;

    SweepItemOutcome out;
    out.index = index;

    for (unsigned attempt = 1;; ++attempt) {
        FailureKind kind = FailureKind::Exception;
        std::string what;
        std::string excerpt;
        try {
            out.result = runOne(item, index, attempt);
            out.status = SweepItemOutcome::Status::Ok;
            out.attempts = attempt;
            return out;
        } catch (const ConfigError &e) {
            kind = FailureKind::Config;
            what = e.what();
            out.error = std::current_exception();
        } catch (const SimTimeoutError &e) {
            kind = FailureKind::Timeout;
            what = e.what();
            excerpt = truncated(e.dump());
            out.error = std::current_exception();
        } catch (const SimInterruptedError &e) {
            // The operator asked the process to stop; retrying would
            // fight the shutdown.  The checkpoint (written before the
            // unwind) is recorded below for --resume --restore.
            kind = FailureKind::Interrupted;
            what = e.what();
            excerpt = truncated(e.dump());
            out.error = std::current_exception();
        } catch (const SimInvariantError &e) {
            // The panic path appends the crash-dump registry's text
            // after the first line of the message; split it back apart.
            kind = FailureKind::Invariant;
            auto [head, rest] = splitFirstLine(e.what());
            what = std::move(head);
            excerpt = truncated(std::move(rest));
            out.error = std::current_exception();
        } catch (const std::exception &e) {
            kind = FailureKind::Exception;
            what = e.what();
            out.error = std::current_exception();
        } catch (...) {
            kind = FailureKind::Exception;
            what = "unknown exception";
            out.error = std::current_exception();
        }

        // Configuration rejections are deterministic in the item, so
        // retrying them can only reproduce the same refusal; an
        // interrupt is the operator telling us to stop.  A timeout is
        // only worth retrying when the item has a checkpoint to restore
        // from -- an identical from-scratch re-run of a deterministic
        // simulation would hit the same wall and burn max_attempts
        // deadlines' worth of host time lying about its chances, so
        // without checkpoints the timeout is recorded honestly with the
        // attempts it actually consumed.
        bool retryable = kind != FailureKind::Config &&
                         kind != FailureKind::Interrupted;
        if (kind == FailureKind::Timeout && checkpoint_dir_.empty()) {
            retryable = false;
            if (max_attempts > 1 && attempt < max_attempts) {
                DBSIM_WARN("sweep item ", index, " (\"", item.label,
                           "\") timed out and no --checkpoint-dir is "
                           "configured; not retrying (a from-scratch "
                           "re-run would time out identically)");
            }
        }
        if (retryable && attempt < max_attempts) {
            DBSIM_WARN("sweep item ", index, " (\"", item.label,
                       "\") failed attempt ", attempt, "/", max_attempts,
                       " [", failureKindName(kind), "]: ", what,
                       "; retrying with identical seeds");
            continue;
        }

        out.status = SweepItemOutcome::Status::Failed;
        out.attempts = attempt;
        out.failure.label =
            item.label.empty() ? describe(item.cfg) : item.label;
        out.failure.index = index;
        out.failure.kind = kind;
        out.failure.what = std::move(what);
        out.failure.crash_dump_excerpt = std::move(excerpt);
        out.failure.attempts = attempt;
        if (const std::string p = checkpointPathFor(index);
            !p.empty() && fileExists(p)) {
            out.failure.checkpoint_path = p;
        }
        return out;
    }
}

namespace {

/**
 * Collects per-item outcomes from the worker pool with a machine-checked
 * sharing contract (DESIGN.md §5j): every slot write and the completion
 * callback run under mu_, so outcomes land in input order and journaling
 * callbacks fire serialized, whatever order the workers finish in.
 */
class SweepCollector
{
  public:
    SweepCollector(std::size_t n,
                   const std::function<void(const SweepItemOutcome &)> &cb)
        : cb_(cb)
    {
        items_.resize(n);
    }

    /** Deliver the outcome of input item @p i from a worker thread. */
    void
    deliver(std::size_t i, SweepItemOutcome outcome)
    {
        std::lock_guard<std::mutex> lock(mu_);
        items_[i] = std::move(outcome);
        ++delivered_;
        if (cb_)
            cb_(items_[i]);
    }

    /** Take the collected outcomes (after the pool has joined). */
    SweepOutcome
    take()
    {
        std::lock_guard<std::mutex> lock(mu_);
        SweepOutcome out;
        out.items = std::move(items_);
        items_.clear();
        delivered_ = 0;
        return out;
    }

  private:
    std::mutex mu_;
    const std::function<void(const SweepItemOutcome &)> &cb_;
    // dbsim-analyze: guarded_by(mu_)
    std::vector<SweepItemOutcome> items_;
    // dbsim-analyze: guarded_by(mu_)
    std::size_t delivered_ = 0;
};

} // namespace

SweepOutcome
SweepRunner::runChecked(const std::vector<SweepItem> &items) const
{
    std::vector<std::size_t> identity(items.size());
    for (std::size_t i = 0; i < items.size(); ++i)
        identity[i] = i;
    return runChecked(items, identity);
}

SweepOutcome
SweepRunner::runChecked(
    const std::vector<SweepItem> &items,
    const std::vector<std::size_t> &original_indices) const
{
    DBSIM_ASSERT(original_indices.size() == items.size(),
                 "runChecked: ", items.size(), " items but ",
                 original_indices.size(), " original indices");

    // Under an isolating policy a DBSIM_PANIC anywhere in an item must
    // surface as a catchable SimInvariantError, not a process abort.
    // The guard is process-global; workers inherit it for the duration
    // of the sweep.  Abort mode keeps today's semantics (a panic takes
    // the process down unless a test installed its own guard).
    std::optional<PanicThrowGuard> guard;
    if (policy_.isolating())
        guard.emplace();

    SweepCollector collector(items.size(), on_complete_);
    forEachIndex(items.size(), jobs_, [&](std::size_t i) {
        collector.deliver(i, runIsolated(items[i], original_indices[i]));
    });
    return collector.take();
}

std::vector<SweepResult>
SweepRunner::run(const std::vector<SweepItem> &items) const
{
    // Legacy entry point: always abort semantics, whatever policy the
    // runner carries -- callers that want isolation use runChecked().
    SweepRunner aborting(*this);
    aborting.policy_ = FailurePolicy::abort();
    const SweepOutcome out = aborting.runChecked(items);

    // Deterministic error propagation: the lowest-index failure wins,
    // whatever order the workers happened to hit it in.
    for (const auto &o : out.items) {
        if (!o.ok() && o.error)
            std::rethrow_exception(o.error);
    }

    std::vector<SweepResult> results;
    results.reserve(out.items.size());
    for (auto &o : out.items)
        results.push_back(std::move(o.result));
    return results;
}

// ---------------------------------------------------------------------
// JSON report
// ---------------------------------------------------------------------

void
SweepReport::add(const std::string &section,
                 const std::vector<SweepResult> &results)
{
    for (const auto &r : results) {
        Entry e;
        e.section = section;
        e.outcome.status = SweepItemOutcome::Status::Ok;
        e.outcome.index = entries.size();
        e.outcome.attempts = 1;
        e.outcome.result = r;
        entries.push_back(std::move(e));
    }
}

void
SweepReport::add(const std::string &section, const SweepOutcome &outcome)
{
    for (const auto &o : outcome.items) {
        Entry e;
        e.section = section;
        e.outcome = o;
        entries.push_back(std::move(e));
    }
}

void
SweepReport::addReplayed(const std::string &section, std::string raw_line)
{
    Entry e;
    e.section = section;
    e.replayed = true;
    e.raw = std::move(raw_line);
    entries.push_back(std::move(e));
}

std::size_t
SweepReport::failures() const
{
    std::size_t n = 0;
    for (const auto &e : entries)
        n += (!e.replayed && !e.outcome.ok()) ? 1 : 0;
    return n;
}

namespace {

void
writeOccupancySeries(JsonWriter &w, const stats::OccupancyTracker &occ,
                     std::uint32_t max_n)
{
    w.beginArray();
    for (std::uint32_t n = 1; n <= max_n; ++n)
        w.value(occ.fracAtLeast(n));
    w.endArray();
}

void
writeResultBody(JsonWriter &w, const SweepResult &r)
{
    w.kv("config", r.config);
    w.kv("workload", workloadName(r.cfg.workload));
    w.kv("nodes", r.cfg.system.num_nodes);
    w.kv("cycles", static_cast<std::uint64_t>(r.run.cycles));
    w.kv("instructions", r.run.instructions);
    w.kv("ipc", r.run.ipc);
    w.kv("wall_seconds", r.wall_seconds);
    w.kv("sim_instructions_per_host_second", r.sim_ips);
    w.kv("context_switches", r.context_switches);

    w.key("breakdown").beginObject();
    for (std::size_t i = 0; i < kNumStallCats; ++i) {
        const auto cat = static_cast<StallCat>(i);
        w.kv(stallCatName(cat), r.run.breakdown[cat]);
    }
    w.endObject();

    w.key("miss_rates").beginObject();
    w.kv("l1i_per_fetch", r.ch.l1i_miss_per_fetch);
    w.kv("l1i_mpki", r.ch.l1i_mpki);
    w.kv("l1d", r.ch.l1d_miss_rate);
    w.kv("l2", r.ch.l2_miss_rate);
    w.kv("branch_mispredict", r.ch.branch_mispredict_rate);
    w.kv("itlb", r.ch.itlb_miss_rate);
    w.kv("dtlb", r.ch.dtlb_miss_rate);
    w.endObject();

    w.key("coherence").beginObject();
    w.kv("l2_misses_total", r.ch.total_l2_misses);
    w.kv("dirty_misses", r.ch.dirty_misses);
    w.kv("invalidations", r.fabric.invalidations_sent);
    w.kv("writebacks", r.fabric.writebacks);
    w.kv("migratory_handoffs", r.fabric.migratory_handoffs);
    w.kv("migratory_write_fraction", r.migratory.write_fraction);
    w.kv("migratory_dirty_read_fraction",
         r.migratory.dirty_read_fraction);
    w.endObject();

    w.key("memory_system").beginObject();
    w.kv("l2_delayed_hits", r.node0.l2_delayed_hits);
    w.kv("prefetches_dropped", r.node0.prefetches_dropped);
    w.endObject();

    w.key("mshr_occupancy").beginObject();
    w.key("l1d_all");
    writeOccupancySeries(w, r.l1d_occ, 8);
    w.key("l1d_read");
    writeOccupancySeries(w, r.l1d_read_occ, 8);
    w.key("l2_all");
    writeOccupancySeries(w, r.l2_occ, 8);
    w.key("l2_read");
    writeOccupancySeries(w, r.l2_read_occ, 8);
    w.endObject();

    // Epoch state-hash series: [cycle, hash] pairs.  Hashes are 64-bit
    // and JSON numbers are not, so they render as hex strings.  Always
    // present (empty when state hashing is disabled), so the report
    // schema is stable and compare_reports.py sees the field on both
    // sides.
    w.key("epoch_hashes").beginArray();
    for (const sim::EpochHash &eh : r.run.epoch_hashes) {
        std::ostringstream hex;
        hex << "0x" << std::hex << eh.hash;
        w.beginArray();
        w.value(static_cast<std::uint64_t>(eh.epoch));
        w.value(hex.str());
        w.endArray();
    }
    w.endArray();
}

} // namespace

std::string
renderSweepEntryJson(const std::string &section,
                     const SweepItemOutcome &outcome)
{
    std::ostringstream os;
    JsonWriter w(os, /*indent=*/0);
    w.beginObject();
    w.kv("section", section);
    w.kv("label", outcome.ok() ? outcome.result.label
                               : outcome.failure.label);
    w.kv("index", static_cast<std::uint64_t>(outcome.index));
    w.kv("status", outcome.ok() ? "ok" : "failed");
    w.kv("attempts", static_cast<std::uint64_t>(outcome.attempts));
    if (outcome.ok()) {
        writeResultBody(w, outcome.result);
    } else {
        w.key("error").beginObject();
        w.kv("kind", failureKindName(outcome.failure.kind));
        w.kv("what", outcome.failure.what);
        w.kv("crash_dump_excerpt", outcome.failure.crash_dump_excerpt);
        w.kv("checkpoint", outcome.failure.checkpoint_path);
        w.endObject();
    }
    w.endObject();
    return os.str();
}

void
writeSweepJson(std::ostream &os, const SweepReport &report)
{
    JsonWriter w(os);
    w.beginObject();
    w.kv("schema", "dbsim-bench-v2");
    w.kv("bench", report.bench);
    w.kv("jobs", static_cast<std::uint64_t>(report.jobs));
    w.kv("failure_policy", report.failure_policy);
    w.kv("item_timeout_sec", report.item_timeout_sec);
    w.kv("items", static_cast<std::uint64_t>(report.entries.size()));
    w.kv("failures", static_cast<std::uint64_t>(report.failures()));
    w.key("results").beginArray();
    for (const auto &e : report.entries) {
        w.rawValue(e.replayed
                       ? e.raw
                       : renderSweepEntryJson(e.section, e.outcome));
    }
    w.endArray();
    w.endObject();
    os << '\n';
}

bool
writeSweepJsonFile(const std::string &path, const SweepReport &report)
{
    std::ofstream os(path);
    if (!os) {
        DBSIM_WARN("cannot open ", path, " for writing; no JSON report");
        return false;
    }
    writeSweepJson(os, report);
    os.flush();
    if (!os) {
        DBSIM_WARN("short write to ", path, "; JSON report may be invalid");
        return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// Journal + resume
// ---------------------------------------------------------------------

bool
SweepJournal::open(const std::string &path, bool append)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (os_.is_open())
        os_.close();
    // A killed writer can leave a torn final line with no newline;
    // appending straight after it would corrupt the first new entry, so
    // terminate the torn line first.
    bool needs_newline = false;
    if (append) {
        std::ifstream existing(path, std::ios::binary | std::ios::ate);
        if (existing && existing.tellg() > 0) {
            existing.seekg(-1, std::ios::end);
            needs_newline = existing.get() != '\n';
        }
    }
    os_.open(path, append ? std::ios::app : std::ios::trunc);
    if (!os_) {
        DBSIM_WARN("cannot open sweep journal ", path,
                   " for writing; the sweep will not be resumable");
        path_.clear();
        return false;
    }
    if (needs_newline)
        os_ << '\n';
    path_ = path;
    return true;
}

void
SweepJournal::append(const std::string &section,
                     const SweepItemOutcome &outcome)
{
    appendRaw(renderSweepEntryJson(section, outcome));
}

void
SweepJournal::appendRaw(const std::string &raw_line)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!os_.is_open())
        return;
    os_ << raw_line << '\n';
    // One flush per finished item: a killed process keeps every line
    // already written, which is the whole point of the journal.
    os_.flush();
    if (!os_) {
        DBSIM_WARN("short write to sweep journal ", path_,
                   "; resume data may be incomplete");
    }
}

void
SweepJournal::close()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (os_.is_open())
        os_.close();
}

std::vector<SweepJournalEntry>
SweepJournal::load(const std::string &path)
{
    std::vector<SweepJournalEntry> entries;
    std::ifstream is(path);
    if (!is) {
        DBSIM_WARN("cannot read sweep journal ", path,
                   "; nothing to resume from");
        return entries;
    }
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty())
            continue;
        // Only a line that parses as one whole JSON object is replayed:
        // it is spliced into the report verbatim.
        JsonScalars doc;
        std::string why = "no string section, label or status";
        const bool parsed = parseJson(line, &doc, &why);
        const std::string *section = doc.stringAt("section");
        const std::string *label = doc.stringAt("label");
        const std::string *status = doc.stringAt("status");
        if (!parsed || !section || !label || !status) {
            // Most likely a torn final line from a mid-write kill; the
            // item it described simply re-runs.
            DBSIM_WARN("sweep journal ", path, " line ", lineno,
                       " is incomplete or malformed (", why,
                       "); skipping it");
            continue;
        }
        entries.push_back({*section, *label, *status, line});
    }
    return entries;
}

ResumePlan
planResume(const std::string &section,
           const std::vector<SweepItem> &items,
           const std::vector<SweepJournalEntry> &entries)
{
    ResumePlan plan;
    plan.replayed.resize(items.size());
    std::vector<bool> consumed(entries.size(), false);
    for (std::size_t i = 0; i < items.size(); ++i) {
        const std::string label =
            items[i].label.empty() ? describe(items[i].cfg)
                                   : items[i].label;
        bool found = false;
        for (std::size_t j = 0; j < entries.size(); ++j) {
            if (consumed[j] || !entries[j].ok() ||
                entries[j].section != section ||
                entries[j].label != label) {
                continue;
            }
            consumed[j] = true;
            plan.replayed[i] = entries[j].raw;
            found = true;
            break;
        }
        if (!found)
            plan.to_run.push_back(i);
    }
    return plan;
}

} // namespace dbsim::core
