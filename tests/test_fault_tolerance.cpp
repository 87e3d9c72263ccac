/**
 * @file
 * Sweep fault-tolerance layer (DESIGN.md §5e): per-item isolation under
 * collect, failure classification, host item deadlines, the crash-dump
 * registry under concurrent failures, the incremental journal + resume
 * planner, and the bench harness glue (flag parsing, exit codes,
 * end-to-end resume).
 *
 * Every fault is scheduled through a core::FaultPlan at an exact item
 * index, never drawn at random, so each test drives the same code path
 * with the same outcome on every run.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util.hpp"
#include "common/errors.hpp"
#include "core/config.hpp"
#include "core/fault_plan.hpp"
#include "core/sweep.hpp"

namespace dbsim::core {
namespace {

SimConfig
quick(WorkloadKind kind, std::uint32_t nodes = 1)
{
    SimConfig cfg = makeScaledConfig(kind, nodes);
    cfg.total_instructions = 30000;
    cfg.warmup_instructions = 6000;
    return cfg;
}

std::vector<SweepItem>
okItems(std::size_t n)
{
    std::vector<SweepItem> items;
    for (std::size_t i = 0; i < n; ++i) {
        char label[16];
        std::snprintf(label, sizeof(label), "i%zu", i);
        items.push_back({label, quick(WorkloadKind::Oltp)});
    }
    return items;
}

// ---------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------

/** A fault matches its exact index only, and on every run of it: a
 *  re-run of the same item (what --resume does) meets it again. */
TEST(FaultPlan, MatchesExactIndexAndAttempt)
{
    FaultPlan plan;
    plan.fail(3, FaultSpec::Kind::Throw, "boom");

    EXPECT_EQ(plan.match(2), nullptr);
    EXPECT_EQ(plan.match(4), nullptr);
    ASSERT_NE(plan.match(3), nullptr);
    EXPECT_EQ(plan.match(3)->kind, FaultSpec::Kind::Throw);
    EXPECT_EQ(plan.match(3)->message, "boom");
}

// ---------------------------------------------------------------------
// Isolation and classification
// ---------------------------------------------------------------------

TEST(SweepFaultTolerance, CollectIsolatesPanicAsStructuredFailure)
{
    auto items = okItems(4);
    items[2].cfg.total_instructions = 0; // rejected by validation
    FaultPlan plan;
    plan.fail(1, FaultSpec::Kind::Panic, "isolated panic");

    SweepRunner runner(2);
    runner.setCollect(true);
    runner.setFaultPlan(&plan);
    const SweepOutcome out = runner.runChecked(items);

    ASSERT_EQ(out.items.size(), 4u);
    EXPECT_EQ(out.failures(), 2u);
    EXPECT_TRUE(out.items[0].ok());
    EXPECT_TRUE(out.items[3].ok());
    ASSERT_FALSE(out.items[2].ok());
    EXPECT_EQ(out.items[2].failure.kind, FailureKind::Config);

    const SweepFailure &f = out.items[1].failure;
    EXPECT_EQ(f.index, 1u);
    EXPECT_EQ(f.label, "i1");
    EXPECT_EQ(f.kind, FailureKind::Invariant);
    EXPECT_NE(f.what.find("isolated panic"), std::string::npos);
    EXPECT_NE(out.items[1].error, nullptr);

    // The report entry carries the structured failure.
    const std::string entry = renderSweepEntryJson("collect", out.items[1]);
    EXPECT_NE(entry.find("\"status\":\"failed\""), std::string::npos)
        << entry;
    EXPECT_NE(entry.find("\"kind\":\"invariant\""), std::string::npos)
        << entry;
}

/** The deadline must let the undelayed item finish even in a sanitizer
 *  build (a quick item takes well under a second under ASan or TSan), and
 *  the delay must outlast the deadline. */
TEST(SweepFaultTolerance, DelayedItemBecomesTimeoutWithMachineDump)
{
    auto items = okItems(2);
    FaultPlan plan;
    FaultSpec delay;
    delay.index = 1;
    delay.kind = FaultSpec::Kind::Delay;
    delay.delay_seconds = 4.5;
    plan.add(delay);

    SweepRunner runner(2);
    runner.setCollect(true);
    runner.setItemTimeout(4.0);
    runner.setFaultPlan(&plan);
    const SweepOutcome out = runner.runChecked(items);

    EXPECT_TRUE(out.items[0].ok());
    ASSERT_FALSE(out.items[1].ok());
    EXPECT_EQ(out.items[1].failure.kind, FailureKind::Timeout);
    EXPECT_NE(out.items[1].failure.what.find("deadline"),
              std::string::npos);
    EXPECT_FALSE(out.items[1].failure.crash_dump_excerpt.empty())
        << "timeout failures must carry the machine-state dump";
}

/** Two items panicking concurrently on different pool threads must
 *  produce two distinct, uncorrupted failure records -- the crash-dump
 *  registry and panic path are shared process state. */
TEST(SweepFaultTolerance, ConcurrentPanicsYieldDistinctRecords)
{
    auto items = okItems(4);
    FaultPlan plan;
    plan.fail(0, FaultSpec::Kind::Panic, "panic-alpha");
    plan.fail(3, FaultSpec::Kind::Panic, "panic-omega");

    SweepRunner runner(4);
    runner.setCollect(true);
    runner.setFaultPlan(&plan);
    const SweepOutcome out = runner.runChecked(items);

    EXPECT_EQ(out.failures(), 2u);
    ASSERT_FALSE(out.items[0].ok());
    ASSERT_FALSE(out.items[3].ok());
    EXPECT_EQ(out.items[0].failure.kind, FailureKind::Invariant);
    EXPECT_EQ(out.items[3].failure.kind, FailureKind::Invariant);
    EXPECT_NE(out.items[0].failure.what.find("panic-alpha"),
              std::string::npos);
    EXPECT_EQ(out.items[0].failure.what.find("panic-omega"),
              std::string::npos)
        << "record 0 contaminated by the other thread's panic";
    EXPECT_NE(out.items[3].failure.what.find("panic-omega"),
              std::string::npos);
    EXPECT_EQ(out.items[3].failure.what.find("panic-alpha"),
              std::string::npos)
        << "record 3 contaminated by the other thread's panic";
    EXPECT_EQ(out.items[0].failure.index, 0u);
    EXPECT_EQ(out.items[3].failure.index, 3u);
}

// ---------------------------------------------------------------------
// Journal + resume planner
// ---------------------------------------------------------------------

TEST(SweepJournalTest, RoundTripAndTornLineTolerance)
{
    const std::string path = "TEST_FT_journal.jsonl";
    auto items = okItems(3);
    FaultPlan plan;
    plan.fail(1, FaultSpec::Kind::Throw, "journaled failure");

    SweepRunner runner(2);
    runner.setCollect(true);
    runner.setFaultPlan(&plan);
    SweepJournal journal;
    ASSERT_TRUE(journal.open(path, /*append=*/false));
    runner.setCompletionCallback([&](const SweepItemOutcome &o) {
        journal.append("sec", o);
    });
    const SweepOutcome out = runner.runChecked(items);
    journal.close();

    auto entries = SweepJournal::load(path);
    ASSERT_EQ(entries.size(), 3u);
    std::size_t ok = 0, failed = 0;
    for (const auto &e : entries) {
        EXPECT_EQ(e.section, "sec");
        (e.ok() ? ok : failed) += 1;
    }
    EXPECT_EQ(ok, 2u);
    EXPECT_EQ(failed, 1u);

    // A mid-write kill leaves a torn final line, and a corrupted line
    // can keep its brackets balanced: the loader skips both.
    {
        std::ofstream os(path, std::ios::app);
        os << "{\"section\":\"sec\",\"label\":\"i8\",\"status\":\"ok\","
              "\"cycles\":12x34}\n";
        os << "{\"section\":\"sec\",\"label\":\"i9\",\"status\":\"o";
    }
    EXPECT_EQ(SweepJournal::load(path).size(), 3u);

    // Journal lines are byte-identical to report entries (the splice
    // property the resume path depends on).
    for (const auto &e : entries) {
        bool matched = false;
        for (const auto &o : out.items) {
            if (renderSweepEntryJson("sec", o) == e.raw)
                matched = true;
        }
        EXPECT_TRUE(matched) << "journal line is not a report entry: "
                             << e.raw;
    }
    std::remove(path.c_str());
}

/**
 * Appends from parallel workers must land as whole lines.  A sweep
 * appends under its collector's lock, so this drives the journal's own
 * lock directly from the worker pool.  The stream's buffer lives in
 * uninstrumented libstdc++, so ThreadSanitizer does not see the lock
 * go; the line count is what makes torn lines show up without it.
 */
TEST(SweepJournalTest, ParallelAppendsLandAsWholeLines)
{
    const std::string path = "TEST_FT_parallel.journal.jsonl";
    constexpr std::size_t kLines = 40000;
    const std::string pad(20, 'x');
    auto line = [&](std::size_t i) {
        return "{\"section\":\"par\",\"label\":\"i" + std::to_string(i) +
               "\",\"status\":\"ok\",\"pad\":\"" + pad + "\"}";
    };

    SweepJournal journal;
    ASSERT_TRUE(journal.open(path, /*append=*/false));
    forEachIndex(kLines, 8,
                 [&](std::size_t i) { journal.appendRaw(line(i)); });
    journal.close();

    std::map<std::string, std::string> expected;
    for (std::size_t i = 0; i < kLines; ++i)
        expected["i" + std::to_string(i)] = line(i);
    for (const auto &e : SweepJournal::load(path)) {
        const auto it = expected.find(e.label);
        ASSERT_NE(it, expected.end()) << "unexpected or repeated " << e.raw;
        EXPECT_EQ(e.raw, it->second);
        expected.erase(it);
    }
    EXPECT_TRUE(expected.empty()) << expected.size() << " lines lost";
    std::remove(path.c_str());
}

TEST(SweepJournalTest, MissingFileLoadsEmpty)
{
    EXPECT_TRUE(SweepJournal::load("TEST_FT_does_not_exist.jsonl").empty());
}

TEST(ResumePlanner, ReplaysOkReRunsFailedAndMissing)
{
    auto items = okItems(4);
    std::vector<SweepJournalEntry> entries;
    entries.push_back({"sec", "i0", "ok", "{\"line\":0}"});
    entries.push_back({"sec", "i1", "failed", "{\"line\":1}"});
    entries.push_back({"other", "i2", "ok", "{\"line\":2}"});

    const ResumePlan plan = planResume("sec", items, entries);
    ASSERT_EQ(plan.replayed.size(), 4u);
    EXPECT_EQ(plan.replayed[0], "{\"line\":0}");
    EXPECT_TRUE(plan.replayed[1].empty()) << "failed entries re-run";
    EXPECT_TRUE(plan.replayed[2].empty()) << "wrong section ignored";
    EXPECT_TRUE(plan.replayed[3].empty()) << "missing entries re-run";
    EXPECT_EQ(plan.to_run, (std::vector<std::size_t>{1, 2, 3}));
    EXPECT_EQ(plan.replayedCount(), 1u);
}

TEST(ResumePlanner, DuplicateLabelsConsumeJournalLinesInOrder)
{
    std::vector<SweepItem> items(3, {"same", quick(WorkloadKind::Oltp)});
    std::vector<SweepJournalEntry> entries;
    entries.push_back({"sec", "same", "ok", "{\"first\":1}"});
    entries.push_back({"sec", "same", "ok", "{\"second\":2}"});

    const ResumePlan plan = planResume("sec", items, entries);
    EXPECT_EQ(plan.replayed[0], "{\"first\":1}");
    EXPECT_EQ(plan.replayed[1], "{\"second\":2}");
    EXPECT_TRUE(plan.replayed[2].empty());
    EXPECT_EQ(plan.to_run, (std::vector<std::size_t>{2}));
}

/** A re-run subset keeps each item's original identity: item i re-run
 *  in a subset reports index i and uses item i's checkpoint file, which
 *  is how a resumed item finds the checkpoint its first run left. */
TEST(ResumePlanner, ReRunSubsetPreservesOriginalSeeds)
{
    const std::string dir = testing::TempDir() + "dbsim_ft_subset";
    auto items = okItems(4);
    items[3].cfg.oltp.seed += 1; // distinct items, distinct results
    SweepRunner runner(2);
    runner.setCheckpointDir(dir);
    runner.setCheckpointInterval(5000);
    const SweepOutcome baseline = runner.runChecked(items);
    ASSERT_TRUE(baseline.allOk());
    for (std::size_t i = 0; i < items.size(); ++i)
        std::remove(runner.checkpointPathFor(i).c_str());

    std::vector<SweepItem> subset = {items[1], items[3]};
    const SweepOutcome out = runner.runChecked(subset, {1, 3});
    ASSERT_TRUE(out.allOk());
    EXPECT_EQ(out.items[0].index, 1u);
    EXPECT_EQ(out.items[1].index, 3u);
    EXPECT_EQ(out.items[0].result.run.cycles,
              baseline.items[1].result.run.cycles);
    EXPECT_EQ(out.items[1].result.run.cycles,
              baseline.items[3].result.run.cycles);
    for (std::size_t i = 0; i < items.size(); ++i) {
        std::ifstream f(runner.checkpointPathFor(i), std::ios::binary);
        EXPECT_EQ(f.good(), i == 1 || i == 3) << "checkpoint of item " << i;
        f.close();
        std::remove(runner.checkpointPathFor(i).c_str());
    }
}

// ---------------------------------------------------------------------
// Bench harness: flag parsing, exit codes, end-to-end resume
// ---------------------------------------------------------------------

bench::BenchOptions
parse(std::vector<std::string> args)
{
    std::vector<char *> argv;
    static std::string prog = "bench";
    argv.push_back(prog.data());
    for (auto &a : args)
        argv.push_back(a.data());
    return bench::parseBenchArgs(static_cast<int>(argv.size()),
                                 argv.data(), {"--sharing", "--dss"});
}

TEST(BenchArgs, ParsesSharedFlagsInBothForms)
{
    const auto opts =
        parse({"--jobs", "3", "--json=out.json", "--journal", "j.jsonl",
               "--resume=r.jsonl", "--item-timeout-sec=45",
               "--on-failure", "collect", "--sharing"});
    EXPECT_EQ(opts.jobs, 3u);
    EXPECT_EQ(opts.json_path, "out.json");
    EXPECT_EQ(opts.journal_path, "j.jsonl");
    EXPECT_EQ(opts.resume_path, "r.jsonl");
    EXPECT_EQ(opts.item_timeout_sec, 45u);
    EXPECT_TRUE(opts.collect_failures);
    ASSERT_EQ(opts.flags.size(), 1u);
    EXPECT_TRUE(opts.has("--sharing"));
    EXPECT_FALSE(opts.has("--dss")); // declared but not given
}

TEST(BenchArgs, RejectsBadValues)
{
    EXPECT_THROW(parse({"--jobs", "0"}), ConfigError);
    EXPECT_THROW(parse({"--jobs", "banana"}), ConfigError);
    EXPECT_THROW(parse({"--on-failure", "maybe"}), ConfigError);
    EXPECT_THROW(parse({"--json"}), ConfigError); // missing value
    // Undeclared flags, including the retired --max-retries and
    // --restore, are rejected rather than silently ignored.
    for (const std::vector<std::string> &args :
         {std::vector<std::string>{"--bogus"}, {"--max-retries", "2"},
          {"--restore"}, {"--sharing=1"}}) {
        try {
            parse(args);
            ADD_FAILURE() << args[0] << " was accepted";
        } catch (const ConfigError &e) {
            EXPECT_EQ(e.field(), "cli." + args[0].substr(
                                              2, args[0].find('=') - 2));
        }
    }
}

TEST(BenchHarness, UnwritableReportYieldsExitOne)
{
    bench::BenchOptions opts;
    opts.json_path = "/nonexistent-dir-zz/report.json";
    opts.journal_path = "none";
    bench::BenchContext ctx("ft_exit1", opts);
    EXPECT_EQ(ctx.report().failure_policy, "abort");
    ctx.sweep("s", okItems(1));
    EXPECT_EQ(ctx.finish(), 1);
}

TEST(BenchHarness, CollectedFailureYieldsPartialFailureExit)
{
    bench::BenchOptions opts;
    opts.journal_path = "none";
    opts.collect_failures = true;
    bench::BenchContext ctx("ft_exit4", opts);
    EXPECT_EQ(ctx.report().failure_policy, "collect");
    auto items = okItems(2);
    items[0].cfg.total_instructions = 0; // config rejection, collected
    const auto fresh = ctx.sweep("s", items);
    EXPECT_EQ(fresh.size(), 1u);
    EXPECT_EQ(ctx.finish(), kSweepPartialFailureExit);
}

TEST(BenchHarness, InterruptedThenResumedReportIsFieldExact)
{
    const std::string clean_json = "TEST_FT_clean.json";
    const std::string clean_journal = "TEST_FT_clean.journal.jsonl";
    const std::string torn_journal = "TEST_FT_torn.journal.jsonl";
    const std::string resumed_json = "TEST_FT_resumed.json";
    auto items = okItems(3);

    { // Clean reference run.
        bench::BenchOptions opts;
        opts.json_path = clean_json;
        opts.journal_path = clean_journal;
        bench::BenchContext ctx("ft_resume", opts);
        ctx.sweep("s", items);
        ASSERT_EQ(ctx.finish(), 0);
    }

    { // "Interrupt": keep one journal line plus a torn fragment, and
      // corrupt the line of an item not yet run without unbalancing its
      // brackets -- it must re-run, not be spliced into the report.
        std::ifstream in(clean_journal);
        std::ofstream out(torn_journal, std::ios::trunc);
        std::string line, corrupt;
        ASSERT_TRUE(static_cast<bool>(std::getline(in, line)));
        ASSERT_TRUE(static_cast<bool>(std::getline(in, corrupt)));
        ASSERT_TRUE(static_cast<bool>(std::getline(in, corrupt)));
        const std::size_t at = corrupt.find("\"cycles\":");
        ASSERT_NE(at, std::string::npos);
        corrupt.insert(at + 9, "12x");
        out << line << "\n"
            << corrupt << "\n{\"section\":\"s\",\"label\":\"i1\",\"sta";
    }

    { // Resume from the torn journal.
        bench::BenchOptions opts;
        opts.json_path = resumed_json;
        opts.resume_path = torn_journal;
        opts.journal_path = torn_journal; // append mode
        bench::BenchContext ctx("ft_resume", opts);
        const auto fresh = ctx.sweep("s", items);
        EXPECT_EQ(fresh.size(), 2u) << "one item replayed, two re-run";
        ASSERT_EQ(ctx.finish(), 0);
    }

    // The two reports' entries must be byte-identical.
    auto slurp = [](const std::string &path) {
        std::ifstream is(path);
        std::vector<std::string> entries;
        std::string line;
        while (std::getline(is, line)) {
            if (line.find("\"label\":") != std::string::npos)
                entries.push_back(line);
        }
        return entries;
    };
    const auto a = slurp(clean_json);
    const auto b = slurp(resumed_json);
    ASSERT_EQ(a.size(), 3u);
    EXPECT_EQ(a, b);

    // The resumed journal (append mode) now covers the whole sweep, so
    // a second resume replays everything.
    const auto entries = SweepJournal::load(torn_journal);
    EXPECT_EQ(entries.size(), 3u);

    for (const auto &p :
         {clean_json, clean_journal, torn_journal, resumed_json})
        std::remove(p.c_str());
}

} // namespace
} // namespace dbsim::core
