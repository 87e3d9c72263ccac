/**
 * @file
 * Self-tests for the concurrency-contract rules (DESIGN.md §5j): the
 * sync fixture corpus (seeded violations + clean twins covering the
 * lockset edge cases), the mark-pairing regression fixture, and the
 * mutation self-test -- deleting a real lock_guard at three sites of
 * src/ must each trigger sync-guarded-access.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze.hpp"
#include "lexer.hpp"

namespace {

namespace fs = std::filesystem;

using dbsim::analyze::Finding;
using dbsim::analyze::Options;
using dbsim::analyze::Result;

const std::vector<std::string> kSyncRules = {
    "sync-guarded-access", "sync-requires-violation", "sync-lock-order",
    "sync-atomic-rmw",
};

std::string
fixture(const std::string &name)
{
    return std::string(DBSIM_ANALYZE_FIXTURES) + "/" + name;
}

Result
analyzeDir(const std::string &root, std::vector<std::string> rules = {})
{
    Options opt;
    opt.corpus_root = root;
    opt.rules = std::move(rules);
    Result r;
    std::string err;
    EXPECT_TRUE(dbsim::analyze::runAnalysis(opt, r, err)) << err;
    return r;
}

Result
analyze(const std::string &dir, std::vector<std::string> rules = {})
{
    return analyzeDir(fixture(dir), std::move(rules));
}

bool
isSeededFile(const std::string &rel)
{
    const std::size_t slash = rel.rfind('/');
    const std::string base =
        slash == std::string::npos ? rel : rel.substr(slash + 1);
    return base.rfind("bad", 0) == 0;
}

struct SeededCase
{
    const char *dir;
    const char *rule;
    const char *file;
    std::size_t count; ///< findings expected from this rule alone
};

const SeededCase kSeeded[] = {
    // unlocked write + access after manual unlock
    {"sync_guarded", "sync-guarded-access", "bad.cpp", 2},
    // phase-confined field accessed outside the phase
    {"sync_guarded", "sync-guarded-access", "bad_phase.cpp", 1},
    // requires(mu_) callee, empty caller lockset
    {"sync_requires", "sync-requires-violation", "bad.cpp", 1},
    // requires on a virtual seam: one finding despite two overload
    // targets (over-approximation must not multiply reports)
    {"sync_requires", "sync-requires-violation", "bad_virtual.cpp", 1},
    // opposite-order pair (cycle) + recursive self-acquisition
    {"sync_lock_order", "sync-lock-order", "bad.cpp", 2},
    // atomic-marked plain int RMW + atomic `x = x + 1` load/store
    {"sync_atomic", "sync-atomic-rmw", "bad.cpp", 2},
};

TEST(Sync, EveryRuleCatchesItsSeededViolation)
{
    for (const SeededCase &c : kSeeded) {
        SCOPED_TRACE(std::string(c.dir) + "/" + c.file);
        const Result r = analyze(c.dir, {c.rule});
        std::size_t in_file = 0;
        for (const Finding &f : r.findings) {
            EXPECT_EQ(f.rule, c.rule);
            EXPECT_TRUE(isSeededFile(f.file)) << f.file << ": " << f.message;
            if (f.file == c.file) {
                ++in_file;
                EXPECT_GT(f.line, 0);
                EXPECT_FALSE(f.message.empty());
            }
        }
        EXPECT_EQ(in_file, c.count);
    }
}

TEST(Sync, CleanTwinsPassUnderAllRules)
{
    // The clean twins cover the lockset edge cases -- early return
    // under a lock_guard, nested scopes, unique_lock + defer_lock,
    // interprocedural entry locksets, phase(serial)/phase(X) marks,
    // scoped_lock ordering, atomic fetch_add -- and none of them may
    // produce a finding under the full rule set.
    for (const char *dir : {"sync_guarded", "sync_requires",
                            "sync_lock_order", "sync_atomic"}) {
        SCOPED_TRACE(dir);
        const Result r = analyze(dir);
        for (const Finding &f : r.findings)
            EXPECT_TRUE(isSeededFile(f.file))
                << f.file << ":" << f.line << " [" << f.rule << "] "
                << f.message;
    }
}

TEST(Sync, MultilineMarkPairingCoversTheOpenDeclaration)
{
    // bad.cpp: a guarded_by() mark inside a still-open multi-line field
    // declaration attaches backward, so the unlocked write is caught;
    // clean.cpp: a mark after the terminating ';' binds forward only and
    // leaves the preceding field without a contract.
    const Result r = analyze("marks_multiline");
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].rule, "sync-guarded-access");
    EXPECT_EQ(r.findings[0].file, "bad.cpp");

    // At the lexer level the mark (between `entries_ =` and `0;`) lands
    // on both the declaration's line and the next code line.
    std::ifstream in(fixture("marks_multiline") + "/bad.cpp");
    std::stringstream text;
    text << in.rdbuf();
    const dbsim::analyze::SourceFile sf =
        dbsim::analyze::lexSource("bad.cpp", text.str());
    int decl_line = 0, init_line = 0;
    for (std::size_t i = 0; i + 2 < sf.tokens.size(); ++i)
        if (sf.tokens[i].text == "entries_" && sf.tokens[i + 1].text == "=") {
            decl_line = sf.tokens[i].line;
            init_line = sf.tokens[i + 2].line;
        }
    ASSERT_GT(init_line, decl_line + 1) << "the mark sits between them";
    EXPECT_EQ(sf.guarded_marks.count(decl_line), 1u) << "backward bind";
    EXPECT_EQ(sf.guarded_marks.count(init_line), 1u) << "forward bind";
}

// ---------------------------------------------------------------------
// Mutation self-test: the analyzer must catch a deleted lock at the
// three real synchronization sites of src/ (ISSUE: SweepCollector's
// result merge, the crash-dump registry append, the log sink write).
// ---------------------------------------------------------------------

struct MutationSite
{
    const char *rel;    ///< file under src/
    const char *marker; ///< line locating the function
    const char *label;
};

const MutationSite kSites[] = {
    {"core/sweep.cpp", "deliver(std::size_t i", "SweepCollector::deliver"},
    {"common/log.cpp", "add(std::string name", "CrashDumpRegistry::add"},
    {"common/log.cpp", "write(const std::string &text", "LogSink::write"},
};

/// Copy of src/ with the first lock_guard line after `marker` in `rel`
/// deleted.  Returns the scratch root ("" on setup failure).
std::string
mutatedSrcTree(const MutationSite &site)
{
    const fs::path src = fs::path(DBSIM_REPO_ROOT) / "src";
    const fs::path dst =
        fs::path(testing::TempDir()) / "dbsim_sync_mutation";
    std::error_code ec;
    fs::remove_all(dst, ec);
    fs::copy(src, dst, fs::copy_options::recursive, ec);
    if (ec)
        return {};

    const fs::path target = dst / site.rel;
    std::ifstream in(target);
    std::vector<std::string> lines;
    std::string l;
    while (std::getline(in, l))
        lines.push_back(l);
    in.close();

    bool seen_marker = false, deleted = false;
    std::ofstream out(target, std::ios::trunc);
    for (const std::string &line : lines) {
        if (line.find(site.marker) != std::string::npos)
            seen_marker = true;
        if (seen_marker && !deleted &&
            line.find("lock_guard") != std::string::npos) {
            deleted = true;
            continue; // the mutation: drop the acquisition
        }
        out << line << "\n";
    }
    return deleted ? dst.string() : std::string();
}

TEST(Sync, DeletedLockGuardIsCaughtAtAllThreeSites)
{
    for (const MutationSite &site : kSites) {
        SCOPED_TRACE(site.label);
        const std::string root = mutatedSrcTree(site);
        ASSERT_FALSE(root.empty())
            << "mutation setup failed (marker or lock_guard not found)";

        const Result r = analyzeDir(root, {"sync-guarded-access"});
        std::size_t hits = 0;
        for (const Finding &f : r.findings)
            if (f.file == site.rel)
                ++hits;
        EXPECT_GE(hits, 1u)
            << "deleting the lock in " << site.label
            << " produced no sync-guarded-access finding";

        std::error_code ec;
        fs::remove_all(fs::path(root), ec);
    }
}

/// The unmutated tree is the control: src/ holds the contract.
TEST(Sync, RealSrcTreeIsCleanUnderTheSyncRules)
{
    const Result r =
        analyzeDir(std::string(DBSIM_REPO_ROOT) + "/src", kSyncRules);
    for (const Finding &f : r.findings)
        ADD_FAILURE() << f.file << ":" << f.line << " [" << f.rule << "] "
                      << f.message;
}

} // namespace
