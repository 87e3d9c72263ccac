/**
 * @file
 * Self-tests for dbsim-analyze against the seeded fixture corpus in
 * tests/analyze_fixtures/: every rule must catch its seeded violation,
 * every clean twin must pass, suppressions and the baseline must
 * round-trip, and the SARIF output must have the 2.1.0 shape.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze.hpp"
#include "callgraph.hpp"
#include "decls.hpp"

namespace {

using dbsim::analyze::buildCallGraph;
using dbsim::analyze::buildCorpus;
using dbsim::analyze::buildDecls;
using dbsim::analyze::CallGraph;
using dbsim::analyze::Corpus;
using dbsim::analyze::DeclIndex;
using dbsim::analyze::Finding;
using dbsim::analyze::Options;
using dbsim::analyze::Result;
using dbsim::analyze::RuleInfo;

std::string
fixture(const std::string &name)
{
    return std::string(DBSIM_ANALYZE_FIXTURES) + "/" + name;
}

Result
analyze(const std::string &dir, std::vector<std::string> rules = {},
        const std::string &baseline = "", bool write_baseline = false)
{
    Options opt;
    opt.corpus_root = fixture(dir);
    opt.rules = std::move(rules);
    opt.baseline_path = baseline;
    opt.write_baseline = write_baseline;
    Result r;
    std::string err;
    EXPECT_TRUE(dbsim::analyze::runAnalysis(opt, r, err)) << err;
    return r;
}

/// The fixture convention: every seeded violation lives in a file whose
/// name starts with "bad"; everything else is a clean twin.
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
    {"determinism_unordered", "determinism-unordered-iteration",
     "bad.cpp", 1},
    {"determinism_wallclock", "determinism-wallclock", "bad.cpp", 1},
    {"determinism_rand", "determinism-rand", "bad.cpp", 1},
    {"determinism_pointer", "determinism-pointer-format", "bad.cpp", 1},
    // misses (updated, never read) + skips (never updated)
    {"accounting_counter", "accounting-counter-coverage",
     "bad_counters.hpp", 2},
    {"accounting_switch", "accounting-switch-exhaustive", "bad.cpp", 1},
    {"layering_order", "layering-order", "common/bad_reach.hpp", 1},
    {"layering_cycle", "layering-cycle", "alpha/bad_y.hpp", 1},
    {"convention_assert", "convention-assert", "bad.cpp", 1},
    {"convention_stdout", "convention-stdout", "bad.cpp", 1},
    {"convention_guard", "convention-include-guard", "bad.hpp", 1},
    {"convention_catch", "convention-catch-swallow", "bad.cpp", 1},
    // pointer bits + wall clock + unsorted unordered iteration
    {"checkpoint_purity", "checkpoint-purity", "bad.cpp", 3},
    {"hotpath_tick", "hotpath-allocation", "bad.cpp", 1},
    {"hotpath_tick", "hotpath-map-lookup", "bad.cpp", 1},
    {"hotpath_tick", "hotpath-virtual", "bad.cpp", 1},
    {"hotpath_tick", "hotpath-string", "bad.cpp", 1},
    // drains is updated only off the tick path
    {"accounting_reach", "accounting-counter-reachability", "bad.cpp", 1},
};

TEST(Analyze, EveryRuleCatchesItsSeededViolation)
{
    for (const SeededCase &c : kSeeded) {
        SCOPED_TRACE(c.dir);
        const Result r = analyze(c.dir, {c.rule});
        ASSERT_EQ(r.findings.size(), c.count);
        for (const Finding &f : r.findings) {
            EXPECT_EQ(f.rule, c.rule);
            EXPECT_EQ(f.file, c.file);
            EXPECT_GT(f.line, 0);
            EXPECT_FALSE(f.message.empty());
        }
    }
}

TEST(Analyze, CleanTwinsPassUnderAllRules)
{
    // Run the *full* rule set over each fixture: the only findings
    // allowed anywhere are in the seeded bad* files, so the clean twins
    // also stay clean under every other rule (no cross-rule noise).
    for (const SeededCase &c : kSeeded) {
        SCOPED_TRACE(c.dir);
        const Result r = analyze(c.dir);
        EXPECT_FALSE(r.findings.empty());
        for (const Finding &f : r.findings)
            EXPECT_TRUE(isSeededFile(f.file))
                << f.file << ":" << f.line << " [" << f.rule << "] "
                << f.message;
    }
}

TEST(Analyze, SingleRuleFilteringIsolatesFamilies)
{
    // accounting_counter seeds only counter-coverage findings, so any
    // other single rule over it must come back empty.
    const Result r =
        analyze("accounting_counter", {"determinism-unordered-iteration"});
    EXPECT_TRUE(r.findings.empty());
    EXPECT_GT(r.files_scanned, 0u);
}

TEST(Analyze, UnknownRuleIsAnError)
{
    Options opt;
    opt.corpus_root = fixture("determinism_rand");
    opt.rules = {"no-such-rule"};
    Result r;
    std::string err;
    EXPECT_FALSE(dbsim::analyze::runAnalysis(opt, r, err));
    EXPECT_NE(err.find("no-such-rule"), std::string::npos);
}

TEST(Analyze, InlineSuppressionsApplyAndAreCounted)
{
    const Result r = analyze("suppression");
    EXPECT_TRUE(r.findings.empty());
    EXPECT_EQ(r.suppressed, 2u) << "one allow() above the line, one "
                                   "trailing on the line";
}

TEST(Analyze, BaselineRoundTrips)
{
    const std::string path =
        testing::TempDir() + "dbsim_analyze_baseline.txt";
    std::remove(path.c_str());

    // Without a baseline the fixture reports findings...
    const Result before = analyze("determinism_unordered");
    ASSERT_FALSE(before.findings.empty());
    const std::size_t n = before.findings.size();

    // ...writing the baseline grandfathers all of them...
    const Result wrote =
        analyze("determinism_unordered", {}, path, /*write=*/true);
    EXPECT_TRUE(wrote.findings.empty());
    EXPECT_EQ(wrote.baselined, n);

    // ...and a rerun against it is clean, with the count reported.
    const Result after = analyze("determinism_unordered", {}, path);
    EXPECT_TRUE(after.findings.empty());
    EXPECT_EQ(after.baselined, n);

    // A new violation would still surface: drop one baseline line and
    // the corresponding finding must come back.
    {
        std::ifstream in(path);
        std::vector<std::string> lines;
        std::string l;
        while (std::getline(in, l))
            lines.push_back(l);
        in.close();
        std::ofstream out(path, std::ios::trunc);
        bool dropped = false;
        for (const std::string &line : lines) {
            if (!dropped && !line.empty() && line[0] != '#') {
                dropped = true;
                continue;
            }
            out << line << "\n";
        }
        ASSERT_TRUE(dropped);
    }
    const Result regressed = analyze("determinism_unordered", {}, path);
    EXPECT_EQ(regressed.findings.size(), 1u);
    std::remove(path.c_str());
}

TEST(Analyze, ResultsAreDeterministicAndSorted)
{
    const Result a = analyze("accounting_counter");
    const Result b = analyze("accounting_counter");
    ASSERT_EQ(a.findings.size(), b.findings.size());
    for (std::size_t i = 0; i < a.findings.size(); ++i) {
        EXPECT_EQ(a.findings[i].rule, b.findings[i].rule);
        EXPECT_EQ(a.findings[i].file, b.findings[i].file);
        EXPECT_EQ(a.findings[i].line, b.findings[i].line);
        EXPECT_EQ(a.findings[i].message, b.findings[i].message);
    }
    EXPECT_TRUE(std::is_sorted(
        a.findings.begin(), a.findings.end(),
        [](const Finding &x, const Finding &y) {
            return std::tie(x.file, x.line, x.rule, x.message) <=
                   std::tie(y.file, y.line, y.rule, y.message);
        }));
}

TEST(Analyze, SarifHasThe210Shape)
{
    const Result r = analyze("determinism_unordered");
    ASSERT_FALSE(r.findings.empty());
    std::ostringstream os;
    dbsim::analyze::writeSarif(os, r);
    const std::string doc = os.str();

    for (const char *needle :
         {"\"$schema\"", "sarif-2.1.0", "\"version\": \"2.1.0\"",
          "\"runs\"", "\"tool\"", "\"driver\"",
          "\"name\": \"dbsim-analyze\"", "\"rules\"", "\"results\"",
          "\"ruleId\": \"determinism-unordered-iteration\"",
          "\"level\": \"error\"", "\"message\"", "\"locations\"",
          "\"physicalLocation\"", "\"artifactLocation\"",
          "\"uri\": \"bad.cpp\"", "\"region\"", "\"startLine\""}) {
        EXPECT_NE(doc.find(needle), std::string::npos)
            << "missing " << needle;
    }
    // Every catalog rule is declared in the driver metadata.
    for (const RuleInfo &rule : dbsim::analyze::ruleCatalog())
        EXPECT_NE(doc.find("\"id\": \"" + std::string(rule.id) + "\""),
                  std::string::npos)
            << rule.id;
    // Identical runs render byte-identical documents.
    std::ostringstream os2;
    dbsim::analyze::writeSarif(os2, r);
    EXPECT_EQ(doc, os2.str());
}

TEST(Analyze, RuleCatalogIsConsistent)
{
    const auto &catalog = dbsim::analyze::ruleCatalog();
    EXPECT_EQ(catalog.size(), 22u);
    for (const RuleInfo &r : catalog) {
        EXPECT_TRUE(dbsim::analyze::knownRule(r.id));
        EXPECT_FALSE(std::string(r.description).empty());
    }
    EXPECT_FALSE(dbsim::analyze::knownRule("not-a-rule"));
}

// ---------------------------------------------------------------------
// Call-graph layer: the symbol resolution under the tick-path rules.
// ---------------------------------------------------------------------

struct GraphFixture
{
    Corpus corpus;
    DeclIndex decls;
    CallGraph graph;

    explicit GraphFixture(const std::string &dir)
    {
        std::string err;
        EXPECT_TRUE(buildCorpus(fixture(dir), {}, corpus, err)) << err;
        buildDecls(corpus, decls);
        buildCallGraph(corpus, decls, graph);
    }

    /// Index of the unique function `cls::name` (-1 if absent).
    int
    fn(const std::string &name, const std::string &cls = "") const
    {
        int found = -1;
        for (std::size_t i = 0; i < decls.functions.size(); ++i) {
            if (decls.functions[i].name != name)
                continue;
            if (!cls.empty() && decls.functions[i].cls != cls)
                continue;
            EXPECT_EQ(found, -1) << "ambiguous: " << name;
            found = static_cast<int>(i);
        }
        return found;
    }

    bool
    calls(int from, int to) const
    {
        const auto &cs = graph.callees[from];
        return std::find(cs.begin(), cs.end(), to) != cs.end();
    }
};

TEST(CallGraph, MutualRecursionTerminatesAndReaches)
{
    const GraphFixture g("callgraph");
    ASSERT_TRUE(g.graph.hasRoots());
    const int tick = g.fn("tick", "Core");
    const int a = g.fn("stepA");
    const int b = g.fn("stepB");
    ASSERT_NE(tick, -1);
    ASSERT_NE(a, -1);
    ASSERT_NE(b, -1);
    // The cycle a <-> b is fully linked and reachable; the BFS
    // terminated (or this test would never have run).
    EXPECT_TRUE(g.calls(tick, a));
    EXPECT_TRUE(g.calls(a, b));
    EXPECT_TRUE(g.calls(b, a));
    EXPECT_TRUE(g.graph.tick_reachable[a]);
    EXPECT_TRUE(g.graph.tick_reachable[b]);
}

TEST(CallGraph, MemberFunctionPointerCountsAsCall)
{
    const GraphFixture g("callgraph");
    const int reg = g.fn("registerCallback");
    const int handler = g.fn("onEvent", "Handler");
    ASSERT_NE(reg, -1);
    ASSERT_NE(handler, -1);
    // `&Handler::onEvent` is a call edge: callbacks stay reachable.
    EXPECT_TRUE(g.calls(reg, handler));
}

TEST(CallGraph, OverloadsOverApproximate)
{
    const GraphFixture g("callgraph");
    const int probe = g.fn("probeAll");
    ASSERT_NE(probe, -1);
    // Two definitions named `lookup`: a bare-name call links to both
    // (over-approximation, never a miss), and nothing crashed.
    std::size_t lookups_called = 0;
    for (std::size_t i = 0; i < g.decls.functions.size(); ++i)
        if (g.decls.functions[i].name == "lookup" &&
            g.calls(probe, static_cast<int>(i)))
            ++lookups_called;
    EXPECT_EQ(lookups_called, 2u);
    // Overloads are NOT tick-reachable here: probeAll hangs off no root.
    EXPECT_FALSE(g.graph.tick_reachable[probe]);
}

} // namespace
