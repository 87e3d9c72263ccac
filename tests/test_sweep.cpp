/**
 * @file
 * Tests for the parallel sweep runner and the JSON reporting layer.
 *
 * The load-bearing property is the determinism contract (DESIGN.md):
 * simulated statistics of a sweep are a pure function of the
 * configuration list, so running the same list with 1 job and with 8
 * jobs must produce bitwise-identical results.  Also covered: input
 * ordering, deterministic (lowest-index) error propagation, job-count
 * resolution, and the JSON writer's escaping and structure checking.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "common/errors.hpp"
#include "core/json_writer.hpp"
#include "core/sweep.hpp"
#include "cpu/inorder_core.hpp"
#include "verify/fuzzer.hpp"

namespace dbsim::core {
namespace {

// ---------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------

TEST(JsonEscape, PassesPlainAsciiThrough)
{
    EXPECT_EQ(jsonEscape("fig2_oltp_ilp"), "fig2_oltp_ilp");
}

TEST(JsonEscape, EscapesQuotesAndBackslash)
{
    EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
}

TEST(JsonEscape, EscapesCommonControlCharacters)
{
    EXPECT_EQ(jsonEscape("line1\nline2\ttab\rcr"),
              "line1\\nline2\\ttab\\rcr");
}

TEST(JsonEscape, EscapesRareControlCharactersAsUnicode)
{
    EXPECT_EQ(jsonEscape(std::string("a\x01")), "a\\u0001");
    EXPECT_EQ(jsonEscape(std::string("b\x1f")), "b\\u001f");
}

TEST(JsonEscape, PassesUtf8BytesThrough)
{
    // Multi-byte sequences have the high bit set and must not be
    // mistaken for control characters.
    EXPECT_EQ(jsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(JsonWriter, WritesCompactDocument)
{
    std::ostringstream os;
    JsonWriter w(os, /*indent=*/0);
    w.beginObject()
        .kv("name", "x")
        .kv("n", std::uint64_t{42})
        .kv("ok", true)
        .key("xs")
        .beginArray()
        .value(1.5)
        .valueNull()
        .endArray()
        .endObject();
    EXPECT_TRUE(w.done());
    EXPECT_EQ(os.str(), "{\"name\":\"x\",\"n\":42,\"ok\":true,"
                        "\"xs\":[1.5,null]}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull)
{
    std::ostringstream os;
    JsonWriter w(os, 0);
    w.beginArray()
        .value(std::numeric_limits<double>::quiet_NaN())
        .value(std::numeric_limits<double>::infinity())
        .endArray();
    EXPECT_EQ(os.str(), "[null,null]");
}

TEST(JsonWriter, IdenticalInputsAreByteIdentical)
{
    auto emit = [] {
        std::ostringstream os;
        JsonWriter w(os);
        w.beginObject().kv("pi", 3.141592653589793).endObject();
        return os.str();
    };
    EXPECT_EQ(emit(), emit());
}

TEST(JsonWriter, RejectsStructuralMisuse)
{
    {
        std::ostringstream os;
        JsonWriter w(os, 0);
        w.beginObject();
        EXPECT_THROW(w.value("no key"), std::logic_error);
    }
    {
        std::ostringstream os;
        JsonWriter w(os, 0);
        w.beginArray();
        EXPECT_THROW(w.key("not an object"), std::logic_error);
    }
    {
        std::ostringstream os;
        JsonWriter w(os, 0);
        w.beginObject();
        EXPECT_THROW(w.endArray(), std::logic_error);
    }
    {
        std::ostringstream os;
        JsonWriter w(os, 0);
        w.beginObject().endObject();
        EXPECT_THROW(w.value(std::uint64_t{1}), std::logic_error);
    }
}

TEST(JsonReader, ReadsBackEveryRenderedDocumentStrictly)
{
    // Every kind of document dbsim renders parses, and a string full of
    // escapes comes back byte-exact.
    const std::string nasty = "ctl\x01\x1f\ttab \"q\" \\ \xc4\x80 end";
    SweepItemOutcome ok;
    ok.result.label = nasty;
    SweepItemOutcome failed;
    failed.status = SweepItemOutcome::Status::Failed;
    failed.failure.what = nasty;
    verify::ReproFile rf;
    rf.config_seed = std::numeric_limits<std::uint64_t>::max();
    rf.overrides["num_nodes"] = 1;
    rf.detail = nasty;
    verify::FuzzReport rep;
    rep.count = 1;
    rep.failed_cases = 1;
    rep.cases.resize(1);
    verify::OracleVerdict v;
    v.ok = false;
    v.signature = "sig";
    v.detail = nasty;
    rep.cases[0].failures.push_back(v);
    rep.cases[0].shrink_overrides["num_nodes"] = 1;
    rep.buckets.push_back({"sig", 1, 0, nasty, ""});

    const std::vector<std::pair<std::string, std::string>> docs = {
        {renderSweepEntryJson(nasty, ok), "label"},
        {renderSweepEntryJson("s", failed), "error.what"},
        {verify::renderRepro(rf), "detail"},
        {verify::renderFuzzReport(verify::FuzzOptions{}, rep),
         "failures.0.detail"},
    };
    for (const auto &[doc, path] : docs) {
        JsonScalars parsed;
        std::string err;
        ASSERT_TRUE(parseJson(doc, &parsed, &err)) << err << "\n" << doc;
        ASSERT_NE(parsed.stringAt(path), nullptr) << path << " in " << doc;
        EXPECT_EQ(*parsed.stringAt(path), nasty);
    }
    JsonScalars repro;
    ASSERT_TRUE(parseJson(verify::renderRepro(rf), &repro));
    EXPECT_EQ(repro.values.at("config_seed").value, rf.config_seed);
    EXPECT_EQ(repro.values.at("overrides.num_nodes").value, 1u);

    // Every escape decodes, \uXXXX to UTF-8 (surrogate pairs too), and
    // re-escaping the decoded text reads back the same bytes.
    JsonScalars d;
    ASSERT_TRUE(parseJson(R"({"s":"\u0100\u00e9\ud83d\ude00\/\b\f\n\r\t\"\\",)"
                          R"("n":[0,-1.5e3,true,null]})",
                          &d));
    const std::string decoded =
        "\xc4\x80\xc3\xa9\xf0\x9f\x98\x80/\b\f\n\r\t\"\\";
    EXPECT_EQ(*d.stringAt("s"), decoded);
    JsonScalars again;
    ASSERT_TRUE(parseJson("\"" + jsonEscape(decoded) + "\"", &again));
    EXPECT_EQ(*again.stringAt(""), decoded);
    EXPECT_EQ(d.values.at("n.0").kind, JsonScalar::Kind::Unsigned);
    EXPECT_EQ(d.values.at("n.1").kind, JsonScalar::Kind::Number);
    EXPECT_EQ(d.values.at("n.2").kind, JsonScalar::Kind::Bool);
    EXPECT_EQ(d.values.at("n.3").kind, JsonScalar::Kind::Null);

    // The depth bound, u64 overflow and malformed input are errors that
    // name the byte offset.
    const std::string deepest = std::string(kJsonMaxDepth, '[') +
                                std::string(kJsonMaxDepth, ']');
    EXPECT_TRUE(parseJson(deepest, &d));
    std::string err;
    EXPECT_FALSE(parseJson("[" + deepest + "]", &d, &err));
    EXPECT_NE(err.find("nesting"), std::string::npos) << err;
    EXPECT_TRUE(parseJson("18446744073709551615", &d));
    EXPECT_FALSE(parseJson(R"({"n":18446744073709551616})", &d, &err));
    EXPECT_NE(err.find("byte 5"), std::string::npos) << err;
    for (const char *bad :
         {"", "{} x", R"({"a":1,})", R"({"a":01})", "[1 2]", R"("\u00zz")",
          R"("\ud800")", R"({"a":1,"a":2})", "\"raw\nnewline\"", "{a:1}",
          "nul", "-", "1.", R"({"cycles":12x34})"}) {
        EXPECT_FALSE(parseJson(bad, &d, &err)) << bad;
        EXPECT_EQ(err.rfind("byte ", 0), 0u) << err;
    }
}

// ---------------------------------------------------------------------
// SweepRunner
// ---------------------------------------------------------------------

SimConfig
quick(WorkloadKind kind, std::uint32_t nodes = 2)
{
    SimConfig cfg = makeScaledConfig(kind, nodes);
    cfg.total_instructions = 40000;
    cfg.warmup_instructions = 8000;
    return cfg;
}

/** Twelve small configurations spanning both workloads and the knobs
 *  the figure benches sweep. */
std::vector<SweepItem>
determinismItems()
{
    std::vector<SweepItem> items;
    for (const auto kind : {WorkloadKind::Oltp, WorkloadKind::Dss}) {
        SimConfig base = quick(kind);
        items.push_back({"base", base});

        SimConfig inorder = base;
        inorder.system.core = cpu::makeInOrderParams(inorder.system.core);
        items.push_back({"inorder", inorder});

        SimConfig window = base;
        window.system.core.window_size = 32;
        items.push_back({"window-32", window});

        SimConfig sc = base;
        sc.system.core.model = cpu::ConsistencyModel::SC;
        items.push_back({"sc", sc});

        SimConfig mshr2 = base;
        mshr2.system.node.l1d.mshrs = 2;
        mshr2.system.node.l2.mshrs = 2;
        items.push_back({"mshr-2", mshr2});

        SimConfig sbuf = base;
        sbuf.system.node.stream_buffer_entries = 4;
        items.push_back({"sbuf-4", sbuf});
    }
    return items;
}

void
expectOccupancyEq(const stats::OccupancyTracker &a,
                  const stats::OccupancyTracker &b)
{
    EXPECT_EQ(a.busyTime(), b.busyTime());
    for (std::uint32_t n = 1; n <= 8; ++n)
        EXPECT_EQ(a.fracAtLeast(n), b.fracAtLeast(n)) << "n=" << n;
}

TEST(ForEachIndex, VisitsEachIndexOnceAndRethrowsAfterJoin)
{
    for (const unsigned jobs : {0u, 1u, 4u}) {
        std::vector<std::atomic<int>> hits(37);
        forEachIndex(hits.size(), jobs, [&](std::size_t i) { ++hits[i]; });
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1) << "jobs " << jobs;
        EXPECT_THROW(forEachIndex(hits.size(), jobs,
                                  [](std::size_t i) {
                                      if (i == 5)
                                          throw std::runtime_error("x");
                                  }),
                     std::runtime_error);
    }
}

TEST(SweepRunner, ParallelRunIsBitwiseDeterministic)
{
    const auto items = determinismItems();
    ASSERT_GE(items.size(), 12u);

    SweepRunner serial(1);
    SweepRunner parallel(8);
    const auto a = serial.run(items);
    const auto b = parallel.run(items);
    ASSERT_EQ(a.size(), items.size());
    ASSERT_EQ(b.size(), items.size());

    for (std::size_t i = 0; i < items.size(); ++i) {
        SCOPED_TRACE("item " + std::to_string(i) + " (" + a[i].label +
                     ")");
        // Results come back in input order under both job counts.
        EXPECT_EQ(a[i].label, items[i].label);
        EXPECT_EQ(b[i].label, items[i].label);

        EXPECT_EQ(a[i].run.cycles, b[i].run.cycles);
        EXPECT_EQ(a[i].run.instructions, b[i].run.instructions);
        EXPECT_EQ(a[i].run.ipc, b[i].run.ipc);
        for (std::size_t c = 0; c < kNumStallCats; ++c) {
            EXPECT_EQ(a[i].run.breakdown[static_cast<StallCat>(c)],
                      b[i].run.breakdown[static_cast<StallCat>(c)])
                << stallCatName(static_cast<StallCat>(c));
        }

        EXPECT_EQ(a[i].ch.l1i_miss_per_fetch, b[i].ch.l1i_miss_per_fetch);
        EXPECT_EQ(a[i].ch.l1i_mpki, b[i].ch.l1i_mpki);
        EXPECT_EQ(a[i].ch.l1d_miss_rate, b[i].ch.l1d_miss_rate);
        EXPECT_EQ(a[i].ch.l2_miss_rate, b[i].ch.l2_miss_rate);
        EXPECT_EQ(a[i].ch.branch_mispredict_rate,
                  b[i].ch.branch_mispredict_rate);
        EXPECT_EQ(a[i].ch.itlb_miss_rate, b[i].ch.itlb_miss_rate);
        EXPECT_EQ(a[i].ch.dtlb_miss_rate, b[i].ch.dtlb_miss_rate);
        EXPECT_EQ(a[i].ch.total_l2_misses, b[i].ch.total_l2_misses);
        EXPECT_EQ(a[i].ch.dirty_misses, b[i].ch.dirty_misses);

        EXPECT_EQ(a[i].node0.l1i_fetches, b[i].node0.l1i_fetches);
        EXPECT_EQ(a[i].node0.l1i_misses, b[i].node0.l1i_misses);
        EXPECT_EQ(a[i].node0.l1i_sbuf_hits, b[i].node0.l1i_sbuf_hits);
        EXPECT_EQ(a[i].node0.l1d_accesses, b[i].node0.l1d_accesses);
        EXPECT_EQ(a[i].node0.l1d_misses, b[i].node0.l1d_misses);
        EXPECT_EQ(a[i].node0.l2_accesses, b[i].node0.l2_accesses);
        EXPECT_EQ(a[i].node0.l2_misses, b[i].node0.l2_misses);

        EXPECT_EQ(a[i].fabric.invalidations_sent,
                  b[i].fabric.invalidations_sent);
        EXPECT_EQ(a[i].fabric.writebacks, b[i].fabric.writebacks);
        EXPECT_EQ(a[i].fabric.totalMisses(), b[i].fabric.totalMisses());
        EXPECT_EQ(a[i].fabric.dirtyMisses(), b[i].fabric.dirtyMisses());

        expectOccupancyEq(a[i].l1d_occ, b[i].l1d_occ);
        expectOccupancyEq(a[i].l1d_read_occ, b[i].l1d_read_occ);
        expectOccupancyEq(a[i].l2_occ, b[i].l2_occ);
        expectOccupancyEq(a[i].l2_read_occ, b[i].l2_read_occ);

        EXPECT_EQ(a[i].migratory.shared_writes,
                  b[i].migratory.shared_writes);
        EXPECT_EQ(a[i].migratory.migratory_writes,
                  b[i].migratory.migratory_writes);
        EXPECT_EQ(a[i].migratory.dirty_reads, b[i].migratory.dirty_reads);
        EXPECT_EQ(a[i].migratory.write_fraction,
                  b[i].migratory.write_fraction);
        EXPECT_EQ(a[i].migratory.line_concentration_70,
                  b[i].migratory.line_concentration_70);
    }
}

TEST(SweepRunner, LowestIndexErrorWinsUnderAnyJobCount)
{
    std::vector<SweepItem> items;
    for (int i = 0; i < 6; ++i)
        items.push_back({"ok", quick(WorkloadKind::Oltp, 1)});
    items[2].cfg.total_instructions = 0; // field "total_instructions"
    items[5].cfg.oltp.hash_buckets = 0;  // field "oltp.hash_buckets"

    for (const unsigned jobs : {1u, 8u}) {
        SweepRunner runner(jobs);
        try {
            runner.run(items);
            FAIL() << "expected ConfigError (jobs=" << jobs << ")";
        } catch (const ConfigError &e) {
            EXPECT_EQ(e.field(), "total_instructions")
                << "jobs=" << jobs;
        }
    }
}

TEST(SweepRunner, BaseSeedDerivesPerItemWorkloadSeeds)
{
    std::vector<SweepItem> items(2,
                                 {"seeded", quick(WorkloadKind::Oltp, 1)});
    SweepRunner runner(1);
    runner.setBaseSeed(12345);
    const auto seeded = runner.run(items);
    // Distinct derived seeds -> the two identical configs diverge.
    EXPECT_NE(seeded[0].run.cycles, seeded[1].run.cycles);

    // Re-running with the same base seed reproduces the results.
    const auto again = runner.run(items);
    EXPECT_EQ(seeded[0].run.cycles, again[0].run.cycles);
    EXPECT_EQ(seeded[1].run.cycles, again[1].run.cycles);

    // Without a base seed the configs' own (equal) seeds are used.
    SweepRunner plain(1);
    const auto unseeded = plain.run(items);
    EXPECT_EQ(unseeded[0].run.cycles, unseeded[1].run.cycles);
}

TEST(SweepRunner, ResolveJobsPrecedence)
{
    EXPECT_EQ(SweepRunner::resolveJobs(5), 5u);

    ASSERT_EQ(setenv("DBSIM_JOBS", "3", 1), 0);
    EXPECT_EQ(SweepRunner::resolveJobs(0), 3u);
    EXPECT_EQ(SweepRunner::resolveJobs(2), 2u); // CLI wins over env

    // Not a positive decimal integer: warn + fall back.
    const unsigned fallback = std::min(
        std::max(std::thread::hardware_concurrency(), 1u),
        SweepRunner::kMaxJobs);
    for (const char *bad : {"banana", "-3", "12abc", "0", " 3"}) {
        ASSERT_EQ(setenv("DBSIM_JOBS", bad, 1), 0);
        EXPECT_EQ(SweepRunner::resolveJobs(0), fallback)
            << "DBSIM_JOBS=\"" << bad << "\"";
    }

    ASSERT_EQ(unsetenv("DBSIM_JOBS"), 0);
    EXPECT_GE(SweepRunner::resolveJobs(0), 1u);
}

// ---------------------------------------------------------------------
// JSON report
// ---------------------------------------------------------------------

TEST(SweepReportJson, EmitsSchemaAndOneEntryPerResult)
{
    SweepRunner runner(2);
    const auto results =
        runner.run({{"r0", quick(WorkloadKind::Oltp, 1)},
                    {"r1", quick(WorkloadKind::Dss, 1)}});

    SweepReport report;
    report.bench = "test_bench";
    report.jobs = runner.jobs();
    report.add("s1", results);

    std::ostringstream os;
    writeSweepJson(os, report);
    const std::string doc = os.str();

    JsonScalars parsed;
    std::string err;
    ASSERT_TRUE(parseJson(doc, &parsed, &err)) << err << "\n" << doc;
    ASSERT_NE(parsed.stringAt("results.1.label"), nullptr);
    EXPECT_EQ(*parsed.stringAt("results.1.label"), "r1");
    EXPECT_NE(doc.find("\"schema\": \"dbsim-bench-v2\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"bench\": \"test_bench\""), std::string::npos);
    // v2 result entries are compact single-line objects (so a journal
    // line and its report entry are byte-identical).
    EXPECT_NE(doc.find("\"label\":\"r0\""), std::string::npos);
    EXPECT_NE(doc.find("\"label\":\"r1\""), std::string::npos);
    EXPECT_NE(doc.find("\"status\":\"ok\""), std::string::npos);
    EXPECT_NE(doc.find("\"sim_instructions_per_host_second\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"mshr_occupancy\""), std::string::npos);
    EXPECT_EQ(doc.back(), '\n');
}

TEST(SweepRunner, ResolveJobsClampsAbsurdValues)
{
    // CLI path: anything above kMaxJobs is clamped with a warning.
    EXPECT_EQ(SweepRunner::resolveJobs(100000), SweepRunner::kMaxJobs);
    EXPECT_EQ(SweepRunner::resolveJobs(SweepRunner::kMaxJobs),
              SweepRunner::kMaxJobs);

    // Env path: same clamp.
    ASSERT_EQ(setenv("DBSIM_JOBS", "999999999", 1), 0);
    EXPECT_EQ(SweepRunner::resolveJobs(0), SweepRunner::kMaxJobs);
    ASSERT_EQ(unsetenv("DBSIM_JOBS"), 0);
}

} // namespace
} // namespace dbsim::core
