/**
 * @file
 * Golden fingerprint of simulated results.  A fixed set of machine
 * configurations must reproduce tests/golden/fingerprints.json bit for
 * bit, so a refactor that moves any simulated number fails Tier-1.
 *
 * The configs are the three simbench workloads at seed 1 (built as
 * simbench's workloadConfig builds them), the four perf_smoke machines
 * and one point of each paper figure (Figs 2-7), at reduced budgets.
 * Together they cover SC, PC and RC with and without window prefetch
 * and speculative loads, the in-order core, perfect structures, one and
 * four nodes, the instruction stream buffer and the flush+prefetch
 * software hints.
 *
 * The fingerprint is verify::renderArtifacts: cycles, instructions, the
 * breakdown, the characterization, fabric and node counters, the final
 * state hash and a coarse epoch-hash stream.  On a mismatch the test
 * names the first differing dotted path (the earliest differing epoch
 * hash when there is one) and writes the actual document next to the
 * test binary.  A change meant to move simulated results copies that
 * file over the golden one and explains the diff.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/json_writer.hpp"
#include "cpu/inorder_core.hpp"
#include "verify/oracles.hpp"

namespace dbsim {
namespace {

using core::SimConfig;
using core::WorkloadKind;
using cpu::ConsistencyModel;

const std::string kGoldenPath =
    std::string(DBSIM_REPO_ROOT) + "/tests/golden/fingerprints.json";

/** Reduced budget with a coarse epoch-hash stream. */
SimConfig
reduced(SimConfig cfg, std::uint64_t instructions = 300'000)
{
    cfg.total_instructions = instructions;
    cfg.warmup_instructions = instructions / 4;
    cfg.system.state_hash_interval = 50'000;
    return cfg;
}

SimConfig
oltp(std::uint32_t nodes = 4)
{
    return core::makeScaledConfig(WorkloadKind::Oltp, nodes);
}

/** simbench's oltp-4node (RC) or oltp-4node-sc at seed 1. */
SimConfig
simbenchOltp(bool sc)
{
    SimConfig cfg = oltp();
    cfg.oltp.seed = 1;
    if (sc) {
        cfg.system.core.model = ConsistencyModel::SC;
        cfg.system.core.cons = cpu::ConsistencyImpl{};
    }
    return reduced(cfg);
}

/** Figure 6: one consistency model and implementation level. */
SimConfig
fig6(ConsistencyModel model, bool prefetch, bool spec)
{
    SimConfig cfg = oltp();
    cfg.system.core.model = model;
    cfg.system.core.cons.hw_prefetch = prefetch;
    cfg.system.core.cons.spec_loads = spec;
    return reduced(cfg);
}

struct GoldenCase
{
    const char *name;
    SimConfig (*make)();
};

/** Name the case in gtest's failure lines. */
void
PrintTo(const GoldenCase &c, std::ostream *os)
{
    *os << c.name;
}

const GoldenCase kCases[] = {
    {"simbench_oltp_4node", [] { return simbenchOltp(false); }},
    {"simbench_oltp_4node_sc", [] { return simbenchOltp(true); }},
    {"simbench_dss_1node",
     [] {
         SimConfig cfg = core::makeScaledConfig(WorkloadKind::Dss, 1);
         cfg.dss.seed = 1;
         return reduced(cfg, 400'000);
     }},
    // perf_smoke's DSS machines at their default seed.  Its OLTP-4node
    // is simbench_oltp_4node and its OLTP-1node fig5_oltp_uniprocessor.
    {"perf_smoke_dss_1node",
     [] {
         return reduced(core::makeScaledConfig(WorkloadKind::Dss, 1),
                        400'000);
     }},
    {"perf_smoke_dss_4node",
     [] {
         return reduced(core::makeScaledConfig(WorkloadKind::Dss, 4),
                        400'000);
     }},
    // Fig 2(a): the in-order, single-issue baseline.
    {"fig2_oltp_inorder_1way",
     [] {
         SimConfig cfg = oltp();
         cfg.system.core.issue_width = 1;
         cfg.system.core = cpu::makeInOrderParams(cfg.system.core);
         return reduced(cfg);
     }},
    // Fig 3(c): DSS with two outstanding misses per cache.
    {"fig3_dss_mshr2",
     [] {
         SimConfig cfg = core::makeScaledConfig(WorkloadKind::Dss);
         cfg.system.node.l1d.mshrs = 2;
         cfg.system.node.l2.mshrs = 2;
         return reduced(cfg, 400'000);
     }},
    // Fig 4: every structure perfect.
    {"fig4_oltp_all_perfect",
     [] {
         SimConfig cfg = oltp();
         cfg.system.core.fu.infinite = true;
         cfg.system.core.bp.perfect = true;
         cfg.system.node.perfect_icache = true;
         cfg.system.node.perfect_itlb = true;
         cfg.system.node.perfect_dtlb = true;
         return reduced(cfg);
     }},
    // Fig 5: the OLTP uniprocessor.
    {"fig5_oltp_uniprocessor", [] { return reduced(oltp(1)); }},
    // Fig 6: SC and PC with each optimization level, RC fully optimized
    // (plain SC and RC are the simbench configs above).
    {"fig6_sc_prefetch",
     [] { return fig6(ConsistencyModel::SC, true, false); }},
    {"fig6_sc_prefetch_spec",
     [] { return fig6(ConsistencyModel::SC, true, true); }},
    {"fig6_pc", [] { return fig6(ConsistencyModel::PC, false, false); }},
    {"fig6_pc_prefetch_spec",
     [] { return fig6(ConsistencyModel::PC, true, true); }},
    {"fig6_rc_prefetch_spec",
     [] { return fig6(ConsistencyModel::RC, true, true); }},
    // Fig 7(a): an 8-entry instruction stream buffer on one node.
    {"fig7a_stream_buffer_8",
     [] {
         SimConfig cfg = oltp(1);
         cfg.system.node.stream_buffer_entries = 8;
         return reduced(cfg);
     }},
    // Fig 7(b): 4-entry stream buffer plus flush and prefetch hints.
    {"fig7b_flush_prefetch_hints",
     [] {
         SimConfig cfg = oltp();
         cfg.system.node.stream_buffer_entries = 4;
         cfg.hint_flush = true;
         cfg.hint_prefetch = true;
         return reduced(cfg);
     }},
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

/**
 * The golden document is one JSON object with one config per line:
 *     "<name>": <renderArtifacts document>
 * Returns its entries in file order.
 */
std::vector<std::pair<std::string, std::string>>
goldenEntries(const std::string &text)
{
    std::vector<std::pair<std::string, std::string>> out;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        const std::size_t open = line.find('"');
        const std::size_t close = line.find("\": ", open + 1);
        if (open == std::string::npos || close == std::string::npos)
            continue;
        std::string raw = line.substr(close + 3);
        if (!raw.empty() && raw.back() == ',')
            raw.pop_back();
        out.emplace_back(line.substr(open + 1, close - open - 1), raw);
    }
    return out;
}

std::string
renderGolden(const std::vector<std::pair<std::string, std::string>> &entries)
{
    std::string doc = "{\n";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        doc += "  \"" + entries[i].first + "\": " + entries[i].second;
        doc += i + 1 < entries.size() ? ",\n" : "\n";
    }
    return doc + "}\n";
}

std::string
scalarText(const core::JsonScalars &doc, const std::string &path)
{
    const auto it = doc.values.find(path);
    if (it == doc.values.end())
        return "(absent)";
    return it->second.kind == core::JsonScalar::Kind::Unsigned
               ? std::to_string(it->second.value)
               : it->second.text;
}

/**
 * Every dotted path whose scalar differs between @p golden and
 * @p actual, in path order, except that the earliest differing epoch
 * hash, when there is one, comes first: it says when the run diverged.
 */
std::vector<std::string>
differingPaths(const core::JsonScalars &golden, const core::JsonScalars &actual)
{
    auto same = [](const core::JsonScalar &x, const core::JsonScalar &y) {
        return x.kind == y.kind && x.text == y.text && x.value == y.value;
    };
    std::vector<std::string> paths;
    for (const auto &[path, v] : golden.values) {
        const auto it = actual.values.find(path);
        if (it == actual.values.end() || !same(v, it->second))
            paths.push_back(path);
    }
    for (const auto &[path, v] : actual.values)
        if (!golden.has(path))
            paths.push_back(path);
    std::sort(paths.begin(), paths.end());
    for (std::size_t k = 0;; ++k) {
        const std::string epoch = "epoch_hashes." + std::to_string(k);
        if (!golden.has(epoch + ".0") && !actual.has(epoch + ".0"))
            break;
        for (const char *field : {".0", ".1"}) {
            const auto it =
                std::find(paths.begin(), paths.end(), epoch + field);
            if (it != paths.end()) {
                std::rotate(paths.begin(), it, it + 1);
                return paths;
            }
        }
    }
    return paths;
}

/** Renders that differed in this process, by config name; each failure
 *  rewrites the actual document with all of them. */
std::map<std::string, std::string> &
mismatches()
{
    static std::map<std::string, std::string> m;
    return m;
}

std::string
writeActualDocument(const std::string &golden_text)
{
    auto entries = goldenEntries(golden_text);
    for (const auto &[name, render] : mismatches()) {
        auto it = std::find_if(entries.begin(), entries.end(),
                               [&](const auto &e) { return e.first == name; });
        if (it == entries.end())
            entries.emplace_back(name, render);
        else
            it->second = render;
    }
    const std::string path =
        std::string(DBSIM_TESTS_BINARY_DIR) + "/fingerprints.json";
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        out << renderGolden(entries);
    }
    std::filesystem::rename(tmp, path);
    return path;
}

class Golden : public testing::TestWithParam<GoldenCase>
{
};

TEST_P(Golden, FingerprintMatches)
{
    const GoldenCase &c = GetParam();
    const std::string actual = verify::renderArtifacts(
        verify::Engine().execute(c.make()));

    const std::string golden_text = readFile(kGoldenPath);
    core::JsonScalars golden_doc;
    std::string err;
    ASSERT_TRUE(core::parseJson(golden_text, &golden_doc, &err))
        << kGoldenPath << ": " << err;
    core::JsonScalars golden;
    const std::string prefix = std::string(c.name) + ".";
    for (const auto &[path, v] : golden_doc.values)
        if (path.rfind(prefix, 0) == 0)
            golden.values.emplace(path.substr(prefix.size()), v);
    core::JsonScalars mine;
    ASSERT_TRUE(core::parseJson(actual, &mine, &err)) << err;

    const std::vector<std::string> diff = differingPaths(golden, mine);
    if (diff.empty())
        return;
    mismatches()[c.name] = actual;
    const std::string written = writeActualDocument(golden_text);
    std::ostringstream msg;
    if (golden.values.empty()) {
        msg << "no golden entry for " << c.name << "\n";
    } else {
        const std::string &first = diff.front();
        msg << c.name << ": first differing path " << first << " (golden "
            << scalarText(golden, first) << ", actual "
            << scalarText(mine, first) << ")";
        // An epoch entry is [cycle, hash]: name the epoch's cycle too.
        if (first.rfind("epoch_hashes.", 0) == 0)
            msg << " at cycle "
                << scalarText(golden, first.substr(0, first.rfind('.')) + ".0");
        msg << "; " << diff.size() << " paths differ\n";
    }
    msg << "The actual document is " << written << ".\n"
        << "If this change means to move simulated results, copy it over "
           "tests/golden/fingerprints.json and explain the diff in "
           "CHANGES.md.  ctest runs each config in its own process; when "
           "several differ, run tests/dbsim_tests --gtest_filter='*Golden*' "
           "once so the document carries them all.";
    ADD_FAILURE() << msg.str();
}

INSTANTIATE_TEST_SUITE_P(
    Configs, Golden, testing::ValuesIn(kCases),
    [](const testing::TestParamInfo<GoldenCase> &param) {
        return std::string(param.param.name);
    });

} // namespace
} // namespace dbsim
