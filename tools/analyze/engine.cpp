#include "analyze.hpp"

#include <algorithm>
#include <ostream>
#include <tuple>

#include "corpus.hpp"
#include "rules.hpp"

namespace dbsim::analyze {

namespace {

struct Family
{
    void (*pass)(const PassContext &, std::vector<RawFinding> &);
    std::vector<const char *> rules;
};

const std::vector<Family> &
families()
{
    static const std::vector<Family> kFamilies = {
        {runDeterminismRules,
         {kRuleUnorderedIter, kRuleWallclock, kRuleRand,
          kRulePointerFormat}},
        {runAccountingRules, {kRuleCounterCoverage, kRuleCounterReach}},
        {runLayeringRules, {kRuleLayerCycle, kRuleLayerOrder}},
        {runConventionRules,
         {kRuleAssert, kRuleStdout, kRuleIncludeGuard, kRuleCatchSwallow}},
        {runHotpathRules,
         {kRuleHotpathAlloc, kRuleHotpathMapLookup, kRuleHotpathVirtual,
          kRuleHotpathString}},
    };
    return kFamilies;
}

bool
suppressed(const SourceFile &f, const RawFinding &raw)
{
    const int end = std::max(raw.line, raw.scan_end);
    for (int l = raw.line; l <= end; ++l) {
        const auto it = f.allows.find(l);
        if (it != f.allows.end() && it->second.count(raw.rule))
            return true;
    }
    return false;
}

} // namespace

const std::vector<RuleInfo> &
ruleCatalog()
{
    static const std::vector<RuleInfo> kCatalog = {
        {kRuleUnorderedIter, "determinism",
         "Unordered-container iteration must not feed output paths; "
         "sort a snapshot first (DESIGN.md §5c)."},
        {kRuleWallclock, "determinism",
         "Host-clock reads are confined to annotated host-timing code "
         "and never feed simulated state or statistics."},
        {kRuleRand, "determinism",
         "Only the seeded dbsim RNG may produce randomness; C rand() "
         "and std::random_device break replay."},
        {kRulePointerFormat, "determinism",
         "Pointer values (ASLR-dependent) must not be formatted into "
         "deterministic output."},
        {kRuleCounterCoverage, "accounting",
         "Every integral counter in a *Stats struct must be updated "
         "somewhere and serialized/read somewhere."},
        {kRuleLayerCycle, "layering",
         "The include graph must be a DAG; cyclic headers are reported "
         "with the full cycle path."},
        {kRuleLayerOrder, "layering",
         "A directory may include only same-layer or lower-layer "
         "headers (common < trace < interconnect < memory < coherence "
         "< cpu < sim < workload < core < verify)."},
        {kRuleAssert, "conventions",
         "Use DBSIM_ASSERT instead of raw assert(); it stays on in "
         "release builds."},
        {kRuleStdout, "conventions",
         "No stdout writes in src/; stdout belongs to machine-readable "
         "reports, logs go to stderr."},
        {kRuleIncludeGuard, "conventions",
         "Include guards spell DBSIM_<DIRS>_<FILE>_HPP."},
        {kRuleCatchSwallow, "conventions",
         "catch (...) must rethrow, wrap the exception in a structured "
         "failure, or carry an allow() annotation."},
        {kRuleCounterReach, "accounting",
         "A counter whose only write sites are unreachable from the tick "
         "path (and not cold) is dead accounting: the measured run never "
         "produces it."},
        {kRuleHotpathAlloc, "hotpath",
         "No heap allocation (new/make_unique/local owning containers) "
         "on the tick path; allocate at setup or pool."},
        {kRuleHotpathMapLookup, "hotpath",
         "No map find/count/at/subscript on the tick path; hoist the "
         "lookup or restructure to an indexed array."},
        {kRuleHotpathVirtual, "hotpath",
         "No virtual dispatch from tick-reachable code; devirtualize or "
         "document the design reason with allow()."},
        {kRuleHotpathString, "hotpath",
         "No string construction/formatting on the tick path; move it "
         "behind a cold(<reason>) boundary."},
    };
    return kCatalog;
}

bool
knownRule(const std::string &id)
{
    for (const RuleInfo &r : ruleCatalog())
        if (id == r.id)
            return true;
    return false;
}

bool
runAnalysis(const Options &opt, Result &out, std::string &error)
{
    for (const std::string &r : opt.rules)
        if (!knownRule(r)) {
            error = "unknown rule '" + r + "' (see --list-rules)";
            return false;
        }
    auto enabled = [&](const std::string &id) {
        return opt.rules.empty() ||
               std::find(opt.rules.begin(), opt.rules.end(), id) !=
                   opt.rules.end();
    };

    Corpus corpus;
    if (!buildCorpus(opt.corpus_root, opt.usage_roots, corpus, error))
        return false;
    out.files_scanned = corpus.files.size();

    // Symbol-resolved IR: declarations, then the call graph with
    // tick-path reachability.  Cheap relative to lexing; built
    // unconditionally so every pass may consult it.
    DeclIndex decls;
    buildDecls(corpus, decls);
    CallGraph graph;
    buildCallGraph(corpus, decls, graph);
    const PassContext ctx{corpus, decls, graph};

    std::vector<RawFinding> raw;
    for (const Family &fam : families())
        if (std::any_of(fam.rules.begin(), fam.rules.end(),
                        [&](const char *id) { return enabled(id); }))
            fam.pass(ctx, raw);

    for (const RawFinding &r : raw) {
        if (!enabled(r.rule))
            continue;
        const auto idx = corpus.file_index.find(r.file);
        if (idx != corpus.file_index.end() &&
            suppressed(corpus.files[idx->second], r)) {
            ++out.suppressed;
            continue;
        }
        out.findings.push_back({r.rule, r.file, r.line, r.message});
    }
    std::sort(out.findings.begin(), out.findings.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.file, a.line, a.rule, a.message) <
                         std::tie(b.file, b.line, b.rule, b.message);
              });
    return true;
}

void
writeText(std::ostream &os, const Result &r)
{
    for (const Finding &f : r.findings)
        os << f.file << ":" << f.line << ": [" << f.rule << "] "
           << f.message << "\n";
    os << "dbsim-analyze: " << r.files_scanned << " files, "
       << r.findings.size() << " finding(s) (" << r.suppressed
       << " suppressed)\n";
}

} // namespace dbsim::analyze
