#include "analyze.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <set>
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
        {runAccountingRules,
         {kRuleCounterCoverage, kRuleSwitchExhaustive, kRuleCounterReach}},
        {runLayeringRules, {kRuleLayerCycle, kRuleLayerOrder}},
        {runConventionRules,
         {kRuleAssert, kRuleStdout, kRuleIncludeGuard, kRuleCatchSwallow}},
        {runCheckpointRules, {kRuleCheckpointPurity}},
        {runHotpathRules,
         {kRuleHotpathAlloc, kRuleHotpathMapLookup, kRuleHotpathVirtual,
          kRuleHotpathString}},
        {runSyncRules,
         {kRuleSyncGuarded, kRuleSyncRequires, kRuleSyncLockOrder,
          kRuleSyncAtomicRmw}},
    };
    return kFamilies;
}

/// Baseline entry key: rule, file, and message, tab-separated (none of
/// the three can contain a tab).
std::string
baselineKey(const std::string &rule, const std::string &file,
            const std::string &message)
{
    return rule + "\t" + file + "\t" + message;
}

bool
loadBaseline(const std::string &path, std::multiset<std::string> &keys,
             std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot read baseline " + path;
        return false;
    }
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        keys.insert(line);
    }
    return true;
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
        {kRuleSwitchExhaustive, "accounting",
         "Switches over enum classes (stall categories above all) must "
         "cover every enumerator or carry a default."},
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
        {kRuleCheckpointPurity, "checkpoint",
         "Serialization bodies (saveState/serializeState/stateHash/...) "
         "must stay byte-stable: no host pointer bits, no wall-clock "
         "values, no unsorted unordered_* iteration (DESIGN.md §5g)."},
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
        {kRuleSyncGuarded, "sync",
         "Every read/write of a guarded_by(<mutex>) field needs the "
         "mutex in the effective lockset, and phase-confined fields may "
         "only be touched from that phase (DESIGN.md §5j)."},
        {kRuleSyncRequires, "sync",
         "A caller must hold every mutex a callee declares with "
         "// dbsim-analyze: requires(<mutex>)."},
        {kRuleSyncLockOrder, "sync",
         "The global lock-acquisition-order graph must be acyclic, and "
         "no non-recursive mutex may be re-acquired while held -- the "
         "static deadlock guard for the threaded sweep harness."},
        {kRuleSyncAtomicRmw, "sync",
         "Fields marked atomic must be std::atomic and updated with "
         "single atomic RMW operations, not load-modify-store."},
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
    SyncIndex sync;
    buildSyncIndex(corpus, decls, graph, sync);
    const PassContext ctx{corpus, decls, graph, sync};

    std::vector<RawFinding> raw;
    for (const Family &fam : families())
        if (std::any_of(fam.rules.begin(), fam.rules.end(),
                        [&](const char *id) { return enabled(id); }))
            fam.pass(ctx, raw);

    std::vector<Finding> surviving;
    for (const RawFinding &r : raw) {
        if (!enabled(r.rule))
            continue;
        const auto idx = corpus.file_index.find(r.file);
        if (idx != corpus.file_index.end() &&
            suppressed(corpus.files[idx->second], r)) {
            ++out.suppressed;
            continue;
        }
        surviving.push_back({r.rule, r.file, r.line, r.message});
    }
    std::sort(surviving.begin(), surviving.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.file, a.line, a.rule, a.message) <
                         std::tie(b.file, b.line, b.rule, b.message);
              });

    if (!opt.baseline_path.empty() && !opt.write_baseline) {
        std::multiset<std::string> keys;
        std::ifstream probe(opt.baseline_path);
        if (probe) { // a missing baseline simply baselines nothing
            probe.close();
            if (!loadBaseline(opt.baseline_path, keys, error))
                return false;
        }
        for (const Finding &f : surviving) {
            const auto it =
                keys.find(baselineKey(f.rule, f.file, f.message));
            if (it != keys.end()) {
                keys.erase(it);
                ++out.baselined;
                continue;
            }
            out.findings.push_back(f);
        }
    } else {
        out.findings = std::move(surviving);
    }

    if (opt.write_baseline) {
        std::ofstream bl(opt.baseline_path);
        if (!bl) {
            error = "cannot write baseline " + opt.baseline_path;
            return false;
        }
        bl << "# dbsim-analyze baseline: grandfathered findings, one per "
              "line as rule<TAB>file<TAB>message.\n"
              "# Regenerate with: dbsim-analyze --write-baseline\n";
        for (const Finding &f : out.findings)
            bl << baselineKey(f.rule, f.file, f.message) << "\n";
        out.baselined = out.findings.size();
        out.findings.clear();
    }
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
       << " suppressed, " << r.baselined << " baselined)\n";
}

} // namespace dbsim::analyze
