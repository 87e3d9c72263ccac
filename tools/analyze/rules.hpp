/**
 * @file
 * Internal rule-pass interface.  Each family pass scans the corpus and
 * appends raw findings; the engine then applies inline suppressions,
 * the baseline, and rule filtering.
 */

#ifndef DBSIM_TOOLS_ANALYZE_RULES_HPP
#define DBSIM_TOOLS_ANALYZE_RULES_HPP

#include <string>
#include <vector>

#include "callgraph.hpp"
#include "corpus.hpp"
#include "decls.hpp"
#include "locksets.hpp"

namespace dbsim::analyze {

/// A finding as produced by a rule pass.  `scan_end` widens the line
/// range searched for an inline allow() (e.g. a whole catch block); 0
/// means just the finding line.
struct RawFinding
{
    std::string rule;
    std::string file;
    int line = 0;
    std::string message;
    int scan_end = 0;
};

// Rule ids (shared between passes, engine, and tests).
inline constexpr char kRuleUnorderedIter[] = "determinism-unordered-iteration";
inline constexpr char kRuleWallclock[] = "determinism-wallclock";
inline constexpr char kRuleRand[] = "determinism-rand";
inline constexpr char kRulePointerFormat[] = "determinism-pointer-format";
inline constexpr char kRuleCounterCoverage[] = "accounting-counter-coverage";
inline constexpr char kRuleSwitchExhaustive[] = "accounting-switch-exhaustive";
inline constexpr char kRuleLayerCycle[] = "layering-cycle";
inline constexpr char kRuleLayerOrder[] = "layering-order";
inline constexpr char kRuleAssert[] = "convention-assert";
inline constexpr char kRuleStdout[] = "convention-stdout";
inline constexpr char kRuleIncludeGuard[] = "convention-include-guard";
inline constexpr char kRuleCatchSwallow[] = "convention-catch-swallow";
inline constexpr char kRuleCheckpointPurity[] = "checkpoint-purity";
inline constexpr char kRuleHotpathAlloc[] = "hotpath-allocation";
inline constexpr char kRuleHotpathMapLookup[] = "hotpath-map-lookup";
inline constexpr char kRuleHotpathVirtual[] = "hotpath-virtual";
inline constexpr char kRuleHotpathString[] = "hotpath-string";
inline constexpr char kRuleCounterReach[] = "accounting-counter-reachability";
inline constexpr char kRuleSyncGuarded[] = "sync-guarded-access";
inline constexpr char kRuleSyncRequires[] = "sync-requires-violation";
inline constexpr char kRuleSyncLockOrder[] = "sync-lock-order";
inline constexpr char kRuleSyncAtomicRmw[] = "sync-atomic-rmw";

/**
 * Everything a rule pass may consult: the lexed corpus plus the
 * symbol-resolved IR (declarations + call graph with tick-path
 * reachability).  Passes that don't need the IR just use `corpus`.
 */
struct PassContext
{
    const Corpus &corpus;
    const DeclIndex &decls;
    const CallGraph &graph;
    const SyncIndex &sync;
};

void runDeterminismRules(const PassContext &ctx,
                         std::vector<RawFinding> &out);
void runAccountingRules(const PassContext &ctx, std::vector<RawFinding> &out);
void runLayeringRules(const PassContext &ctx, std::vector<RawFinding> &out);
void runConventionRules(const PassContext &ctx,
                        std::vector<RawFinding> &out);
void runCheckpointRules(const PassContext &ctx,
                        std::vector<RawFinding> &out);
void runHotpathRules(const PassContext &ctx, std::vector<RawFinding> &out);
void runSyncRules(const PassContext &ctx, std::vector<RawFinding> &out);

/// Shared helper: true when the identifier at token `i` is mutated
/// (assignment, compound assignment, ++/--), looking through member
/// chains and subscripts the way rules_accounting does.
bool isWriteContext(const std::vector<Token> &t, std::size_t i);

} // namespace dbsim::analyze

#endif // DBSIM_TOOLS_ANALYZE_RULES_HPP
