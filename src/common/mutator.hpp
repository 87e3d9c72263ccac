/**
 * @file
 * Protocol fault injection for the offline verification layer.
 *
 * A ProtocolMutator seeds exactly one protocol bug into the *real*
 * implementation: the coherence fabric (src/coherence/directory.cpp)
 * and the core's consistency machinery (src/cpu/ooo_core.cpp, and the
 * litmus executor mirroring it) consult the attached mutator at the
 * protocol decision points a real implementation could get wrong.  The
 * model checker / litmus harness must detect every catalogued mutant;
 * that mutation self-test is what makes the checkers trustworthy
 * (a checker that flags nothing is indistinguishable from a checker
 * that checks nothing).
 *
 * This header is a dependency leaf (standard headers only).  It lives in
 * common/ -- the bottom of the include-layer order -- so that both the
 * protocol layers below verify/ and the verification layer itself can
 * include it without creating an upward include or a directory cycle
 * (enforced by dbsim-analyze rule layering-order).  The types keep the
 * dbsim::verify namespace: the mutation catalog is verification-layer
 * vocabulary; only its home on disk is dictated by layering.  Mutators
 * are never attached outside
 * tests and the dbsim-mc driver; the hooks are nullptr-guarded and cost
 * one pointer test on paths that are already protocol transactions.
 */

#ifndef DBSIM_COMMON_MUTATOR_HPP
#define DBSIM_COMMON_MUTATOR_HPP

#include <cstdint>
#include <string_view>

namespace dbsim::verify {

/** The catalogued protocol bugs (DESIGN.md "Verification layer"). */
enum class ProtocolBug : std::uint8_t {
    None,
    /** write(): one remote sharer is not sent its invalidation (its
     *  directory bit is still cleared), leaving a stale Shared copy
     *  invisible to the directory. */
    DroppedInvalidation,
    /** write(): the directory forgets to record the new owner, so the
     *  writer's Modified copy is unknown to (or contradicts) the
     *  directory. */
    StaleOwner,
    /** read(): a dirty remote owner supplies the line cache-to-cache
     *  but is not downgraded, leaving Modified and Shared copies
     *  coexisting. */
    MissingDowngrade,
    /** read(): a read serviced while the line is directory-Shared does
     *  not record the requester's sharer bit, so later invalidations
     *  miss its copy. */
    LostSharerBit,
    /** An invalidation fails to flag speculatively-performed loads of
     *  the invalidated line, so a consistency-violating early value can
     *  commit without rollback. */
    SkippedSpecSquash,
    /** The WMB epoch ordering in the write buffer is ignored: a store
     *  after a write barrier (e.g. a releasing store's predecessors)
     *  may perform before pre-barrier stores. */
    ReorderedRelease,
};

const char *protocolBugName(ProtocolBug b);

/**
 * Holds the single seeded bug and counts how often it actually fired.
 * The trigger count lets tests distinguish "mutant detected" from
 * "mutant never exercised" -- a detection claim is only meaningful when
 * triggers > 0.  Not thread-safe; mutators are test-/tool-only.
 */
struct ProtocolMutator
{
    ProtocolBug bug = ProtocolBug::None;
    mutable std::uint64_t triggers = 0;

    /** True iff @p b is the seeded bug; counts the firing. */
    bool
    armed(ProtocolBug b) const
    {
        if (bug != b)
            return false;
        ++triggers;
        return true;
    }
};

inline const char *
protocolBugName(ProtocolBug b)
{
    switch (b) {
      case ProtocolBug::None:                return "none";
      case ProtocolBug::DroppedInvalidation: return "dropped-invalidation";
      case ProtocolBug::StaleOwner:          return "stale-owner";
      case ProtocolBug::MissingDowngrade:    return "missing-downgrade";
      case ProtocolBug::LostSharerBit:       return "lost-sharer-bit";
      case ProtocolBug::SkippedSpecSquash:   return "skipped-spec-squash";
      case ProtocolBug::ReorderedRelease:    return "reordered-release";
    }
    return "?";
}

/** Every catalogued bug (ProtocolBug::None excluded): the one list the
 *  tools and self-checks iterate. */
inline constexpr ProtocolBug kProtocolBugs[] = {
    ProtocolBug::DroppedInvalidation, ProtocolBug::StaleOwner,
    ProtocolBug::MissingDowngrade,    ProtocolBug::LostSharerBit,
    ProtocolBug::SkippedSpecSquash,   ProtocolBug::ReorderedRelease,
};

/** Inverse of protocolBugName() ("none" included); false when @p name
 *  names no bug. */
inline bool
protocolBugFromName(std::string_view name, ProtocolBug *out)
{
    if (name == protocolBugName(ProtocolBug::None)) {
        *out = ProtocolBug::None;
        return true;
    }
    for (const ProtocolBug b : kProtocolBugs) {
        if (name == protocolBugName(b)) {
            *out = b;
            return true;
        }
    }
    return false;
}

} // namespace dbsim::verify

#endif // DBSIM_COMMON_MUTATOR_HPP
