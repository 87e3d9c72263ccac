/**
 * @file
 * Concurrency-contract index and interprocedural lockset propagation for
 * dbsim-analyze (DESIGN.md §5j).
 *
 * The lexer's structured sync marks (guarded_by / atomic / phase /
 * requires) are resolved here against the declaration index:
 * every field gets at most one SyncContract, every function definition a
 * `requires` set and a phase classification.  A single forward walk per
 * function body then tracks the set of mutexes provably held at each
 * token -- `std::lock_guard` / `std::scoped_lock` / `unique_lock` /
 * `shared_lock` construction (RAII, released at scope exit), manual
 * `.lock()` / `.unlock()`, `std::defer_lock` -- recording every member
 * access, resolved call site, and mutex acquisition together with the
 * function-local lockset at that point.
 *
 * Two interprocedural fixpoints finish the index:
 *
 *  - entry locksets: entry(f) = requires(f) ∪ the *meet* (set
 *    intersection) over every in-corpus call site of f of the caller's
 *    entry plus its site-local lockset.  The meet starts from the
 *    requires sets and only grows, so the result is a least fixpoint: a
 *    mutex lands in entry(f) only when every tracked caller provably
 *    holds it.  Functions whose address is taken (callback seams) and
 *    functions with no in-corpus callers keep entry = requires -- the
 *    conservative floor.
 *
 *  - serial context: a function is serial-context when it carries a
 *    `phase(serial)` mark, or when it has at least one caller, every
 *    caller is serial-context, and its address is never taken.  Serial
 *    code is exempt from guarded_by / requires checking: it runs outside
 *    the parallel quantum by construction.
 *
 * Everything is bare-name resolved like the call graph: mutexes are
 * identified by member name (two classes both naming their mutex `mu_`
 * conflate -- the repo convention keeps guard names unique enough), and
 * overloads/virtual calls over-approximate their target sets.
 */

#ifndef DBSIM_TOOLS_ANALYZE_LOCKSETS_HPP
#define DBSIM_TOOLS_ANALYZE_LOCKSETS_HPP

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "callgraph.hpp"
#include "corpus.hpp"
#include "decls.hpp"

namespace dbsim::analyze {

/// Structured concurrency contract on a field (DESIGN.md §5j).
struct SyncContract
{
    enum class Kind : unsigned char {
        None,      ///< no structured mark
        GuardedBy, ///< guarded_by(<mutex>): lockset-checked on every R/W
        Atomic,    ///< atomic: std::atomic type, no non-atomic RMW
        Phase,     ///< phase(<name>): only touched in that phase
    };
    Kind kind = Kind::None;
    std::string arg; ///< mutex member / phase name

    bool structured() const { return kind != Kind::None; }
};

/// One member access observed in a function body.
struct FieldAccess
{
    int cls = -1;   ///< class index of the resolved field
    int field = -1; ///< field index within that class
    int line = 0;
    bool write = false; ///< assignment / compound-assign / ++ / --
    bool rmw = false;   ///< read-modify-write shape (+=, ++, x = x ...)
    /// RMW spelled as a plain self-referential assignment (`x = x + 1`):
    /// a separate load + store even on a std::atomic field.
    bool rmw_assign = false;
    std::set<std::string> held; ///< function-local lockset at the access
    /// Mutexes explicitly unlocked before this point without a matching
    /// local acquisition: they must be subtracted from the entry lockset
    /// (a `requires` lock released then used is a violation).
    std::set<std::string> released;
};

/// One name-resolved call site with the function-local lockset.
struct CallSiteInfo
{
    std::vector<int> targets; ///< function indices (overload over-approx)
    int line = 0;
    std::set<std::string> held;
    std::set<std::string> released; ///< see FieldAccess::released
};

/// One mutex acquisition with the locks already held at that point.
struct AcquireInfo
{
    std::string mutex;
    int line = 0;
    std::set<std::string> held_before; ///< function-local, pre-acquire
};

/// Per-function lockset facts plus the interprocedural fixpoints.
/// All per-function vectors are indexed like DeclIndex::functions.
struct SyncIndex
{
    /// (class idx, field idx) -> structured contract (absent = None).
    std::map<std::pair<int, int>, SyncContract> field_contract;
    std::vector<std::set<std::string>> fn_requires;
    std::vector<std::set<std::string>> fn_phases; ///< phase(<name>) marks
    std::vector<bool> fn_phase_serial;   ///< explicit phase(serial) mark
    std::vector<bool> fn_serial_context; ///< provably serial-only
    std::vector<bool> fn_address_taken;  ///< &f / &Class::f seen anywhere
    std::vector<std::set<std::string>> fn_entry; ///< entry lockset
    std::vector<std::vector<FieldAccess>> fn_accesses;
    std::vector<std::vector<CallSiteInfo>> fn_calls;
    std::vector<std::vector<AcquireInfo>> fn_acquires;

    SyncContract contractOf(int ci, int fi) const;
};

/**
 * Field-level structured sync mark lookup: the field's own declaration
 * window (decl_line..max(line, end_line)) first, then a class-level mark
 * on the class-name line.
 */
SyncContract fieldSyncContract(const Corpus &corpus, const DeclIndex &decls,
                               int ci, const FieldDecl &fd);

void buildSyncIndex(const Corpus &corpus, const DeclIndex &decls,
                    const CallGraph &graph, SyncIndex &out);

} // namespace dbsim::analyze

#endif // DBSIM_TOOLS_ANALYZE_LOCKSETS_HPP
