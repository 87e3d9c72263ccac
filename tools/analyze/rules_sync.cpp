/**
 * @file
 * Concurrency-contract rules (DESIGN.md §5j): the clang-thread-safety
 * style checks over the SyncIndex built by locksets.cpp.
 *
 *   sync-guarded-access      guarded_by / phase field touched without
 *                            the mutex in the effective lockset (entry
 *                            minus released, plus local holds) outside
 *                            serial context
 *   sync-requires-violation  call site missing a callee's requires mutex
 *   sync-lock-order          cycle (including self-acquisition) in the
 *                            global lock-acquisition-order graph
 *   sync-atomic-rmw          non-atomic read-modify-write on an
 *                            atomic-marked field
 *
 * Constructors are exempt from the access checks: the object under
 * construction is not yet shared.  Serial-context functions (marked
 * phase(serial), or provably reachable only from serial context) are
 * exempt from guarded_by / requires checking -- they run outside the
 * parallel quantum by definition.
 */

#include <algorithm>
#include <map>
#include <set>

#include "rules.hpp"

namespace dbsim::analyze {

namespace {

std::string
renderSet(const std::set<std::string> &s)
{
    std::string out = "{";
    for (const std::string &m : s) {
        if (out.size() > 1)
            out += ", ";
        out += m;
    }
    out += "}";
    return out;
}

/// Effective lockset at a point inside function `f`: the interprocedural
/// entry set minus explicit releases, plus function-local holds.
std::set<std::string>
effective(const SyncIndex &sync, std::size_t f,
          const std::set<std::string> &held,
          const std::set<std::string> &released)
{
    std::set<std::string> s = sync.fn_entry[f];
    for (const std::string &m : released)
        s.erase(m);
    s.insert(held.begin(), held.end());
    return s;
}

bool
isCtor(const FunctionDef &fn)
{
    return !fn.cls.empty() && fn.cls == fn.name;
}

struct SyncPass
{
    const PassContext &ctx;
    std::vector<RawFinding> &out;

    std::string
    qualName(int ci, int fi) const
    {
        const ClassDecl &cd = ctx.decls.classes[ci];
        return cd.name + "::" + cd.fields[fi].name;
    }

    void
    guardedAccess()
    {
        const SyncIndex &sync = ctx.sync;
        for (std::size_t f = 0; f < ctx.decls.functions.size(); ++f) {
            const FunctionDef &fn = ctx.decls.functions[f];
            if (isCtor(fn) || sync.fn_serial_context[f])
                continue;
            for (const FieldAccess &a : sync.fn_accesses[f]) {
                const SyncContract c = sync.contractOf(a.cls, a.field);
                if (c.kind == SyncContract::Kind::GuardedBy) {
                    const std::set<std::string> eff =
                        effective(sync, f, a.held, a.released);
                    if (!eff.count(c.arg))
                        out.push_back(
                            {kRuleSyncGuarded, fn.file, a.line,
                             "field '" + qualName(a.cls, a.field) +
                                 "' is guarded_by(" + c.arg + ") but " +
                                 (a.write ? "written" : "read") +
                                 " with lockset " + renderSet(eff) +
                                 "; hold the mutex or mark the enclosing "
                                 "function phase(serial)",
                             0});
                } else if (c.kind == SyncContract::Kind::Phase) {
                    const bool ok =
                        (c.arg == "serial" && sync.fn_serial_context[f]) ||
                        sync.fn_phases[f].count(c.arg);
                    if (!ok)
                        out.push_back(
                            {kRuleSyncGuarded, fn.file, a.line,
                             "field '" + qualName(a.cls, a.field) +
                                 "' is phase(" + c.arg +
                                 ")-confined but accessed from a function "
                                 "not provably in that phase; mark the "
                                 "function // dbsim-analyze: phase(" +
                                 c.arg + ") or change the contract",
                             0});
                }
            }
        }
    }

    void
    requiresViolation()
    {
        const SyncIndex &sync = ctx.sync;
        for (std::size_t g = 0; g < ctx.decls.functions.size(); ++g) {
            if (sync.fn_serial_context[g])
                continue;
            const FunctionDef &caller = ctx.decls.functions[g];
            for (const CallSiteInfo &site : sync.fn_calls[g]) {
                const std::set<std::string> eff =
                    effective(sync, g, site.held, site.released);
                // Dedup per (callee name, mutex) at one site: overload
                // over-approximation must not multiply findings.
                std::set<std::string> reported;
                for (int f : site.targets) {
                    if (f == static_cast<int>(g))
                        continue;
                    const FunctionDef &callee = ctx.decls.functions[f];
                    for (const std::string &m : sync.fn_requires[f]) {
                        if (eff.count(m))
                            continue;
                        const std::string key = callee.name + "\t" + m;
                        if (!reported.insert(key).second)
                            continue;
                        const std::string callee_name =
                            callee.cls.empty()
                                ? callee.name
                                : callee.cls + "::" + callee.name;
                        out.push_back(
                            {kRuleSyncRequires, caller.file, site.line,
                             "call to '" + callee_name + "' requires(" +
                                 m + ") but the caller's lockset is " +
                                 renderSet(eff) +
                                 "; acquire the mutex first or mark this "
                                 "caller phase(serial)",
                             0});
                    }
                }
            }
        }
    }

    void
    lockOrder()
    {
        const SyncIndex &sync = ctx.sync;
        // Acquisition-order edges a -> b: mutex b acquired while a is in
        // the effective lockset.  First occurrence wins for anchoring.
        std::map<std::pair<std::string, std::string>,
                 std::pair<std::string, int>>
            edges;
        for (std::size_t f = 0; f < ctx.decls.functions.size(); ++f) {
            const FunctionDef &fn = ctx.decls.functions[f];
            for (const AcquireInfo &ev : sync.fn_acquires[f]) {
                std::set<std::string> before = sync.fn_entry[f];
                before.insert(ev.held_before.begin(),
                              ev.held_before.end());
                if (before.count(ev.mutex)) {
                    out.push_back(
                        {kRuleSyncLockOrder, fn.file, ev.line,
                         "mutex '" + ev.mutex +
                             "' acquired while already held (lockset " +
                             renderSet(before) +
                             "): recursive acquisition of a "
                             "non-recursive mutex deadlocks",
                         0});
                    continue;
                }
                for (const std::string &a : before)
                    edges.try_emplace({a, ev.mutex}, fn.file, ev.line);
            }
        }
        // Cycle = mutual reachability.  Group mutexes into components
        // and report each once, anchored at its lexically-first edge.
        std::map<std::string, std::set<std::string>> adj;
        std::set<std::string> nodes;
        for (const auto &[e, loc] : edges) {
            adj[e.first].insert(e.second);
            nodes.insert(e.first);
            nodes.insert(e.second);
        }
        auto reaches = [&](const std::string &from,
                           const std::string &to) {
            std::set<std::string> seen{from};
            std::vector<std::string> stack{from};
            while (!stack.empty()) {
                const std::string n = stack.back();
                stack.pop_back();
                for (const std::string &m : adj[n]) {
                    if (m == to)
                        return true;
                    if (seen.insert(m).second)
                        stack.push_back(m);
                }
            }
            return false;
        };
        std::set<std::string> done;
        for (const std::string &a : nodes) {
            if (done.count(a))
                continue;
            std::set<std::string> comp{a};
            for (const std::string &b : nodes)
                if (b != a && reaches(a, b) && reaches(b, a))
                    comp.insert(b);
            if (comp.size() < 2)
                continue;
            done.insert(comp.begin(), comp.end());
            // Anchor: smallest (file, line) among intra-component edges.
            std::string file;
            int line = 0;
            for (const auto &[e, loc] : edges) {
                if (!comp.count(e.first) || !comp.count(e.second))
                    continue;
                if (file.empty() || std::tie(loc.first, loc.second) <
                                        std::tie(file, line)) {
                    file = loc.first;
                    line = loc.second;
                }
            }
            out.push_back(
                {kRuleSyncLockOrder, file, line,
                 "lock-acquisition-order cycle between mutexes " +
                     renderSet(comp) +
                     ": two threads taking them in opposite orders "
                     "deadlock; pick one global order (DESIGN.md §5j)",
                 0});
        }
    }

    void
    atomicRmw()
    {
        const SyncIndex &sync = ctx.sync;
        for (std::size_t f = 0; f < ctx.decls.functions.size(); ++f) {
            const FunctionDef &fn = ctx.decls.functions[f];
            if (isCtor(fn))
                continue;
            for (const FieldAccess &a : sync.fn_accesses[f]) {
                const SyncContract c = sync.contractOf(a.cls, a.field);
                if (c.kind != SyncContract::Kind::Atomic || !a.rmw)
                    continue;
                const FieldDecl &fd =
                    ctx.decls.classes[a.cls].fields[a.field];
                const bool atomic_type =
                    std::find(fd.type_idents.begin(), fd.type_idents.end(),
                              "atomic") != fd.type_idents.end();
                if (!atomic_type)
                    out.push_back(
                        {kRuleSyncAtomicRmw, fn.file, a.line,
                         "read-modify-write on '" +
                             qualName(a.cls, a.field) +
                             "' which is marked atomic but not declared "
                             "std::atomic: the load and store can "
                             "interleave; change the type",
                         0});
                else if (a.rmw_assign)
                    out.push_back(
                        {kRuleSyncAtomicRmw, fn.file, a.line,
                         "'" + qualName(a.cls, a.field) +
                             " = ...' re-reads the atomic field in a "
                             "separate load: use += / fetch_add / "
                             "compare_exchange for a single atomic RMW",
                         0});
            }
        }
    }
};

} // namespace

void
runSyncRules(const PassContext &ctx, std::vector<RawFinding> &out)
{
    SyncPass pass{ctx, out};
    pass.guardedAccess();
    pass.requiresViolation();
    pass.lockOrder();
    pass.atomicRmw();
}

} // namespace dbsim::analyze
