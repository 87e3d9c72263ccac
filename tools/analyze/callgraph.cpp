#include "callgraph.hpp"

#include <algorithm>
#include <deque>

namespace dbsim::analyze {

namespace {

bool
isCallKeyword(const std::string &s)
{
    return s == "if" || s == "for" || s == "while" || s == "switch" ||
           s == "return" || s == "sizeof" || s == "alignof" ||
           s == "catch" || s == "throw" || s == "assert" ||
           s == "static_assert" || s == "decltype" || s == "noexcept" ||
           s == "defined" || s == "alignas";
}

/// Split a "Class::method" root spec.
std::pair<std::string, std::string>
splitRoot(const std::string &spec)
{
    const std::size_t sep = spec.find("::");
    return {spec.substr(0, sep), spec.substr(sep + 2)};
}

} // namespace

const std::vector<std::string> &
tickRoots()
{
    static const std::vector<std::string> kRoots = {
        "System::run",        "Core::tick",
        "Node::dataAccess",   "Node::instrFetch",
        "Node::flushHint",    "CoherenceFabric::read",
        "CoherenceFabric::write", "Scheduler::pickNext",
    };
    return kRoots;
}

const std::set<std::string> &
coldFunctionNames()
{
    static const std::set<std::string> kCold = {
        // checkpoint/serialization layer (off the measured path; the
        // golden epoch hashes guard its bytes)
        "saveState", "restoreState", "serializeState",
        "deserializeState", "stateHash", "configSignature",
        "saveCheckpoint", "restoreCheckpoint",
        // diagnostics / reporting / lifecycle boundaries
        "machineStateDump", "progressLine", "debugString", "validate",
        "heldLocks", "resetStats", "finalizeStats",
    };
    return kCold;
}

bool
isCallSite(const std::vector<Token> &t, std::size_t i)
{
    if (t[i].kind != Tok::Ident || i + 1 >= t.size() ||
        t[i + 1].text != "(")
        return false;
    if (isCallKeyword(t[i].text))
        return false;
    return true;
}

void
buildCallGraph(const Corpus &corpus, const DeclIndex &decls, CallGraph &out)
{
    const std::size_t n = decls.functions.size();
    out.callees.assign(n, {});
    out.tick_reachable.assign(n, false);
    out.cold.assign(n, false);

    // Cold classification.
    for (std::size_t fi = 0; fi < n; ++fi) {
        const FunctionDef &fn = decls.functions[fi];
        if (coldFunctionNames().count(fn.name) || fn.name[0] == '~') {
            out.cold[fi] = true;
            continue;
        }
        const SourceFile &sf = corpus.files[fn.file_idx];
        for (int l = fn.decl_line; l <= fn.line && !out.cold[fi]; ++l)
            if (sf.cold_marks.count(l))
                out.cold[fi] = true;
    }

    // Edges, name-resolved.
    for (std::size_t fi = 0; fi < n; ++fi) {
        const FunctionDef &fn = decls.functions[fi];
        const std::vector<Token> &t =
            corpus.files[fn.file_idx].tokens;
        std::set<int> edges;
        auto addByName = [&](const std::string &name,
                             const std::string &cls) {
            const auto it = decls.fn_by_name.find(name);
            if (it == decls.fn_by_name.end())
                return;
            for (int ci : it->second)
                if (cls.empty() || decls.functions[ci].cls == cls)
                    edges.insert(ci);
        };
        for (std::size_t i = fn.body_begin;
             i < fn.body_end && i < t.size(); ++i) {
            if (isCallSite(t, i)) {
                std::string cls;
                if (i >= 2 && t[i - 1].text == "::" &&
                    t[i - 2].kind == Tok::Ident)
                    cls = t[i - 2].text;
                addByName(t[i].text, cls);
                continue;
            }
            // Member-function pointer: &Class::name or a bare &name
            // handed somewhere (callback registration).
            if (t[i].kind == Tok::Punct && t[i].text == "&" &&
                i + 1 < t.size() && t[i + 1].kind == Tok::Ident) {
                std::size_t j = i + 1;
                std::string cls;
                if (j + 2 < t.size() && t[j + 1].text == "::" &&
                    t[j + 2].kind == Tok::Ident) {
                    cls = t[j].text;
                    j += 2;
                }
                if (j + 1 >= t.size() || t[j + 1].text != "(")
                    if (decls.fn_by_name.count(t[j].text))
                        addByName(t[j].text, cls);
            }
        }
        out.callees[fi].assign(edges.begin(), edges.end());
    }

    // Roots.
    for (const std::string &spec : tickRoots()) {
        const auto [cls, name] = splitRoot(spec);
        const auto it = decls.fn_by_name.find(name);
        if (it == decls.fn_by_name.end())
            continue;
        for (int fi : it->second)
            if (decls.functions[fi].cls == cls)
                out.roots.push_back(fi);
    }

    // BFS, stopping at cold functions.
    std::deque<int> queue;
    for (int r : out.roots) {
        if (!out.cold[r] && !out.tick_reachable[r]) {
            out.tick_reachable[r] = true;
            queue.push_back(r);
        }
    }
    while (!queue.empty()) {
        const int fi = queue.front();
        queue.pop_front();
        for (int ci : out.callees[fi]) {
            if (out.cold[ci] || out.tick_reachable[ci])
                continue;
            out.tick_reachable[ci] = true;
            queue.push_back(ci);
        }
    }

    // Names called from tick-reachable bodies (virtual-dispatch lint).
    for (std::size_t fi = 0; fi < n; ++fi) {
        if (!out.tick_reachable[fi])
            continue;
        const FunctionDef &fn = decls.functions[fi];
        const std::vector<Token> &t =
            corpus.files[fn.file_idx].tokens;
        for (std::size_t i = fn.body_begin;
             i < fn.body_end && i < t.size(); ++i)
            if (isCallSite(t, i))
                out.tick_called_names.insert(t[i].text);
    }
}

} // namespace dbsim::analyze
