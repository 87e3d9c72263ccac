#include "locksets.hpp"

#include <algorithm>

#include "rules.hpp"

namespace dbsim::analyze {

namespace {

bool
isGuardType(const std::string &s)
{
    return s == "lock_guard" || s == "scoped_lock" || s == "unique_lock" ||
           s == "shared_lock";
}

/// Tag arguments that never name a mutex.
bool
isGuardTag(const std::string &s)
{
    return s == "std" || s == "defer_lock" || s == "adopt_lock" ||
           s == "try_to_lock";
}

/// Last identifier of each top-level argument of the guard constructor:
/// `lk(mu_)` -> {mu_}, `lk(other.mu_)` -> {mu_}, `lk(a_, b_)` -> {a_, b_}.
/// `k` points at the opening '(' or '{' and is left on the matching
/// close.  Sets `deferred` when std::defer_lock appears.
std::vector<std::string>
parseGuardArgs(const std::vector<Token> &t, std::size_t &k, bool &deferred)
{
    std::vector<std::string> mutexes;
    deferred = false;
    int depth = 0;
    std::string last;
    auto flush = [&] {
        if (!last.empty())
            mutexes.push_back(last);
        last.clear();
    };
    for (; k < t.size(); ++k) {
        const Token &x = t[k];
        if (x.kind == Tok::Punct) {
            if (x.text == "(" || x.text == "{" || x.text == "[") {
                ++depth;
                continue;
            }
            if (x.text == ")" || x.text == "}" || x.text == "]") {
                if (--depth == 0) {
                    flush();
                    return mutexes;
                }
                continue;
            }
            if (x.text == "," && depth == 1) {
                flush();
                continue;
            }
            continue;
        }
        if (x.kind == Tok::Ident) {
            if (x.text == "defer_lock")
                deferred = true;
            if (!isGuardTag(x.text))
                last = x.text;
        }
    }
    flush();
    return mutexes;
}

/// True when the statement containing token `i` sits in a braceless
/// conditional context (`if (x) mu_.lock();`): scan back to the previous
/// statement boundary for a flow keyword.  Braced conditionals need no
/// special case -- scope exit already drops their acquisitions.
bool
inConditionalStmt(const std::vector<Token> &t, std::size_t begin,
                  std::size_t i)
{
    for (std::size_t k = i; k-- > begin;) {
        if (t[k].kind == Tok::Punct &&
            (t[k].text == ";" || t[k].text == "{" || t[k].text == "}"))
            return false;
        if (t[k].kind == Tok::Punct && t[k].text == "?")
            return true;
        if (t[k].kind == Tok::Ident &&
            (t[k].text == "if" || t[k].text == "else" ||
             t[k].text == "while" || t[k].text == "for" ||
             t[k].text == "case" || t[k].text == "do"))
            return true;
    }
    return false;
}

/// Resolve the class a member function belongs to.  Unlike the bare
/// resolveClass (which degrades on ambiguous names), a definition knows
/// its own file: when several classes share the bare name, the one
/// declared in the same file wins -- two TUs may each have a local
/// helper class of the same name.
int
resolveOwnClass(const DeclIndex &d, const std::string &cls, int file_idx)
{
    const auto it = d.class_by_name.find(cls);
    if (it == d.class_by_name.end())
        return -1;
    if (it->second.size() == 1)
        return it->second[0];
    int same_file = -1;
    int hits = 0;
    for (int ci : it->second)
        if (d.classes[ci].file_idx == file_idx) {
            same_file = ci;
            ++hits;
        }
    return hits == 1 ? same_file : -1;
}

/// Own class plus its base chain (single inheritance is all the repo
/// uses), as class indices.
std::vector<int>
ownChain(const DeclIndex &d, const std::string &cls, int file_idx)
{
    std::vector<int> own;
    if (cls.empty())
        return own;
    int ci = resolveOwnClass(d, cls, file_idx);
    std::set<int> seen;
    while (ci >= 0 && seen.insert(ci).second) {
        own.push_back(ci);
        int next = -1;
        for (const std::string &b : d.classes[ci].bases) {
            next = resolveClass(d, ci, b);
            break;
        }
        ci = next;
    }
    return own;
}

int
fieldOfClass(const DeclIndex &d, int ci, const std::string &name)
{
    const ClassDecl &cd = d.classes[ci];
    for (std::size_t fi = 0; fi < cd.fields.size(); ++fi)
        if (cd.fields[fi].name == name)
            return static_cast<int>(fi);
    return -1;
}

/// Name-resolved call targets, exactly like the call graph's addByName.
std::vector<int>
resolveTargets(const DeclIndex &d, const std::string &name,
               const std::string &cls)
{
    std::vector<int> out;
    const auto it = d.fn_by_name.find(name);
    if (it == d.fn_by_name.end())
        return out;
    for (int ci : it->second)
        if (cls.empty() || d.functions[ci].cls == cls)
            out.push_back(ci);
    return out;
}

bool
isCompound(const std::string &s)
{
    return s == "+=" || s == "-=" || s == "*=" || s == "/=" ||
           s == "|=" || s == "&=" || s == "^=" || s == "<<=" ||
           s == ">>=";
}

/// Index just past the member chain starting at `i`: subscript groups
/// and plain `.x` / `->x` subobject hops (not calls).
std::size_t
chainEnd(const std::vector<Token> &t, std::size_t i)
{
    std::size_t k = i + 1;
    for (int hops = 0; hops < 16; ++hops) {
        while (k < t.size() && t[k].text == "[") {
            int depth = 0;
            for (; k < t.size(); ++k) {
                if (t[k].kind != Tok::Punct)
                    continue;
                if (t[k].text == "[")
                    ++depth;
                else if (t[k].text == "]" && --depth == 0) {
                    ++k;
                    break;
                }
            }
        }
        if (k + 1 < t.size() && (t[k].text == "." || t[k].text == "->") &&
            t[k + 1].kind == Tok::Ident &&
            !(k + 2 < t.size() && t[k + 2].text == "(")) {
            k += 2;
            continue;
        }
        break;
    }
    return k;
}

/// Read-modify-write shape at the member reference `i`: 0 = none,
/// 1 = ++/-- (either side) or compound assignment, 2 = `f = ...f...`
/// self-referential assignment within the statement (a separate load +
/// store even on a std::atomic field).
int
rmwShape(const std::vector<Token> &t, std::size_t i, std::size_t body_end)
{
    if (i > 0 && (t[i - 1].text == "++" || t[i - 1].text == "--"))
        return 1;
    const std::size_t k = chainEnd(t, i);
    if (k >= t.size())
        return 0;
    const std::string &nx = t[k].text;
    if (nx == "++" || nx == "--" || isCompound(nx))
        return 1;
    if (nx == "=") {
        int depth = 0;
        for (std::size_t j = k + 1; j < t.size() && j < body_end; ++j) {
            if (t[j].kind == Tok::Punct) {
                if (t[j].text == "(" || t[j].text == "[")
                    ++depth;
                else if (t[j].text == ")" || t[j].text == "]")
                    --depth;
                else if (t[j].text == ";" && depth <= 0)
                    break;
                continue;
            }
            if (t[j].kind == Tok::Ident && t[j].text == t[i].text)
                return 2;
        }
    }
    return 0;
}

SyncContract
markAt(const SourceFile &sf, int line)
{
    SyncContract c;
    const auto g = sf.guarded_marks.find(line);
    if (g != sf.guarded_marks.end()) {
        c.kind = SyncContract::Kind::GuardedBy;
        c.arg = g->second;
        return c;
    }
    if (sf.atomic_marks.count(line)) {
        c.kind = SyncContract::Kind::Atomic;
        return c;
    }
    const auto p = sf.phase_marks.find(line);
    if (p != sf.phase_marks.end()) {
        c.kind = SyncContract::Kind::Phase;
        c.arg = p->second;
        return c;
    }
    return c;
}

/// Walk one function body recording accesses, call sites and
/// acquisitions together with the evolving function-local lockset.
struct BodyWalker
{
    const Corpus &corpus;
    const DeclIndex &decls;
    const std::map<std::string, std::vector<std::pair<int, int>>>
        &field_owner;

    void
    walk(std::size_t fn_idx, SyncIndex &out) const
    {
        const FunctionDef &fn = decls.functions[fn_idx];
        const std::vector<Token> &t = corpus.files[fn.file_idx].tokens;
        const std::vector<int> own =
            ownChain(decls, fn.cls, fn.file_idx);

        struct Held
        {
            std::string mutex;
            int depth;
        };
        std::vector<Held> held;
        std::set<std::string> released; // unlocked beyond local holds
        std::map<std::string, std::vector<std::string>> guard_mutexes;
        std::map<std::string, int> guard_depth;
        int depth = 0;

        auto curSet = [&] {
            std::set<std::string> s;
            for (const Held &h : held)
                s.insert(h.mutex);
            return s;
        };
        auto acquire = [&](const std::string &m, int d, int line,
                           bool provable) {
            out.fn_acquires[fn_idx].push_back({m, line, curSet()});
            if (provable) {
                held.push_back({m, d});
                released.erase(m);
            }
        };
        auto release = [&](const std::string &m) {
            held.erase(std::remove_if(held.begin(), held.end(),
                                      [&](const Held &h) {
                                          return h.mutex == m;
                                      }),
                       held.end());
            released.insert(m);
        };

        for (std::size_t i = fn.body_begin; i < fn.body_end && i < t.size();
             ++i) {
            const Token &tk = t[i];
            if (tk.kind == Tok::Punct) {
                if (tk.text == "{") {
                    ++depth;
                } else if (tk.text == "}") {
                    --depth;
                    held.erase(std::remove_if(held.begin(), held.end(),
                                              [&](const Held &h) {
                                                  return h.depth > depth;
                                              }),
                               held.end());
                }
                continue;
            }
            if (tk.kind != Tok::Ident)
                continue;

            // RAII guard declaration (not a member access to a field
            // that happens to share a guard-type name).
            if (isGuardType(tk.text) &&
                !(i > 0 &&
                  (t[i - 1].text == "." || t[i - 1].text == "->"))) {
                std::size_t j = i + 1;
                if (j < t.size() && t[j].kind == Tok::Punct &&
                    t[j].text == "<") {
                    int a = 0;
                    for (; j < t.size(); ++j) {
                        if (t[j].kind != Tok::Punct)
                            continue;
                        if (t[j].text == "<") {
                            ++a;
                        } else if (t[j].text == ">") {
                            if (--a <= 0) {
                                ++j;
                                break;
                            }
                        } else if (t[j].text == ">>") {
                            a -= 2;
                            if (a <= 0) {
                                ++j;
                                break;
                            }
                        }
                    }
                }
                if (j < t.size() && t[j].kind == Tok::Ident &&
                    !isGuardTag(t[j].text) && j + 1 < t.size() &&
                    (t[j + 1].text == "(" || t[j + 1].text == "{")) {
                    const std::string var = t[j].text;
                    std::size_t k = j + 1;
                    bool deferred = false;
                    const std::vector<std::string> mutexes =
                        parseGuardArgs(t, k, deferred);
                    guard_mutexes[var] = mutexes;
                    guard_depth[var] = depth;
                    if (!deferred)
                        for (const std::string &m : mutexes)
                            acquire(m, depth, t[j].line, true);
                    i = k; // resume after the constructor arguments
                    continue;
                }
                continue;
            }

            // <receiver>.lock() / .unlock() / .try_lock(): receiver is a
            // tracked guard variable or a mutex name.
            if ((tk.text == "lock" || tk.text == "unlock" ||
                 tk.text == "try_lock") &&
                i >= 2 &&
                (t[i - 1].text == "." || t[i - 1].text == "->") &&
                t[i - 2].kind == Tok::Ident && i + 1 < t.size() &&
                t[i + 1].text == "(") {
                const std::string recv = t[i - 2].text;
                const auto gi = guard_mutexes.find(recv);
                if (tk.text == "lock") {
                    const bool provable =
                        !inConditionalStmt(t, fn.body_begin, i);
                    if (gi != guard_mutexes.end()) {
                        for (const std::string &m : gi->second)
                            acquire(m, guard_depth[recv], tk.line,
                                    provable);
                    } else {
                        acquire(recv, depth, tk.line, provable);
                    }
                } else if (tk.text == "unlock") {
                    if (gi != guard_mutexes.end())
                        for (const std::string &m : gi->second)
                            release(m);
                    else
                        release(recv);
                }
                // try_lock: may fail, never provably held.
                continue;
            }

            if (isCallSite(t, i)) {
                std::string cls;
                if (i >= 2 && t[i - 1].text == "::" &&
                    t[i - 2].kind == Tok::Ident)
                    cls = t[i - 2].text;
                std::vector<int> targets =
                    resolveTargets(decls, tk.text, cls);
                if (!targets.empty())
                    out.fn_calls[fn_idx].push_back({std::move(targets),
                                                    tk.line, curSet(),
                                                    released});
                continue;
            }

            // Member reference: unqualified / this-> against the
            // own-class chain, other receivers only when the field name
            // is corpus-unique.
            const bool member_access =
                i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->");
            int ci = -1, fi = -1;
            if (member_access) {
                const bool via_this = i >= 2 && t[i - 2].text == "this";
                if (via_this) {
                    for (int oc : own)
                        if ((fi = fieldOfClass(decls, oc, tk.text)) >= 0) {
                            ci = oc;
                            break;
                        }
                } else {
                    const auto it = field_owner.find(tk.text);
                    if (it != field_owner.end() &&
                        it->second.size() == 1) {
                        ci = it->second[0].first;
                        fi = it->second[0].second;
                    }
                }
            } else {
                for (int oc : own)
                    if ((fi = fieldOfClass(decls, oc, tk.text)) >= 0) {
                        ci = oc;
                        break;
                    }
            }
            if (ci < 0 || fi < 0)
                continue;
            FieldAccess a;
            a.cls = ci;
            a.field = fi;
            a.line = tk.line;
            a.write = isWriteContext(t, i);
            if (!a.write) {
                // Unqualified `field_ = ...` inside a body is a write;
                // isWriteContext excludes it only to skip declarations
                // (`int field_ = 0`), recognizable by the preceding
                // type name.
                const std::size_t ce = chainEnd(t, i);
                if (ce < t.size() && t[ce].text == "=" &&
                    !(i > 0 && t[i - 1].kind == Tok::Ident))
                    a.write = true;
            }
            const int rmw = rmwShape(t, i, fn.body_end);
            a.rmw = rmw != 0;
            a.rmw_assign = rmw == 2;
            a.held = curSet();
            a.released = released;
            out.fn_accesses[fn_idx].push_back(std::move(a));
        }
    }
};

void
intersectInto(std::set<std::string> &dst, const std::set<std::string> &src)
{
    for (auto it = dst.begin(); it != dst.end();) {
        if (!src.count(*it))
            it = dst.erase(it);
        else
            ++it;
    }
}

} // namespace

SyncContract
SyncIndex::contractOf(int ci, int fi) const
{
    const auto it = field_contract.find({ci, fi});
    return it == field_contract.end() ? SyncContract{} : it->second;
}

SyncContract
fieldSyncContract(const Corpus &corpus, const DeclIndex &decls, int ci,
                  const FieldDecl &fd)
{
    const ClassDecl &cd = decls.classes[ci];
    if (cd.file_idx < 0)
        return {};
    const SourceFile &sf = corpus.files[cd.file_idx];
    const int last = std::max(fd.line, fd.end_line);
    for (int l = fd.decl_line; l <= last; ++l) {
        const SyncContract c = markAt(sf, l);
        if (c.structured())
            return c;
    }
    return markAt(sf, cd.line);
}

void
buildSyncIndex(const Corpus &corpus, const DeclIndex &decls,
               const CallGraph &graph, SyncIndex &out)
{
    (void)graph;
    const std::size_t n = decls.functions.size();
    out.fn_requires.assign(n, {});
    out.fn_phases.assign(n, {});
    out.fn_phase_serial.assign(n, false);
    out.fn_serial_context.assign(n, false);
    out.fn_address_taken.assign(n, false);
    out.fn_entry.assign(n, {});
    out.fn_accesses.assign(n, {});
    out.fn_calls.assign(n, {});
    out.fn_acquires.assign(n, {});

    // Field contracts.
    std::map<std::string, std::vector<std::pair<int, int>>> field_owner;
    for (std::size_t ci = 0; ci < decls.classes.size(); ++ci) {
        const ClassDecl &cd = decls.classes[ci];
        for (std::size_t fi = 0; fi < cd.fields.size(); ++fi) {
            field_owner[cd.fields[fi].name].push_back(
                {static_cast<int>(ci), static_cast<int>(fi)});
            const SyncContract c = fieldSyncContract(
                corpus, decls, static_cast<int>(ci), cd.fields[fi]);
            if (c.structured())
                out.field_contract[{static_cast<int>(ci),
                                    static_cast<int>(fi)}] = c;
        }
    }

    // Function requires / phase marks: the definition's own declaration
    // window, plus matching method declarations in the class and its
    // base chain (so `requires` on a virtual interface seam covers every
    // override).
    auto scanRange = [&](const SourceFile &sf, int from, int to,
                         std::size_t fi) {
        for (int l = from; l <= to; ++l) {
            const auto r = sf.requires_marks.find(l);
            if (r != sf.requires_marks.end())
                out.fn_requires[fi].insert(r->second.begin(),
                                           r->second.end());
            const auto p = sf.phase_marks.find(l);
            if (p != sf.phase_marks.end()) {
                out.fn_phases[fi].insert(p->second);
                if (p->second == "serial")
                    out.fn_phase_serial[fi] = true;
            }
        }
    };
    for (std::size_t fi = 0; fi < n; ++fi) {
        const FunctionDef &fn = decls.functions[fi];
        const SourceFile &sf = corpus.files[fn.file_idx];
        scanRange(sf, fn.decl_line, std::max(fn.line, fn.end_line), fi);
        for (int oc : ownChain(decls, fn.cls, fn.file_idx)) {
            const ClassDecl &cd = decls.classes[oc];
            if (cd.file_idx < 0)
                continue;
            const SourceFile &cf = corpus.files[cd.file_idx];
            for (const MethodDecl &m : cd.methods)
                if (m.name == fn.name)
                    scanRange(cf, m.decl_line,
                              std::max(m.line, m.end_line), fi);
        }
    }

    // Address-taken functions (callback seams): `&name` / `&Cls::name`
    // anywhere in the corpus, matched like the call graph.
    for (const SourceFile &sf : corpus.files) {
        const std::vector<Token> &t = sf.tokens;
        for (std::size_t i = 0; i + 1 < t.size(); ++i) {
            if (!(t[i].kind == Tok::Punct && t[i].text == "&" &&
                  t[i + 1].kind == Tok::Ident))
                continue;
            std::size_t j = i + 1;
            std::string cls;
            if (j + 2 < t.size() && t[j + 1].text == "::" &&
                t[j + 2].kind == Tok::Ident) {
                cls = t[j].text;
                j += 2;
            }
            if (j + 1 < t.size() && t[j + 1].text == "(")
                continue; // a call, not an address
            for (int fi : resolveTargets(decls, t[j].text, cls))
                out.fn_address_taken[fi] = true;
        }
    }

    // Per-body lockset walk.
    const BodyWalker walker{corpus, decls, field_owner};
    for (std::size_t fi = 0; fi < n; ++fi)
        walker.walk(fi, out);

    // Caller lists (over the walked call sites, which mirror the call
    // graph's name resolution).
    std::vector<std::set<int>> callers(n);
    for (std::size_t g = 0; g < n; ++g)
        for (const CallSiteInfo &site : out.fn_calls[g])
            for (int f : site.targets)
                callers[f].insert(static_cast<int>(g));

    // Serial-context fixpoint: marked, or all callers serial and no
    // address taken.  Monotone (flags only flip false -> true).
    out.fn_serial_context = out.fn_phase_serial;
    for (bool changed = true; changed;) {
        changed = false;
        for (std::size_t f = 0; f < n; ++f) {
            if (out.fn_serial_context[f] || out.fn_address_taken[f] ||
                callers[f].empty())
                continue;
            bool all_serial = true;
            for (int g : callers[f])
                if (!out.fn_serial_context[g] &&
                    g != static_cast<int>(f)) {
                    all_serial = false;
                    break;
                }
            if (all_serial) {
                out.fn_serial_context[f] = true;
                changed = true;
            }
        }
    }

    // Entry-lockset fixpoint: entry(f) = requires(f) ∪ meet over every
    // non-serial call site of (caller entry ∪ site-local lockset).
    // Entries only grow from the requires floor, so this terminates at
    // the least fixpoint.
    out.fn_entry = out.fn_requires;
    for (int round = 0; round < 1000; ++round) {
        std::vector<bool> has_caller(n, false);
        std::vector<std::set<std::string>> meet(n);
        for (std::size_t g = 0; g < n; ++g) {
            if (out.fn_serial_context[g])
                continue;
            for (const CallSiteInfo &site : out.fn_calls[g]) {
                std::set<std::string> s = out.fn_entry[g];
                for (const std::string &m : site.released)
                    s.erase(m);
                s.insert(site.held.begin(), site.held.end());
                for (int f : site.targets) {
                    if (f == static_cast<int>(g))
                        continue; // self-recursion never shrinks entry
                    if (!has_caller[f]) {
                        meet[f] = s;
                        has_caller[f] = true;
                    } else {
                        intersectInto(meet[f], s);
                    }
                }
            }
        }
        bool changed = false;
        for (std::size_t f = 0; f < n; ++f) {
            std::set<std::string> e = out.fn_requires[f];
            if (has_caller[f] && !out.fn_address_taken[f])
                e.insert(meet[f].begin(), meet[f].end());
            if (e != out.fn_entry[f]) {
                out.fn_entry[f] = std::move(e);
                changed = true;
            }
        }
        if (!changed)
            break;
    }
}

} // namespace dbsim::analyze
