/**
 * @file
 * R2: stats-accounting rules.  The paper reproduction lives and dies by
 * its counters, so every integral field of a *Stats struct must be both
 * updated somewhere (else the report silently shows zeros) and consumed
 * somewhere (else the model collects data nobody checks), and switches
 * over enum classes (the stall taxonomy above all) must stay exhaustive
 * as enumerators are added.
 */

#include <algorithm>
#include <map>
#include <set>

#include "rules.hpp"

namespace dbsim::analyze {

bool
isWriteContext(const std::vector<Token> &t, std::size_t i)
{
    const std::string prev = i > 0 ? t[i - 1].text : std::string();

    // Prefix ++/-- applies through the whole access chain
    // (`++stats_.cycles` puts the operator before the object), so walk
    // back over `obj.` / `obj->` pairs first.
    std::size_t j = i;
    while (j >= 2 && t[j - 1].kind == Tok::Punct &&
           (t[j - 1].text == "." || t[j - 1].text == "->") &&
           t[j - 2].kind == Tok::Ident)
        j -= 2;
    if (j >= 1 && (t[j - 1].text == "++" || t[j - 1].text == "--"))
        return true;

    // Forward: skip subscripts (`cycles[cat] += n`) to the operator.
    std::size_t k = i + 1;
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
    const std::string next = k < t.size() ? t[k].text : std::string();
    if (next == "++" || next == "--")
        return true;
    if (next == "+=" || next == "-=" || next == "*=" || next == "/=" ||
        next == "|=" || next == "&=" || next == "^=")
        return true;
    // Plain assignment counts as a write only through member access, so
    // the field's own declaration (`std::uint64_t hits = 0;`) doesn't.
    if (next == "=" && (prev == "." || prev == "->"))
        return true;
    return false;
}

namespace {

struct Usage
{
    bool written = false;
    bool read = false;
};

void
classifyUsage(const SourceFile &f, const std::set<std::string> &names,
              const std::map<std::string, std::pair<std::string, int>> &decl,
              std::map<std::string, Usage> &usage)
{
    const std::vector<Token> &t = f.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != Tok::Ident || !names.count(t[i].text))
            continue;
        // Skip the declaration site itself.
        const auto d = decl.find(t[i].text);
        if (d != decl.end() && d->second.first == f.rel &&
            d->second.second == t[i].line)
            continue;
        Usage &u = usage[t[i].text];
        if (isWriteContext(t, i))
            u.written = true;
        else
            u.read = true;
    }
}

void
checkCounterCoverage(const Corpus &c, std::vector<RawFinding> &out)
{
    // Field names across all *Stats structs; a name that collides
    // across structs is classified jointly, which errs toward silence
    // (both structs' usages vouch for it) -- acceptable for a linter.
    std::set<std::string> names;
    std::map<std::string, std::pair<std::string, int>> decl;
    for (const Corpus::StatsStruct &s : c.stats_structs)
        for (const Corpus::CounterField &fld : s.fields) {
            names.insert(fld.name);
            decl.emplace(fld.name, std::make_pair(s.file_rel, fld.line));
        }
    if (names.empty())
        return;

    std::map<std::string, Usage> usage;
    for (const SourceFile &f : c.files)
        classifyUsage(f, names, decl, usage);
    for (const SourceFile &f : c.usage_files)
        classifyUsage(f, names, decl, usage);

    for (const Corpus::StatsStruct &s : c.stats_structs) {
        for (const Corpus::CounterField &fld : s.fields) {
            const Usage u = usage.count(fld.name) ? usage.at(fld.name)
                                                  : Usage{};
            if (!u.written)
                out.push_back({kRuleCounterCoverage, s.file_rel, fld.line,
                               "counter '" + s.name + "::" + fld.name +
                                   "' is never incremented or assigned: "
                                   "the report will always show zero "
                                   "(wire it up or remove it)",
                               0});
            else if (!u.read)
                out.push_back({kRuleCounterCoverage, s.file_rel, fld.line,
                               "counter '" + s.name + "::" + fld.name +
                                   "' is updated but never serialized or "
                                   "read: dead accounting (report it or "
                                   "remove it)",
                               0});
        }
    }
}

bool
isSentinelEnumerator(const std::string &name)
{
    // kCount / Count / kNumFoo style array-sizing sentinels are not
    // real cases.
    if (name == "kCount" || name == "Count" || name == "COUNT")
        return true;
    if (name.size() > 5 && name.compare(name.size() - 5, 5, "Count") == 0)
        return true;
    return name.rfind("kNum", 0) == 0;
}

void
checkSwitches(const Corpus &c, const SourceFile &f,
              std::vector<RawFinding> &out)
{
    const std::vector<Token> &t = f.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != Tok::Ident || t[i].text != "switch" ||
            i + 1 >= t.size() || t[i + 1].text != "(")
            continue;
        // Skip the condition, find the body.
        std::size_t j = i + 1;
        int depth = 0;
        for (; j < t.size(); ++j) {
            if (t[j].kind != Tok::Punct)
                continue;
            if (t[j].text == "(")
                ++depth;
            else if (t[j].text == ")" && --depth == 0)
                break;
        }
        for (++j; j < t.size() && t[j].text != "{"; ++j)
            ;
        if (j >= t.size())
            continue;

        // Walk the body at depth 1, collecting qualified case labels
        // and default.
        std::string enum_name;
        bool mixed = false, has_default = false;
        std::set<std::string> used;
        depth = 0;
        for (; j < t.size(); ++j) {
            const Token &tk = t[j];
            if (tk.kind == Tok::Punct) {
                if (tk.text == "{" && ++depth)
                    continue;
                if (tk.text == "}" && --depth == 0)
                    break;
                continue;
            }
            if (depth != 1 || tk.kind != Tok::Ident)
                continue;
            if (tk.text == "default") {
                has_default = true;
                continue;
            }
            if (tk.text != "case")
                continue;
            // Parse `Qual::...::Enumerator` up to ':'.
            std::vector<std::string> chain;
            std::size_t k = j + 1;
            while (k + 1 < t.size() && t[k].kind == Tok::Ident &&
                   t[k + 1].text == "::") {
                chain.push_back(t[k].text);
                k += 2;
            }
            if (k < t.size() && t[k].kind == Tok::Ident &&
                k + 1 < t.size() && t[k + 1].text == ":" &&
                !chain.empty()) {
                used.insert(t[k].text);
                const std::string &en = chain.back();
                if (enum_name.empty())
                    enum_name = en;
                else if (enum_name != en)
                    mixed = true;
            } else if (!chain.empty() || k >= t.size() ||
                       t[k].kind != Tok::Ident) {
                mixed = true; // expression label we can't model
            } else {
                mixed = true; // unqualified label (classic enum)
            }
            j = k;
        }

        if (mixed || has_default || enum_name.empty())
            continue;
        const auto it = c.enums.find(enum_name);
        if (it == c.enums.end() || it->second.ambiguous)
            continue;
        std::vector<std::string> missing;
        for (const std::string &e : it->second.enumerators)
            if (!used.count(e) && !isSentinelEnumerator(e))
                missing.push_back(e);
        if (missing.empty())
            continue;
        std::string list;
        for (std::size_t m = 0; m < missing.size(); ++m)
            list += (m ? ", " : "") + missing[m];
        out.push_back({kRuleSwitchExhaustive, f.rel, t[i].line,
                       "switch over '" + enum_name +
                           "' has no default and misses enumerator(s): " +
                           list +
                           " (handle them or add an accounted default)",
                       0});
    }
}

/**
 * Interprocedural counter-reachability: a counter that is updated, but
 * only in functions the tick path can never reach (and that are not
 * explicitly cold), is dead accounting -- the measured run reports a
 * value the model never produces.  Counters with no write site at all
 * are checkCounterCoverage's business; counters updated in cold code
 * (checkpoint restore, verification layers) are accepted.
 */
void
checkCounterReachability(const PassContext &ctx,
                         std::vector<RawFinding> &out)
{
    const Corpus &c = ctx.corpus;
    if (!ctx.graph.hasRoots())
        return; // reachability is undefined without tick roots

    struct Sites
    {
        bool any = false;
        bool tick = false;
        bool cold = false;
    };
    std::map<std::string, Sites> sites;
    for (const Corpus::StatsStruct &s : c.stats_structs)
        for (const Corpus::CounterField &fld : s.fields)
            sites[fld.name];

    for (std::size_t fi = 0; fi < ctx.decls.functions.size(); ++fi) {
        const FunctionDef &fn = ctx.decls.functions[fi];
        const std::vector<Token> &t = c.files[fn.file_idx].tokens;
        for (std::size_t i = fn.body_begin;
             i < fn.body_end && i < t.size(); ++i) {
            if (t[i].kind != Tok::Ident)
                continue;
            const auto it = sites.find(t[i].text);
            if (it == sites.end() || !isWriteContext(t, i))
                continue;
            it->second.any = true;
            if (ctx.graph.tick_reachable[fi])
                it->second.tick = true;
            if (ctx.graph.cold[fi])
                it->second.cold = true;
        }
    }

    for (const Corpus::StatsStruct &s : c.stats_structs) {
        for (const Corpus::CounterField &fld : s.fields) {
            const Sites &st = sites.at(fld.name);
            if (!st.any || st.tick || st.cold)
                continue;
            out.push_back(
                {kRuleCounterReach, s.file_rel, fld.line,
                 "counter '" + s.name + "::" + fld.name +
                     "' is updated only in code unreachable from the "
                     "tick path: the measured run never produces it "
                     "(move the increment, or mark the updater with "
                     "// dbsim-analyze: cold(<reason>))",
                 0});
        }
    }
}

} // namespace

void
runAccountingRules(const PassContext &ctx, std::vector<RawFinding> &out)
{
    checkCounterCoverage(ctx.corpus, out);
    for (const SourceFile &f : ctx.corpus.files)
        checkSwitches(ctx.corpus, f, out);
    checkCounterReachability(ctx, out);
}

} // namespace dbsim::analyze
