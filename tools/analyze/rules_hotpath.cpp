/**
 * @file
 * Tick-path performance lint (DESIGN.md §5h).
 *
 * The paper's measurements come from simulating billions of references;
 * anything on the per-reference tick path runs hot.  These rules scan
 * only *tick-reachable* function bodies (call graph, see callgraph.hpp)
 * for the four classic slow-path habits:
 *
 *   hotpath-allocation  heap allocation (new/make_unique/malloc) or a
 *                       local owning container constructed per call
 *   hotpath-map-lookup  find/count/at/operator[] on a map-typed
 *                       variable (tree walk or hash per reference)
 *   hotpath-virtual     a `virtual`-declared method whose name is
 *                       called from tick-reachable code
 *   hotpath-string      string construction/formatting on the tick path
 *
 * Deliberate occurrences carry an inline allow() with the reason the
 * cost is acceptable (slow path inside a hot function, warm-up only,
 * etc.); the rest are bugs worth fixing.
 */

#include <set>
#include <string>

#include "rules.hpp"

namespace dbsim::analyze {

namespace {

bool
isMapType(const std::string &s)
{
    return s == "map" || s == "unordered_map" || s == "multimap" ||
           s == "unordered_multimap";
}

bool
isOwningContainer(const std::string &s)
{
    return s == "vector" || s == "deque" || s == "list" || s == "set" ||
           s == "multiset" || s == "unordered_set" || isMapType(s);
}

bool
isMapLookupMethod(const std::string &s)
{
    return s == "find" || s == "count" || s == "at" ||
           s == "lower_bound" || s == "upper_bound" ||
           s == "equal_range" || s == "contains";
}

/// Skip a balanced `<...>` group starting at `i` (which must be '<').
/// Returns the index just past the matching '>', or `i` when the
/// brackets don't balance within the statement (comparison operator).
std::size_t
skipAngles(const std::vector<Token> &t, std::size_t i)
{
    int depth = 0;
    for (std::size_t k = i; k < t.size() && k < i + 64; ++k) {
        if (t[k].kind != Tok::Punct)
            continue;
        if (t[k].text == "<")
            ++depth;
        else if (t[k].text == ">" && --depth == 0)
            return k + 1;
        else if (t[k].text == ">>" && (depth -= 2) <= 0)
            return k + 1;
        else if (t[k].text == ";")
            break;
    }
    return i;
}

/// Collect every variable/member name declared with a map type anywhere
/// in the corpus (fields and locals alike; bare-name matching).
void
collectMapVars(const Corpus &c, std::set<std::string> &out)
{
    for (const SourceFile &f : c.files) {
        const std::vector<Token> &t = f.tokens;
        for (std::size_t i = 0; i + 1 < t.size(); ++i) {
            if (t[i].kind != Tok::Ident || !isMapType(t[i].text) ||
                t[i + 1].text != "<")
                continue;
            std::size_t k = skipAngles(t, i + 1);
            if (k == i + 1)
                continue;
            while (k < t.size() && (t[k].text == "&" || t[k].text == "*" ||
                                    t[k].text == "const"))
                ++k;
            if (k < t.size() && t[k].kind == Tok::Ident &&
                k + 1 < t.size() &&
                (t[k + 1].text == ";" || t[k + 1].text == "=" ||
                 t[k + 1].text == "{" || t[k + 1].text == ","))
                out.insert(t[k].text);
        }
    }
}

void
checkBody(const PassContext &ctx, const FunctionDef &fn,
          const std::set<std::string> &map_vars,
          std::vector<RawFinding> &out)
{
    const SourceFile &f = ctx.corpus.files[fn.file_idx];
    const std::vector<Token> &t = f.tokens;
    const std::string where =
        " in tick-reachable '" +
        (fn.cls.empty() ? fn.name : fn.cls + "::" + fn.name) + "'";

    for (std::size_t i = fn.body_begin; i < fn.body_end && i < t.size();
         ++i) {
        if (t[i].kind != Tok::Ident)
            continue;
        const std::string &s = t[i].text;
        const std::string next = i + 1 < t.size() ? t[i + 1].text : "";

        // --- hotpath-allocation -------------------------------------
        if (s == "new" || ((s == "make_unique" || s == "make_shared" ||
                            s == "malloc" || s == "calloc") &&
                           next == "(")) {
            out.push_back({kRuleHotpathAlloc, f.rel, t[i].line,
                           "heap allocation ('" + s + "')" + where +
                               ": allocate at setup time or pool it "
                               "(every simulated reference pays for it)",
                           0});
            continue;
        }
        if (isOwningContainer(s) && next == "<") {
            const std::size_t k = skipAngles(t, i + 1);
            if (k != i + 1 && k < t.size() && t[k].kind == Tok::Ident &&
                (i == 0 || t[i - 1].text != "const") &&
                (k == 0 || t[k - 1].text != "&")) {
                out.push_back(
                    {kRuleHotpathAlloc, f.rel, t[i].line,
                     "local '" + s + "' constructed per call" + where +
                         ": hoist it to a member scratch buffer and "
                         "clear() it instead",
                     0});
                continue;
            }
        }

        // --- hotpath-map-lookup -------------------------------------
        if (map_vars.count(s)) {
            // Method-style lookup: var.find(...) / var->at(...).
            if ((next == "." || next == "->") && i + 2 < t.size() &&
                t[i + 2].kind == Tok::Ident &&
                isMapLookupMethod(t[i + 2].text) && i + 3 < t.size() &&
                t[i + 3].text == "(") {
                out.push_back(
                    {kRuleHotpathMapLookup, f.rel, t[i].line,
                     "map lookup '" + s + "." + t[i + 2].text + "()'" +
                         where + ": hoist it out of the per-reference "
                                 "path or cache the iterator",
                     0});
                continue;
            }
            // Subscript lookup (also inserts on a miss).
            if (next == "[" && i > 0 && t[i - 1].text != "]" &&
                t[i - 1].text != ")") {
                out.push_back(
                    {kRuleHotpathMapLookup, f.rel, t[i].line,
                     "map subscript '" + s + "[...]'" + where +
                         ": a hash/tree walk (and possible insert) per "
                         "reference; hoist or restructure",
                     0});
                continue;
            }
        }

        // --- hotpath-string -----------------------------------------
        if ((s == "to_string" && next == "(") || s == "ostringstream" ||
            s == "stringstream") {
            out.push_back({kRuleHotpathString, f.rel, t[i].line,
                           "string formatting ('" + s + "')" + where +
                               ": move it off the tick path or mark the "
                               "function cold(<reason>)",
                           0});
            continue;
        }
        if (s == "string" && next != "" && i + 1 < t.size() &&
            t[i + 1].kind == Tok::Ident && i > 0 &&
            t[i - 1].text != "const" &&
            (i < 2 || t[i - 2].text != "const")) {
            out.push_back({kRuleHotpathString, f.rel, t[i].line,
                           "local std::string constructed per call" +
                               where + ": every simulated reference "
                                       "pays an allocation",
                           0});
            continue;
        }
    }
}

void
checkVirtualDispatch(const PassContext &ctx, std::vector<RawFinding> &out)
{
    for (const ClassDecl &cd : ctx.decls.classes) {
        for (const MethodDecl &m : cd.methods) {
            if (!m.is_virtual || m.name.empty() || m.name[0] == '~')
                continue;
            if (!ctx.graph.tick_called_names.count(m.name))
                continue;
            out.push_back(
                {kRuleHotpathVirtual, cd.file, m.line,
                 "virtual method '" + cd.name + "::" + m.name +
                     "' is dispatched from tick-reachable code: an "
                     "indirect branch per call defeats the out-of-order "
                     "front end being modeled; devirtualize or allow() "
                     "with the design reason",
                 0});
        }
    }
}

} // namespace

void
runHotpathRules(const PassContext &ctx, std::vector<RawFinding> &out)
{
    if (!ctx.graph.hasRoots())
        return; // no tick path in this corpus

    std::set<std::string> map_vars;
    collectMapVars(ctx.corpus, map_vars);

    for (std::size_t fi = 0; fi < ctx.decls.functions.size(); ++fi)
        if (ctx.graph.tick_reachable[fi])
            checkBody(ctx, ctx.decls.functions[fi], map_vars, out);

    checkVirtualDispatch(ctx, out);
}

} // namespace dbsim::analyze
