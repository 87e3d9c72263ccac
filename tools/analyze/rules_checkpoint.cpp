/**
 * @file
 * R5: checkpoint-purity.  The checkpoint/restore layer (DESIGN.md §5g)
 * demands that serialized machine state be byte-stable across processes
 * and runs: the bytes feed both the on-disk snapshot format and the
 * epoch FNV state hashes, so anything host-dependent in a serialization
 * body silently breaks restore determinism and divergence bisection.
 *
 * The pass locates the *definitions* of the functions that construct
 * state bytes (saveState, serializeState, stateHash, configSignature --
 * saveCheckpoint is out of scope: it only writes already-serialized
 * bytes to disk, which legitimately needs the ofstream
 * reinterpret_cast idiom) and flags, inside their bodies only:
 *
 *   - reinterpret_cast: host pointer bits written into the stream
 *     (addresses vary run to run under ASLR);
 *   - host-clock reads (steady_clock, gettimeofday, ...): wall-clock
 *     values serialized into supposedly replayable state;
 *   - iteration over an unordered container that does not go through
 *     snap::sortedKeys(): hash-map order differs across processes, so
 *     the same machine state would serialize to different bytes.
 */

#include <set>

#include "rules.hpp"

namespace dbsim::analyze {

namespace {

const std::set<std::string> &
serializerNames()
{
    static const std::set<std::string> kNames = {
        "saveState", "serializeState", "stateHash", "configSignature",
    };
    return kNames;
}

const std::set<std::string> &
wallclockTokens()
{
    static const std::set<std::string> kTokens = {
        "steady_clock",  "system_clock", "high_resolution_clock",
        "gettimeofday",  "clock_gettime", "localtime",
        "gmtime",        "strftime",
    };
    return kTokens;
}

bool
isPunct(const Token &t, const char *text)
{
    return t.kind == Tok::Punct && t.text == text;
}

/**
 * If tokens[i] starts a function *definition* of one of the
 * serializer names, return true and set [body_begin, body_end) to the
 * token range of its braced body.  Declarations (`... saveState(...)
 * ;`) and call sites (`x.saveState(w);`) are left alone.
 */
bool
matchSerializerDefinition(const std::vector<Token> &t, std::size_t i,
                          std::size_t &body_begin, std::size_t &body_end)
{
    if (t[i].kind != Tok::Ident || !serializerNames().count(t[i].text))
        return false;
    // A call site is preceded by `.` or `->`; a definition never is.
    if (i > 0 && (isPunct(t[i - 1], ".") || isPunct(t[i - 1], "->")))
        return false;
    if (i + 1 >= t.size() || !isPunct(t[i + 1], "("))
        return false;

    // Skip the parameter list.
    std::size_t j = i + 1;
    int depth = 0;
    for (; j < t.size(); ++j) {
        if (isPunct(t[j], "("))
            ++depth;
        else if (isPunct(t[j], ")") && --depth == 0)
            break;
    }
    if (j >= t.size())
        return false;

    // Skip trailing qualifiers (const, noexcept, override, ...).
    ++j;
    while (j < t.size() &&
           (t[j].kind == Tok::Ident || isPunct(t[j], "&&")))
        ++j;
    if (j >= t.size() || !isPunct(t[j], "{"))
        return false;

    body_begin = j + 1;
    depth = 1;
    for (std::size_t k = body_begin; k < t.size(); ++k) {
        if (isPunct(t[k], "{"))
            ++depth;
        else if (isPunct(t[k], "}") && --depth == 0) {
            body_end = k;
            return true;
        }
    }
    return false;
}

void
checkBody(const Corpus &c, const SourceFile &f, const std::string &fn,
          std::size_t begin, std::size_t end,
          std::vector<RawFinding> &out)
{
    const std::vector<Token> &t = f.tokens;
    int last_clock_line = 0;
    for (std::size_t i = begin; i < end; ++i) {
        if (t[i].kind != Tok::Ident)
            continue;

        if (t[i].text == "reinterpret_cast") {
            out.push_back(
                {kRuleCheckpointPurity, f.rel, t[i].line,
                 "reinterpret_cast inside " + fn +
                     "(): host pointer bits must never enter "
                     "serialized state (addresses vary run to run)",
                 0});
            continue;
        }

        if (wallclockTokens().count(t[i].text) &&
            t[i].line != last_clock_line) {
            last_clock_line = t[i].line;
            out.push_back(
                {kRuleCheckpointPurity, f.rel, t[i].line,
                 "'" + t[i].text + "' inside " + fn +
                     "(): wall-clock values must never enter "
                     "serialized state (they differ on every run)",
                 0});
            continue;
        }

        // Range-for over an unordered container: only sanctioned when
        // the range expression routes through snap::sortedKeys().
        if (t[i].text == "for" && i + 1 < end && isPunct(t[i + 1], "(")) {
            int depth = 0;
            std::size_t colon = 0, close = 0;
            for (std::size_t j = i + 1; j < end; ++j) {
                if (t[j].kind != Tok::Punct)
                    continue;
                if (t[j].text == "(")
                    ++depth;
                else if (t[j].text == ")" && --depth == 0) {
                    close = j;
                    break;
                } else if (t[j].text == ":" && depth == 1 && colon == 0)
                    colon = j;
                else if (t[j].text == ";" && depth == 1) {
                    colon = 0;
                    break;
                }
            }
            if (!colon || !close)
                continue;
            bool sanctioned = false;
            for (std::size_t j = colon + 1; j < close; ++j)
                if (t[j].kind == Tok::Ident && t[j].text == "sortedKeys")
                    sanctioned = true;
            for (std::size_t j = colon + 1; !sanctioned && j < close;
                 ++j) {
                if (t[j].kind == Tok::Ident &&
                    c.unordered_vars.count(t[j].text)) {
                    out.push_back(
                        {kRuleCheckpointPurity, f.rel, t[i].line,
                         "unsorted iteration over unordered container "
                         "'" +
                             t[j].text + "' inside " + fn +
                             "(): hash-map order differs across "
                             "processes; serialize through "
                             "snap::sortedKeys()",
                         0});
                    break;
                }
            }
            continue;
        }

        // Explicit iterator walk over an unordered container.
        if (c.unordered_vars.count(t[i].text) && i + 2 < end &&
            (isPunct(t[i + 1], ".") || isPunct(t[i + 1], "->")) &&
            t[i + 2].kind == Tok::Ident &&
            (t[i + 2].text == "begin" || t[i + 2].text == "cbegin")) {
            out.push_back(
                {kRuleCheckpointPurity, f.rel, t[i].line,
                 "unsorted iteration over unordered container '" +
                     t[i].text + "' inside " + fn +
                     "(): hash-map order differs across processes; "
                     "serialize through snap::sortedKeys()",
                 0});
        }
    }
}

} // namespace

void
runCheckpointRules(const PassContext &ctx, std::vector<RawFinding> &out)
{
    const Corpus &c = ctx.corpus;
    for (const SourceFile &f : c.files) {
        const std::vector<Token> &t = f.tokens;
        for (std::size_t i = 0; i < t.size(); ++i) {
            std::size_t begin = 0, end = 0;
            if (matchSerializerDefinition(t, i, begin, end)) {
                checkBody(c, f, t[i].text, begin, end, out);
                i = begin; // bodies never nest serializer definitions
            }
        }
    }
}

} // namespace dbsim::analyze
