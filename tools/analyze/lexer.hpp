/**
 * @file
 * Lightweight C++ lexer for dbsim-analyze.
 *
 * This is not a compiler front end: it produces a flat token stream per
 * translation unit, plus the preprocessor directives and the inline
 * suppression comments, which is exactly what the rule passes need.
 * Comments and string/char literals are handled precisely (so rules
 * never match inside them), but no preprocessing or name lookup is
 * performed.
 */

#ifndef DBSIM_TOOLS_ANALYZE_LEXER_HPP
#define DBSIM_TOOLS_ANALYZE_LEXER_HPP

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace dbsim::analyze {

enum class Tok : unsigned char {
    Ident,   ///< identifier or keyword
    Number,  ///< numeric literal (pp-number)
    String,  ///< string literal, text is the *contents* (no quotes)
    Char,    ///< character literal, text is the contents
    Punct,   ///< operator / punctuator, multi-char ops kept together
};

struct Token
{
    Tok kind;
    std::string text;
    int line; ///< 1-based
};

/// One #include directive, with the raw target path.
struct IncludeDirective
{
    std::string target;
    int line;
    bool angled; ///< <...> rather than "..."
};

/// Any preprocessor directive (keyword + untokenized remainder).
struct PpDirective
{
    std::string keyword; ///< e.g. "ifndef", "define", "include"
    std::string rest;    ///< remainder of the logical line, trimmed
    int line;
};

/**
 * A lexed source file.  `allows` maps a source line to the set of rule
 * ids suppressed on that line via `// dbsim-analyze: allow(rule, ...)`.
 * A suppression comment applies to the line it shares with code, or --
 * when it stands alone -- to the next line that has code.
 *
 * `cold_marks` carries the reachability annotation consumed by the
 * call-graph rule families:
 *     // dbsim-analyze: cold(<reason>)     on a function definition
 * with the same same-line-or-next-code-line placement as allow().  The
 * reason text may not contain ')'.
 *
 * The structured concurrency-contract marks (DESIGN.md §5j) use the
 * same placement, one mark per `dbsim-analyze:` clause:
 *     // dbsim-analyze: guarded_by(<mutex-member>)  field: held for R/W
 *     // dbsim-analyze: atomic                      field: std::atomic
 *     // dbsim-analyze: phase(<name>)               field/function: only
 *                                                   reachable in <name>
 *                                                   phase (e.g. serial)
 *     // dbsim-analyze: requires(<m>[, <m>...])     function: caller must
 *                                                   hold these mutexes
 *
 * Placement: a mark sharing a line with code binds to that line.  A
 * standalone mark comment binds to the next line with code, and -- when
 * it appears *inside* a declaration that spans multiple lines (the
 * statement is still open) -- also to the last code line before it, so
 * multi-line declarations never silently detach their annotations.
 * allow() keeps the original next-code-line-only placement, since its
 * suppression scope is line-anchored.
 */
struct SourceFile
{
    std::string rel;  ///< path relative to the corpus root, '/'-separated
    std::vector<Token> tokens;
    std::vector<IncludeDirective> includes;
    std::vector<PpDirective> directives;
    std::map<int, std::set<std::string>> allows;
    std::map<int, std::string> cold_marks;    ///< line -> reason
    std::map<int, std::string> guarded_marks; ///< line -> mutex member
    std::set<int> atomic_marks;               ///< lines marked atomic
    std::map<int, std::string> phase_marks;   ///< line -> phase name
    std::map<int, std::set<std::string>> requires_marks; ///< line -> mutexes
    int last_line = 0;

    bool isHeader() const;
    /// First path component of rel ("sim" for "sim/system.hpp"), or ""
    /// for files that live directly in the corpus root.
    std::string dir() const;
};

SourceFile lexSource(std::string rel, std::string_view text);

} // namespace dbsim::analyze

#endif // DBSIM_TOOLS_ANALYZE_LEXER_HPP
