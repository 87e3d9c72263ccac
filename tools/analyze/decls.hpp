/**
 * @file
 * Declaration index for dbsim-analyze: classes with their member fields
 * and methods, plus every function *definition* (free, member, inline or
 * out-of-line) with its body's token range.
 *
 * This is a best-effort symbol layer on top of the flat token stream --
 * no templates instantiated, no overload resolution, no name lookup
 * beyond bare-name matching.  It is exactly strong enough for the
 * call-graph rule families (hot-path lint, counter-reachability, sync
 * contracts), which are designed to degrade gracefully: ambiguous
 * names over-approximate or are skipped, never crash.
 */

#ifndef DBSIM_TOOLS_ANALYZE_DECLS_HPP
#define DBSIM_TOOLS_ANALYZE_DECLS_HPP

#include <map>
#include <string>
#include <vector>

#include "corpus.hpp"

namespace dbsim::analyze {

/** One non-static data member. */
struct FieldDecl
{
    std::string name;
    int line = 0;      ///< declarator line
    int decl_line = 0; ///< first line of the declaration statement
    int end_line = 0;  ///< line of the terminating ';' (>= line)
    /// Identifier tokens of the declared type: a field of type
    /// `std::vector<Entry>` yields {std, vector, Entry}.
    std::vector<std::string> type_idents;
};

/** One member-function declaration (definition or not). */
struct MethodDecl
{
    std::string name;
    int line = 0;
    int decl_line = 0; ///< first line of the declaration statement
    int end_line = 0;  ///< line of the terminating ';' or body '{'
    bool is_virtual = false; ///< declared with the `virtual` keyword
};

/** One class/struct declaration with a body. */
struct ClassDecl
{
    std::string name;      ///< bare name
    std::string qualified; ///< Outer::Inner for nested classes
    std::string file;      ///< rel path of the declaring file
    int line = 0;
    int file_idx = -1;     ///< index into Corpus::files
    std::vector<std::string> bases; ///< bare base-class names
    std::vector<FieldDecl> fields;
    std::vector<MethodDecl> methods;
};

/** One function definition (has a body). */
struct FunctionDef
{
    std::string cls;  ///< bare class name, "" for free functions
    std::string name; ///< bare function name
    std::string file; ///< rel path of the defining file
    int line = 0;      ///< line of the function name
    int decl_line = 0; ///< first line of the definition statement
                       ///< (return type may sit on an earlier line)
    int end_line = 0;  ///< line of the body-opening '{'
    int file_idx = -1;          ///< index into Corpus::files
    std::size_t body_begin = 0; ///< first token index inside the body
    std::size_t body_end = 0;   ///< token index of the closing '}'
};

struct DeclIndex
{
    std::vector<ClassDecl> classes;
    std::vector<FunctionDef> functions;
    /// Bare name -> indices (a vector: bare names may collide, e.g.
    /// nested `Entry` structs; consumers decide how to disambiguate).
    std::map<std::string, std::vector<int>> class_by_name;
    std::map<std::string, std::vector<int>> fn_by_name;
};

/** Scan all corpus files and build the declaration index. */
void buildDecls(const Corpus &corpus, DeclIndex &out);

/**
 * Resolve a bare class name used inside `from` (a class index, or -1
 * for free code): the enclosing class's nested class of that name wins,
 * then a corpus-unique bare name.  Returns -1 when absent or ambiguous.
 */
int resolveClass(const DeclIndex &d, int from, const std::string &name);

} // namespace dbsim::analyze

#endif // DBSIM_TOOLS_ANALYZE_DECLS_HPP
