#include "decls.hpp"

#include <algorithm>

namespace dbsim::analyze {

namespace {

/// Advance `i` past a balanced {...} run; `i` points at '{' on entry.
void
skipBraces(const std::vector<Token> &t, std::size_t &i)
{
    int depth = 0;
    for (; i < t.size(); ++i) {
        if (t[i].kind != Tok::Punct)
            continue;
        if (t[i].text == "{")
            ++depth;
        else if (t[i].text == "}" && --depth == 0) {
            ++i;
            return;
        }
    }
}

bool
isTypeKeyword(const std::string &s)
{
    return s == "std" || s == "const" || s == "mutable" ||
           s == "volatile" || s == "constexpr" || s == "inline" ||
           s == "unsigned" || s == "signed" || s == "short" ||
           s == "long" || s == "int" || s == "char" || s == "bool" ||
           s == "auto" || s == "double" || s == "float" || s == "void" ||
           s == "struct" || s == "class" || s == "enum" ||
           s == "typename" || s == "explicit";
}

bool
isAccessSpecifier(const std::string &s)
{
    return s == "public" || s == "private" || s == "protected";
}

/// Statement-local view: the token indices accumulated since the last
/// statement boundary, resolved against the file's token vector.
struct Stmt
{
    const std::vector<Token> &t;
    const std::vector<std::size_t> &idx;

    std::size_t size() const { return idx.size(); }
    const Token &operator[](std::size_t k) const { return t[idx[k]]; }

    bool
    contains(const std::string &text) const
    {
        for (std::size_t k : idx)
            if (t[k].text == text)
                return true;
        return false;
    }
};

/**
 * Locate the parameter-list '(' of a function-ish statement: the first
 * '(' directly preceded by an identifier.  Returns the statement index
 * of that '(' or npos.
 */
std::size_t
paramParen(const Stmt &s)
{
    for (std::size_t k = 1; k < s.size(); ++k)
        if (s[k].kind == Tok::Punct && s[k].text == "(" &&
            s[k - 1].kind == Tok::Ident)
            return k;
    return std::string::npos;
}

/// Statement index one past the ')' matching the '(' at `open`, or
/// s.size() when unbalanced.
std::size_t
closeOfParen(const Stmt &s, std::size_t open)
{
    int depth = 0;
    for (std::size_t k = open; k < s.size(); ++k) {
        if (s[k].kind != Tok::Punct)
            continue;
        if (s[k].text == "(")
            ++depth;
        else if (s[k].text == ")" && --depth == 0)
            return k + 1;
    }
    return s.size();
}

struct CallableInfo
{
    bool valid = false;
    std::string name;
    std::string cls; ///< from a Qual::name qualifier ("" if none)
    int line = 0;
    bool is_virtual = false;
    std::size_t params_end = 0; ///< statement index past the ')'
    bool has_init_list = false; ///< ctor ':' after the parameter list
};

CallableInfo
parseCallable(const Stmt &s)
{
    CallableInfo out;
    const std::size_t p = paramParen(s);
    if (p == std::string::npos)
        return out;
    const Token &nm = s[p - 1];
    if (nm.text == "operator" || nm.text.empty())
        return out; // operator overloads: uncallable by bare name
    out.name = nm.text;
    out.line = nm.line;
    if (p >= 3 && s[p - 2].text == "::" && s[p - 3].kind == Tok::Ident)
        out.cls = s[p - 3].text;
    if (p >= 2 && s[p - 2].text == "~")
        out.name = "~" + out.name; // destructor
    out.is_virtual = s.contains("virtual");
    out.params_end = closeOfParen(s, p);
    for (std::size_t k = out.params_end; k < s.size(); ++k) {
        if (s[k].kind == Tok::Punct && s[k].text == "->")
            break; // trailing return type: stop scanning qualifiers
        if (s[k].kind == Tok::Punct && s[k].text == ":") {
            out.has_init_list = true;
            break;
        }
    }
    out.valid = true;
    return out;
}

/**
 * Parse a field declaration statement (no parentheses) into the class.
 * Declarator names are identifiers directly followed by '=', ',' or the
 * statement end, considered only before the first '='.
 */
void
parseFields(const Stmt &s, ClassDecl &cls, int end_line)
{
    if (s.size() == 0)
        return;
    for (std::size_t k = 0; k < s.size(); ++k) {
        const std::string &w = s[k].text;
        if (s[k].kind == Tok::Ident &&
            (w == "using" || w == "typedef" || w == "friend" ||
             w == "static" || w == "template" || w == "enum"))
            return;
    }
    std::size_t first_eq = s.size();
    for (std::size_t k = 0; k < s.size(); ++k)
        if (s[k].kind == Tok::Punct && s[k].text == "=") {
            first_eq = k;
            break;
        }

    std::vector<std::size_t> declarators;
    for (std::size_t k = 0; k < first_eq; ++k) {
        if (s[k].kind != Tok::Ident || isTypeKeyword(s[k].text))
            continue;
        const bool at_end = k + 1 == s.size();
        const std::string next = at_end ? std::string(";") : s[k + 1].text;
        if (next == "=" || next == "," || next == ";")
            declarators.push_back(k);
    }
    if (declarators.empty())
        return;

    std::vector<std::string> type_idents;
    for (std::size_t k = 0; k < first_eq; ++k) {
        if (s[k].kind != Tok::Ident || isTypeKeyword(s[k].text))
            continue;
        if (std::find(declarators.begin(), declarators.end(), k) !=
            declarators.end())
            continue;
        type_idents.push_back(s[k].text);
    }
    for (std::size_t k : declarators) {
        FieldDecl f;
        f.name = s[k].text;
        f.line = s[k].line;
        f.decl_line = s[0].line;
        f.end_line = end_line;
        f.type_idents = type_idents;
        cls.fields.push_back(std::move(f));
    }
}

/// Parse base-class names out of a class-head statement, given the
/// statement index of the class name.
std::vector<std::string>
parseBases(const Stmt &s, std::size_t name_idx)
{
    std::vector<std::string> bases;
    std::size_t k = name_idx + 1;
    while (k < s.size() && s[k].text != ":")
        ++k;
    if (k >= s.size())
        return bases;
    int angle = 0;
    for (++k; k < s.size(); ++k) {
        if (s[k].kind == Tok::Punct) {
            if (s[k].text == "<")
                ++angle;
            else if (s[k].text == ">")
                --angle;
            else if (s[k].text == ">>")
                angle -= 2;
            continue;
        }
        if (angle > 0 || s[k].kind != Tok::Ident)
            continue;
        const std::string &w = s[k].text;
        if (isAccessSpecifier(w) || w == "virtual" || w == "final")
            continue;
        // `coher::CacheSite`: skip the qualifier, keep the last part.
        if (k + 1 < s.size() && s[k + 1].text == "::")
            continue;
        bases.push_back(w);
    }
    return bases;
}

void
scanFile(const SourceFile &f, int file_idx, DeclIndex &out)
{
    const std::vector<Token> &t = f.tokens;
    struct Scope
    {
        bool is_class;
        int class_idx; ///< index into out.classes (-1 for namespaces)
    };
    std::vector<Scope> scopes;
    std::vector<std::size_t> stmt_idx;
    std::size_t i = 0;

    auto currentClass = [&]() -> int {
        return scopes.empty() || !scopes.back().is_class
                   ? -1
                   : scopes.back().class_idx;
    };

    while (i < t.size()) {
        const Token &tk = t[i];

        if (tk.kind == Tok::Punct && tk.text == "}") {
            if (!scopes.empty())
                scopes.pop_back();
            stmt_idx.clear();
            ++i;
            if (i < t.size() && t[i].text == ";")
                ++i;
            continue;
        }
        if (tk.kind == Tok::Punct && tk.text == ";") {
            const Stmt s{t, stmt_idx};
            const int ci = currentClass();
            if (ci >= 0 && s.size() > 0) {
                if (s.contains("(")) {
                    const CallableInfo info = parseCallable(s);
                    if (info.valid && info.name[0] != '~' &&
                        info.cls.empty())
                        out.classes[ci].methods.push_back(
                            {info.name, info.line,
                             s.size() > 0 ? s[0].line : info.line,
                             tk.line, info.is_virtual});
                } else {
                    parseFields(s, out.classes[ci], tk.line);
                }
            }
            stmt_idx.clear();
            ++i;
            continue;
        }
        if (tk.kind == Tok::Punct && tk.text == ":" &&
            stmt_idx.size() == 1 && t[stmt_idx[0]].kind == Tok::Ident &&
            isAccessSpecifier(t[stmt_idx[0]].text)) {
            stmt_idx.clear();
            ++i;
            continue;
        }
        if (tk.kind == Tok::Punct && tk.text == "{") {
            const Stmt s{t, stmt_idx};
            if (s.contains("namespace") && !s.contains("(")) {
                scopes.push_back({false, -1});
                stmt_idx.clear();
                ++i;
                continue;
            }
            if (s.contains("enum")) {
                skipBraces(t, i);
                stmt_idx.clear();
                continue;
            }
            if (s.contains("(")) {
                // Function-ish.  A ctor member brace-initializer
                // (`: v_{1, 2} {`) is distinguished from the body: the
                // initializer's '{' directly follows an identifier.
                const CallableInfo info = parseCallable(s);
                if (info.valid && info.has_init_list && s.size() > 0 &&
                    s[s.size() - 1].kind == Tok::Ident) {
                    skipBraces(t, i);
                    // Keep the initializer's closing '}' in the
                    // statement so the *next* '{' (preceded by '}' or
                    // ')') is recognized as the body.
                    if (i > 0)
                        stmt_idx.push_back(i - 1);
                    continue;
                }
                const std::size_t body_open = i;
                skipBraces(t, i);
                if (info.valid && info.name[0] != '~') {
                    FunctionDef fn;
                    fn.cls = info.cls;
                    const int ci = currentClass();
                    if (fn.cls.empty() && ci >= 0)
                        fn.cls = out.classes[ci].name;
                    fn.name = info.name;
                    fn.file = f.rel;
                    fn.line = info.line;
                    fn.decl_line = s.size() > 0 ? s[0].line : info.line;
                    fn.end_line = t[body_open].line;
                    fn.file_idx = file_idx;
                    fn.body_begin = body_open + 1;
                    fn.body_end = i > 0 ? i - 1 : 0;
                    out.functions.push_back(std::move(fn));
                    if (ci >= 0 && info.cls.empty())
                        out.classes[ci].methods.push_back(
                            {info.name, info.line,
                             s.size() > 0 ? s[0].line : info.line,
                             t[body_open].line, info.is_virtual});
                }
                stmt_idx.clear();
                continue;
            }
            // Class head?
            std::size_t kw = s.size();
            for (std::size_t k = 0; k < s.size(); ++k)
                if (s[k].kind == Tok::Ident &&
                    (s[k].text == "class" || s[k].text == "struct" ||
                     s[k].text == "union"))
                    kw = k;
            if (kw != s.size() && kw + 1 < s.size() &&
                s[kw + 1].kind == Tok::Ident) {
                ClassDecl cd;
                cd.name = s[kw + 1].text;
                const int ci = currentClass();
                cd.qualified = ci >= 0
                                   ? out.classes[ci].name + "::" + cd.name
                                   : cd.name;
                cd.file = f.rel;
                cd.line = s[kw + 1].line;
                cd.file_idx = file_idx;
                cd.bases = parseBases(s, kw + 1);
                out.classes.push_back(std::move(cd));
                scopes.push_back(
                    {true, static_cast<int>(out.classes.size()) - 1});
                stmt_idx.clear();
                ++i;
                continue;
            }
            // Brace initializer of a member (`T x{0};`): consume the
            // braces, keep the statement until its ';'.  Anything else
            // (anonymous struct, array init) is skipped the same way.
            skipBraces(t, i);
            if (currentClass() < 0)
                stmt_idx.clear();
            continue;
        }
        stmt_idx.push_back(i);
        ++i;
    }
}

} // namespace

void
buildDecls(const Corpus &corpus, DeclIndex &out)
{
    for (std::size_t i = 0; i < corpus.files.size(); ++i)
        scanFile(corpus.files[i], static_cast<int>(i), out);
    for (std::size_t i = 0; i < out.classes.size(); ++i)
        out.class_by_name[out.classes[i].name].push_back(
            static_cast<int>(i));
    for (std::size_t i = 0; i < out.functions.size(); ++i)
        out.fn_by_name[out.functions[i].name].push_back(
            static_cast<int>(i));
}

int
resolveClass(const DeclIndex &d, int from, const std::string &name)
{
    const auto it = d.class_by_name.find(name);
    if (it == d.class_by_name.end())
        return -1;
    if (from >= 0) {
        const std::string nested = d.classes[from].name + "::" + name;
        for (int ci : it->second)
            if (d.classes[ci].qualified == nested)
                return ci;
    }
    if (it->second.size() == 1)
        return it->second[0];
    return -1; // ambiguous bare name: degrade by not resolving
}

} // namespace dbsim::analyze
