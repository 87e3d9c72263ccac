/**
 * @file
 * dbsim's JSON: a minimal streaming writer for machine-readable
 * reports, and the one strict reader that reads them back.
 *
 * There is no external JSON dependency in the container.  The writer is
 * a small single-pass emitter: objects, arrays, strings (fully
 * escaped), and numbers, with deterministic formatting -- identical
 * inputs produce byte-identical documents, which the sweep determinism
 * contract (DESIGN.md) relies on.  The reader (parseJson) accepts full
 * JSON and flattens it to dotted-path scalars; it is how a resumed
 * sweep validates its journal lines and how dbsim-fuzz loads a repro
 * file.
 */

#ifndef DBSIM_CORE_JSON_WRITER_HPP
#define DBSIM_CORE_JSON_WRITER_HPP

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace dbsim::core {

/**
 * Escape @p s for inclusion inside a JSON string literal (quotes not
 * included): backslash, double quote, and control characters below
 * 0x20 (the common ones as two-character escapes, the rest as \\u00XX).
 * Non-ASCII bytes pass through untouched (the document is UTF-8).
 */
std::string jsonEscape(std::string_view s);

/**
 * Streaming JSON writer with an explicit nesting stack.
 *
 * Usage:
 *   JsonWriter w(os);
 *   w.beginObject().key("name").value("fig2").key("rows").beginArray();
 *   ... w.endArray().endObject();
 *
 * Structural misuse (a key outside an object, a bare value where a key
 * is required, unbalanced end calls) throws std::logic_error -- bench
 * code paths are simple enough that this is a programming error, not a
 * runtime condition.
 */
class JsonWriter
{
  public:
    /** @param indent spaces per nesting level (0 = compact one-line). */
    explicit JsonWriter(std::ostream &os, int indent = 2);

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit an object key; must be inside an object, before a value. */
    JsonWriter &key(std::string_view k);

    JsonWriter &value(std::string_view v);
    JsonWriter &value(const char *v) { return value(std::string_view(v)); }
    JsonWriter &value(bool v);
    JsonWriter &value(double v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(std::uint32_t v) { return value(std::uint64_t{v}); }
    JsonWriter &value(std::int32_t v) { return value(std::int64_t{v}); }
    JsonWriter &valueNull();

    /**
     * Emit @p json verbatim in value position (comma/indent bookkeeping
     * still applies).  The caller vouches that @p json is one complete,
     * well-formed JSON value; the writer only rejects an empty string.
     * This is how the sweep reporter splices journaled result lines --
     * rendered by this same writer in an earlier process, and checked
     * by parseJson() when the journal was loaded -- into a resumed
     * report byte for byte.
     */
    JsonWriter &rawValue(std::string_view json);

    /** key(k) + value(v) in one call. */
    template <typename T>
    JsonWriter &
    kv(std::string_view k, const T &v)
    {
        key(k);
        return value(v);
    }

    /** True once the root value is complete and the stack is empty. */
    bool done() const { return root_done_ && stack_.empty(); }

  private:
    enum class Frame : std::uint8_t { Object, Array };

    void beforeValue();   ///< comma / newline / indent bookkeeping
    void beforeNested();  ///< beforeValue() for container openers
    void newlineIndent();

    std::ostream &os_;
    int indent_;
    struct Level
    {
        Frame frame;
        std::size_t count = 0;   ///< members/elements emitted so far
        bool key_pending = false; ///< object: key emitted, value due
    };
    std::vector<Level> stack_;
    bool root_done_ = false;
    bool warned_nonfinite_ = false; ///< one NaN/Inf warning per document
};

/** One scalar of a parsed JSON document. */
struct JsonScalar
{
    enum class Kind : std::uint8_t {
        String,   ///< text holds the decoded string
        Unsigned, ///< a plain unsigned integer; value holds it
        Number,   ///< any other number; text holds it as written
        Bool,     ///< text is "true" or "false"
        Null,
    };
    Kind kind = Kind::Null;
    std::string text;
    std::uint64_t value = 0;
};

/**
 * A JSON document flattened to its scalars, keyed by dotted path: the
 * member "b" of the top-level object "a" is "a.b", and element 2 of the
 * array "xs" is "xs.2".  Empty objects and arrays leave no entry.
 */
struct JsonScalars
{
    std::map<std::string, JsonScalar> values;

    /** The string at @p path, or nullptr when absent or not a string. */
    const std::string *stringAt(const std::string &path) const;
    /** True when @p path exists (with any kind of value). */
    bool has(const std::string &path) const { return values.count(path) > 0; }
};

/** Nesting limit of parseJson(): deeper documents are rejected. */
constexpr int kJsonMaxDepth = 32;

/**
 * Parse @p text as exactly one JSON value (RFC 8259: objects, arrays,
 * strings with every escape -- \uXXXX, surrogate pairs included,
 * decodes to UTF-8 -- numbers, true/false/null) into @p out.  Strict:
 * trailing bytes, raw control characters in strings, leading zeros,
 * nesting deeper than kJsonMaxDepth and a path that occurs twice are
 * errors, and an unsigned integer too large for 64 bits is an error
 * rather than a wrapped value.  Returns false with *err (when non-null)
 * naming the byte offset of the problem.
 */
bool parseJson(std::string_view text, JsonScalars *out,
               std::string *err = nullptr);

} // namespace dbsim::core

#endif // DBSIM_CORE_JSON_WRITER_HPP
