#include "core/json_writer.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common/log.hpp"
#include "common/parse.hpp"

namespace dbsim::core {

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

JsonWriter::JsonWriter(std::ostream &os, int indent)
    : os_(os), indent_(indent)
{
}

void
JsonWriter::newlineIndent()
{
    if (indent_ <= 0)
        return;
    os_ << '\n';
    for (std::size_t i = 0; i < stack_.size() * indent_; ++i)
        os_ << ' ';
}

void
JsonWriter::beforeValue()
{
    if (stack_.empty()) {
        if (root_done_)
            throw std::logic_error("JsonWriter: multiple root values");
        return;
    }
    Level &top = stack_.back();
    if (top.frame == Frame::Object) {
        if (!top.key_pending)
            throw std::logic_error("JsonWriter: object value without key");
        top.key_pending = false;
    } else {
        if (top.count > 0)
            os_ << ',';
        newlineIndent();
        ++top.count;
    }
}

void
JsonWriter::beforeNested()
{
    beforeValue();
}

JsonWriter &
JsonWriter::key(std::string_view k)
{
    if (stack_.empty() || stack_.back().frame != Frame::Object)
        throw std::logic_error("JsonWriter: key outside an object");
    Level &top = stack_.back();
    if (top.key_pending)
        throw std::logic_error("JsonWriter: key after key");
    if (top.count > 0)
        os_ << ',';
    newlineIndent();
    ++top.count;
    top.key_pending = true;
    os_ << '"' << jsonEscape(k) << "\":";
    if (indent_ > 0)
        os_ << ' ';
    return *this;
}

JsonWriter &
JsonWriter::beginObject()
{
    beforeNested();
    os_ << '{';
    stack_.push_back({Frame::Object});
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    if (stack_.empty() || stack_.back().frame != Frame::Object ||
        stack_.back().key_pending) {
        throw std::logic_error("JsonWriter: mismatched endObject");
    }
    const bool had_members = stack_.back().count > 0;
    stack_.pop_back();
    if (had_members)
        newlineIndent();
    os_ << '}';
    if (stack_.empty())
        root_done_ = true;
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    beforeNested();
    os_ << '[';
    stack_.push_back({Frame::Array});
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    if (stack_.empty() || stack_.back().frame != Frame::Array)
        throw std::logic_error("JsonWriter: mismatched endArray");
    const bool had_elements = stack_.back().count > 0;
    stack_.pop_back();
    if (had_elements)
        newlineIndent();
    os_ << ']';
    if (stack_.empty())
        root_done_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view v)
{
    beforeValue();
    os_ << '"' << jsonEscape(v) << '"';
    if (stack_.empty())
        root_done_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    beforeValue();
    os_ << (v ? "true" : "false");
    if (stack_.empty())
        root_done_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    beforeValue();
    if (std::isnan(v) || std::isinf(v)) {
        // JSON has no NaN/Inf literals; null is the deterministic
        // stand-in (never locale/printf "nan"/"inf" spellings).  Warn
        // once per document -- a non-finite value in a report usually
        // means an upstream rate divided by zero.
        if (!warned_nonfinite_) {
            warned_nonfinite_ = true;
            DBSIM_WARN("JsonWriter: non-finite double (",
                       std::isnan(v) ? "nan" : "inf",
                       ") serialized as null");
        }
        os_ << "null";
    } else {
        // %.17g round-trips every double and formats deterministically
        // -- except that printf honors the global LC_NUMERIC decimal
        // point, so a comma locale would corrupt the document.  Fix the
        // separator back to '.' byte-for-byte.
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        for (char *p = buf; *p; ++p) {
            if (*p == ',')
                *p = '.';
        }
        os_ << buf;
    }
    if (stack_.empty())
        root_done_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    beforeValue();
    os_ << v;
    if (stack_.empty())
        root_done_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    beforeValue();
    os_ << v;
    if (stack_.empty())
        root_done_ = true;
    return *this;
}

JsonWriter &
JsonWriter::valueNull()
{
    beforeValue();
    os_ << "null";
    if (stack_.empty())
        root_done_ = true;
    return *this;
}

JsonWriter &
JsonWriter::rawValue(std::string_view json)
{
    if (json.empty())
        throw std::logic_error("JsonWriter: empty rawValue");
    beforeValue();
    os_ << json;
    if (stack_.empty())
        root_done_ = true;
    return *this;
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

const std::string *
JsonScalars::stringAt(const std::string &path) const
{
    const auto it = values.find(path);
    return it != values.end() && it->second.kind == JsonScalar::Kind::String
               ? &it->second.text
               : nullptr;
}

namespace {

/** A syntax error at byte offset `at` of the document. */
struct JsonSyntaxError
{
    std::size_t at;
    std::string why;
};

void
appendUtf8(std::string &out, std::uint32_t cp)
{
    if (cp < 0x80) {
        out += static_cast<char>(cp);
        return;
    }
    const int tail = cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3; // 10xxxxxx bytes
    out += static_cast<char>(((0xFF00 >> (tail + 1)) & 0xFF) |
                             (cp >> (6 * tail)));
    for (int i = tail - 1; i >= 0; --i)
        out += static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3F));
}

/** Recursive-descent reader; every error throws JsonSyntaxError. */
class JsonReader
{
  public:
    JsonReader(std::string_view text, JsonScalars &out)
        : s_(text), out_(out)
    {
    }

    void
    document()
    {
        value("", 0);
        skipWs();
        if (pos_ != s_.size())
            fail("trailing bytes after the document");
    }

  private:
    [[noreturn]] void
    fail(std::string why) const
    {
        throw JsonSyntaxError{pos_, std::move(why)};
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

    bool
    consume(char c)
    {
        if (peek() != c)
            return false;
        ++pos_;
        return true;
    }

    void
    expect(char c)
    {
        skipWs();
        if (!consume(c))
            fail(std::string("expected '") + c + "'");
    }

    void
    skipWs()
    {
        while (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
               peek() == '\r')
            ++pos_;
    }

    std::size_t
    digits()
    {
        const std::size_t from = pos_;
        while (peek() >= '0' && peek() <= '9')
            ++pos_;
        return pos_ - from;
    }

    void
    value(const std::string &path, int depth)
    {
        skipWs();
        const std::size_t start = pos_;
        const char c = peek();
        if (c == '{' || c == '[') {
            if (depth == kJsonMaxDepth)
                fail("nesting deeper than " + std::to_string(kJsonMaxDepth));
            ++pos_;
            container(path, depth + 1, c == '{' ? '}' : ']');
            return;
        }
        JsonScalar v;
        if (c == '"') {
            v.kind = JsonScalar::Kind::String;
            v.text = string();
        } else if (word("true") || word("false") || word("null")) {
            v.kind = c == 'n' ? JsonScalar::Kind::Null
                              : JsonScalar::Kind::Bool;
            v.text = std::string(s_.substr(start, pos_ - start));
        } else {
            number(v);
        }
        if (!out_.values.emplace(path, std::move(v)).second) {
            pos_ = start;
            fail("duplicate key \"" + path + "\"");
        }
    }

    /** The members of an object (@p close '}') or array (']'). */
    void
    container(const std::string &path, int depth, char close)
    {
        skipWs();
        if (consume(close))
            return;
        for (std::size_t i = 0;; ++i) {
            std::string key = std::to_string(i);
            if (close == '}') {
                skipWs();
                if (peek() != '"')
                    fail("expected a string key");
                key = string();
                expect(':');
            }
            value(path.empty() ? key : path + "." + key, depth);
            skipWs();
            if (!consume(','))
                break;
        }
        expect(close);
    }

    bool
    word(std::string_view w)
    {
        if (s_.substr(pos_, w.size()) != w)
            return false;
        pos_ += w.size();
        return true;
    }

    /** -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? */
    void
    number(JsonScalar &v)
    {
        const std::size_t start = pos_;
        bool plain = !consume('-'); // an unsigned integer so far
        const std::size_t int_digits = digits();
        if (int_digits == 0)
            fail("expected a value");
        if (int_digits > 1 && s_[pos_ - int_digits] == '0')
            fail("leading zero in a number");
        if (consume('.')) {
            plain = false;
            if (digits() == 0)
                fail("expected a digit after '.'");
        }
        if (consume('e') || consume('E')) {
            plain = false;
            if (!consume('+'))
                consume('-');
            if (digits() == 0)
                fail("expected exponent digits");
        }
        v.kind = plain ? JsonScalar::Kind::Unsigned : JsonScalar::Kind::Number;
        v.text = std::string(s_.substr(start, pos_ - start));
        if (!plain)
            return;
        const std::optional<std::uint64_t> u = parseUnsigned(v.text);
        if (!u) {
            pos_ = start;
            fail("integer " + v.text + " does not fit in 64 bits");
        }
        v.value = *u;
    }

    std::uint32_t
    hex4()
    {
        std::uint32_t v = 0;
        const char *p = s_.data() + pos_;
        if (s_.size() - pos_ < 4 ||
            std::from_chars(p, p + 4, v, 16).ptr != p + 4)
            fail("\\u wants four hex digits");
        pos_ += 4;
        return v;
    }

    /** A \uXXXX escape (pos_ just past the 'u'), surrogate pairs joined. */
    std::uint32_t
    codePoint()
    {
        const std::uint32_t hi = hex4();
        if (hi < 0xD800 || hi > 0xDFFF)
            return hi;
        if (hi >= 0xDC00 || s_.substr(pos_, 2) != "\\u")
            fail("unpaired surrogate");
        pos_ += 2;
        const std::uint32_t lo = hex4();
        if (lo < 0xDC00 || lo > 0xDFFF)
            fail("unpaired surrogate");
        return 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
    }

    std::string
    string()
    {
        std::string out;
        for (++pos_;;) { // past the opening quote
            if (pos_ == s_.size())
                fail("unterminated string");
            const char c = s_[pos_];
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control character in a string");
            ++pos_;
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
            } else if (consume('u')) {
                appendUtf8(out, codePoint());
            } else {
                const std::size_t k =
                    std::string_view("\"\\/bfnrt").find(peek());
                if (k == std::string_view::npos)
                    fail("unknown escape");
                out += "\"\\/\b\f\n\r\t"[k];
                ++pos_;
            }
        }
    }

    std::string_view s_;
    std::size_t pos_ = 0;
    JsonScalars &out_;
};

} // namespace

bool
parseJson(std::string_view text, JsonScalars *out, std::string *err)
{
    JsonScalars doc;
    try {
        JsonReader(text, doc).document();
    } catch (const JsonSyntaxError &e) {
        if (err)
            *err = "byte " + std::to_string(e.at) + ": " + e.why;
        return false;
    }
    *out = std::move(doc);
    return true;
}

} // namespace dbsim::core
