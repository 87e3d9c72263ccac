/**
 * @file
 * Byte-stable binary serialization for deterministic checkpoints.
 *
 * snap::Writer / snap::Reader encode machine state as a fixed
 * little-endian byte stream, independent of host endianness, struct
 * padding, and container iteration order.  Every component of the
 * simulator exposes
 *
 *     void saveState(snap::Writer &) const;
 *     void restoreState(snap::Reader &);
 *
 * that serialize exactly the mutable simulation state (never
 * construction-derived configuration, never host pointers or host
 * clocks: stray bytes change the epoch hashes that tests/test_golden.cpp
 * pins).
 * The same byte stream feeds both on-disk checkpoints and the cheap
 * per-epoch FNV-1a state hashes used by tools/dbsim-diverge.
 *
 * One field list per component (DESIGN.md §5g): Writer and Reader share
 * one field API, so a single body
 *
 *     template <class Ar, class Self>
 *     static void stateFields(Ar &ar, Self &s);  // Self = const T or T
 *
 * serves both saveState and restoreState.  The helpers: explicit-width
 * scalars u8/u16/u32/u64/i32, boolean, f64, str (enums cast through the
 * named width); seq (length-prefixed, refilled on read); fixed (of
 * construction-fixed size: a different stored length throws
 * "snapshot: <what> mismatch"); sortedMap/sortedSet (in sortedKeys()
 * order); nested (a sub-component's own saveState/restoreState).  Checks
 * only a restore can make (a ProcId resolving to a live process, a
 * presence flag, matching counts) stay explicit restore-only steps.
 *
 * Encoding rules:
 *  - integers are fixed-width little-endian, never varint;
 *  - doubles are serialized as their IEEE-754 bit pattern (bit_cast),
 *    so restored values are bitwise-identical, not round-tripped
 *    through text;
 *  - strings and containers are a u64 element count followed by the
 *    elements;
 *  - unordered_{map,set} contents are emitted in sorted key order via
 *    sortedKeys(), making the stream independent of hash-table layout.
 */

#ifndef DBSIM_COMMON_SNAPSHOT_HPP
#define DBSIM_COMMON_SNAPSHOT_HPP

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace dbsim::snap {

/** 64-bit FNV-1a over a byte range, chainable via @p h. */
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline std::uint64_t
fnv1a(const std::uint8_t *data, std::size_t n, std::uint64_t h = kFnvOffset)
{
    for (std::size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= kFnvPrime;
    }
    return h;
}

/**
 * A checkpoint stream was truncated, corrupt, or produced by an
 * incompatible configuration.  Restore paths treat this as "checkpoint
 * unusable", not as a simulator invariant failure.
 */
class SnapshotError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** A field an explicit-width integer accessor may cast to and from. */
template <class T>
concept IntField = std::integral<T> || std::is_enum_v<T>;

/**
 * Keys of an associative container in ascending order.  The only
 * sanctioned way to serialize unordered_{map,set} contents: iterate the
 * returned vector and look values up by key, so the byte stream never
 * depends on hash-table layout.
 */
template <class Map>
std::vector<typename Map::key_type>
sortedKeys(const Map &m)
{
    std::vector<typename Map::key_type> keys;
    keys.reserve(m.size());
    for (auto it = m.begin(); it != m.end(); ++it) {
        if constexpr (requires { it->first; })
            keys.push_back(it->first); // map entry
        else
            keys.push_back(*it); // set element
    }
    std::sort(keys.begin(), keys.end());
    return keys;
}

/** Append-only little-endian byte stream builder. */
class Writer
{
  public:
    template <IntField T> void u8(T v) { put(std::uint8_t(v), 1); }
    template <IntField T> void u16(T v) { put(std::uint16_t(v), 2); }
    template <IntField T> void u32(T v) { put(std::uint32_t(v), 4); }
    template <IntField T> void u64(T v) { put(std::uint64_t(v), 8); }
    template <IntField T> void i32(T v) { u32(static_cast<std::int32_t>(v)); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void boolean(bool v) { u8(v ? 1 : 0); }

    /** IEEE-754 bit pattern; restores bitwise-identical doubles. */
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    void
    str(const std::string &s)
    {
        u64(s.size());
        for (char c : s)
            buf_.push_back(static_cast<std::uint8_t>(c));
    }

    /** Length-prefixed container; @p f visits each element. */
    template <class C, class F>
    void
    seq(const C &c, std::size_t /*min_elem_bytes*/, F &&f)
    {
        u64(c.size());
        for (const auto &e : c)
            f(e);
    }

    /** seq() over a container whose size the reader already knows. */
    template <class C, class F>
    void
    fixed(const C &c, std::size_t min_elem_bytes, const char * /*what*/,
          F &&f)
    {
        seq(c, min_elem_bytes, f);
    }

    /** Unordered map in sorted key order; @p f visits (key, value). */
    template <class M, class F>
    void
    sortedMap(const M &m, std::size_t /*min_entry_bytes*/, F &&f)
    {
        u64(m.size());
        for (const auto &k : sortedKeys(m))
            f(k, m.at(k));
    }

    /** Unordered set in sorted order; @p f visits each key. */
    template <class S, class F>
    void
    sortedSet(const S &s, std::size_t min_elem_bytes, F &&f)
    {
        seq(sortedKeys(s), min_elem_bytes, f);
    }

    /** A nested component; the arguments are for its restoreState. */
    template <class T, class... RestoreArgs>
    void
    nested(const T &obj, RestoreArgs &&...)
    {
        obj.saveState(*this);
    }

    const std::vector<std::uint8_t> &bytes() const { return buf_; }
    std::size_t size() const { return buf_.size(); }

    /** FNV-1a 64 over everything written so far. */
    std::uint64_t
    hash() const
    {
        return fnv1a(buf_.data(), buf_.size());
    }

  private:
    void
    put(std::uint64_t v, int width)
    {
        for (int i = 0; i < width; ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    std::vector<std::uint8_t> buf_;
};

/**
 * Bounds-checked reader over a Writer-produced byte stream.  Each field
 * accessor has two forms: x() returns the value (restore-only checks),
 * x(field) assigns it (shared field lists).
 */
class Reader
{
  public:
    Reader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    explicit Reader(const std::vector<std::uint8_t> &bytes)
        : Reader(bytes.data(), bytes.size())
    {
    }

    std::uint8_t u8() { return static_cast<std::uint8_t>(get(1)); }
    std::uint16_t u16() { return static_cast<std::uint16_t>(get(2)); }
    std::uint32_t u32() { return static_cast<std::uint32_t>(get(4)); }
    std::uint64_t u64() { return get(8); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    bool boolean() { return u8() != 0; }
    double f64() { return std::bit_cast<double>(u64()); }

    // dbsim-analyze: cold(checkpoint restore path; the tick-path edge is a name collision with ostringstream::str)
    std::string
    str()
    {
        const std::uint64_t n = u64();
        need(n);
        std::string s(reinterpret_cast<const char *>(data_) + pos_,
                      static_cast<std::size_t>(n));
        pos_ += static_cast<std::size_t>(n);
        return s;
    }

    template <IntField T> void u8(T &v) { v = static_cast<T>(u8()); }
    template <IntField T> void u16(T &v) { v = static_cast<T>(u16()); }
    template <IntField T> void u32(T &v) { v = static_cast<T>(u32()); }
    template <IntField T> void u64(T &v) { v = static_cast<T>(u64()); }
    template <IntField T> void i32(T &v) { v = static_cast<T>(i32()); }
    void boolean(bool &v) { v = boolean(); }
    void f64(double &v) { v = f64(); }
    void str(std::string &s) { s = str(); }

    /**
     * Read a container length and validate it against the remaining
     * bytes (each element needs >= @p min_elem_bytes), so a corrupt
     * length fails fast instead of driving a huge allocation.
     */
    std::size_t
    length(std::size_t min_elem_bytes = 1)
    {
        const std::uint64_t n = u64();
        if (min_elem_bytes != 0 && n > (size_ - pos_) / min_elem_bytes)
            throw SnapshotError("snapshot: implausible container length");
        return static_cast<std::size_t>(n);
    }

    template <class C, class F>
    void
    seq(C &c, std::size_t min_elem_bytes, F &&f)
    {
        const std::size_t n = length(min_elem_bytes);
        c.clear();
        for (std::size_t i = 0; i < n; ++i) {
            typename C::value_type e{};
            f(e);
            c.insert(c.end(), std::move(e));
        }
    }

    template <class C, class F>
    void
    fixed(C &c, std::size_t min_elem_bytes, const char *what, F &&f)
    {
        if (length(min_elem_bytes) != c.size())
            throw SnapshotError(std::string("snapshot: ") + what +
                                " mismatch");
        for (auto &e : c)
            f(e);
    }

    template <class M, class F>
    void
    sortedMap(M &m, std::size_t min_entry_bytes, F &&f)
    {
        const std::size_t n = length(min_entry_bytes);
        m.clear();
        for (std::size_t i = 0; i < n; ++i) {
            typename M::key_type k{};
            typename M::mapped_type v{};
            f(k, v);
            m.insert_or_assign(std::move(k), std::move(v));
        }
    }

    template <class S, class F>
    void
    sortedSet(S &s, std::size_t min_elem_bytes, F &&f)
    {
        seq(s, min_elem_bytes, f);
    }

    template <class T, class... RestoreArgs>
    void
    nested(T &obj, RestoreArgs &&...args)
    {
        obj.restoreState(*this, std::forward<RestoreArgs>(args)...);
    }

    bool atEnd() const { return pos_ == size_; }

  private:
    void
    need(std::uint64_t n)
    {
        if (n > size_ - pos_)
            throw SnapshotError("snapshot: truncated stream");
    }

    std::uint64_t
    get(int width)
    {
        need(static_cast<std::uint64_t>(width));
        std::uint64_t v = 0;
        for (int i = 0; i < width; ++i)
            v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

} // namespace dbsim::snap

#endif // DBSIM_COMMON_SNAPSHOT_HPP
