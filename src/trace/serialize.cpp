#include "trace/serialize.hpp"

#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>
#include <stdexcept>

#include "common/snapshot.hpp"

namespace dbsim::trace {

namespace {

constexpr std::uint32_t kMagic = 0x44425452; // "DBTR"
constexpr std::uint32_t kVersion = 1;

} // namespace

void
save(std::ostream &os, const std::vector<TraceRecord> &recs)
{
    snap::Writer w;
    w.u32(kMagic);
    w.u32(kVersion);
    w.seq(recs, 28, [&w](const TraceRecord &r) { recordFields(w, r); });
    os.write(reinterpret_cast<const char *>(w.bytes().data()),
             static_cast<std::streamsize>(w.size()));
    if (!os)
        throw std::runtime_error("trace::save: write failure");
}

std::vector<TraceRecord>
load(std::istream &is)
{
    const std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(is)),
        std::istreambuf_iterator<char>());
    snap::Reader r(bytes);
    std::vector<TraceRecord> recs;
    try {
        if (r.u32() != kMagic)
            throw std::runtime_error("trace::load: bad magic");
        if (r.u32() != kVersion)
            throw std::runtime_error("trace::load: unsupported version");
        r.seq(recs, 28, [&r](TraceRecord &rec) {
            recordFields(r, rec);
            if (static_cast<unsigned>(rec.op) >= kNumOpClasses)
                throw std::runtime_error("trace::load: bad op class");
        });
    } catch (const snap::SnapshotError &) {
        // A short read, or a count the remaining bytes cannot hold.
        throw std::runtime_error("trace::load: truncated stream");
    }
    return recs;
}

void
saveFile(const std::string &path, const std::vector<TraceRecord> &recs)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        throw std::runtime_error("trace::saveFile: cannot open " + path);
    save(os, recs);
}

std::vector<TraceRecord>
loadFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw std::runtime_error("trace::loadFile: cannot open " + path);
    return load(is);
}

} // namespace dbsim::trace
