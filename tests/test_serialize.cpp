/**
 * @file
 * Error-path tests of the binary trace serializer: truncation, bad
 * magic, unsupported versions, corrupt op classes, unopenable files,
 * plus a save/load round trip through a real file.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/record.hpp"
#include "trace/serialize.hpp"

namespace dbsim::trace {
namespace {

std::vector<TraceRecord>
sampleRecords()
{
    std::vector<TraceRecord> v;
    for (int i = 0; i < 8; ++i) {
        TraceRecord r;
        r.op = static_cast<OpClass>(i % kNumOpClasses);
        r.pc = 0x1000 + i * 4;
        r.vaddr = 0x80000 + i * 64;
        r.extra = i;
        r.dep1 = static_cast<std::uint8_t>(i);
        r.dep2 = static_cast<std::uint8_t>(i / 2);
        r.taken = (i % 2) != 0;
        v.push_back(r);
    }
    return v;
}

std::string
serialized(const std::vector<TraceRecord> &recs)
{
    std::ostringstream os(std::ios::binary);
    save(os, recs);
    return os.str();
}

/** Expect load() to throw a runtime_error whose message contains @p m. */
void
expectLoadError(const std::string &bytes, const char *m)
{
    std::istringstream is(bytes, std::ios::binary);
    try {
        load(is);
        FAIL() << "expected load() to reject the stream (" << m << ")";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(m), std::string::npos)
            << e.what();
    }
}

TEST(Serialize, RoundTripsThroughAStream)
{
    const auto recs = sampleRecords();
    std::istringstream is(serialized(recs), std::ios::binary);
    const auto loaded = load(is);
    ASSERT_EQ(loaded.size(), recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i) {
        EXPECT_EQ(loaded[i].op, recs[i].op);
        EXPECT_EQ(loaded[i].pc, recs[i].pc);
        EXPECT_EQ(loaded[i].vaddr, recs[i].vaddr);
        EXPECT_EQ(loaded[i].extra, recs[i].extra);
        EXPECT_EQ(loaded[i].dep1, recs[i].dep1);
        EXPECT_EQ(loaded[i].dep2, recs[i].dep2);
        EXPECT_EQ(loaded[i].taken, recs[i].taken);
    }
}

TEST(Serialize, RejectsEmptyStream)
{
    expectLoadError("", "truncated stream");
}

TEST(Serialize, RejectsTruncationAtEveryPrefix)
{
    // Chopping the valid image anywhere must raise "truncated stream",
    // never a silent short read (the header fields themselves produce
    // their own diagnostics once complete).
    const std::string bytes = serialized(sampleRecords());
    for (std::size_t cut = 0; cut < bytes.size(); cut += 3) {
        if (cut == 8)
            continue; // magic+version complete: count field truncates
        std::istringstream is(bytes.substr(0, cut), std::ios::binary);
        EXPECT_THROW(load(is), std::runtime_error) << "cut=" << cut;
    }
}

TEST(Serialize, RejectsBadMagic)
{
    std::string bytes = serialized(sampleRecords());
    bytes[0] = 'X';
    expectLoadError(bytes, "bad magic");
}

TEST(Serialize, RejectsUnsupportedVersion)
{
    std::string bytes = serialized(sampleRecords());
    bytes[4] = 99; // version field follows the 4-byte magic
    expectLoadError(bytes, "unsupported version");
}

TEST(Serialize, RejectsBadOpClass)
{
    const auto recs = sampleRecords();
    std::string bytes = serialized(recs);
    // The op byte of record 0 sits after the 16-byte header and the
    // record's pc/vaddr/extra fields (8 bytes each).
    const std::size_t op_off = 16 + 24;
    ASSERT_LT(op_off, bytes.size());
    bytes[op_off] = static_cast<char>(0xFF);
    expectLoadError(bytes, "bad op class");
}

TEST(Serialize, RejectsCountPastEndOfStream)
{
    // A header promising records the stream does not contain must be
    // reported as truncation, not produce partial results.
    std::ostringstream os(std::ios::binary);
    save(os, sampleRecords());
    std::string bytes = os.str();
    std::uint64_t huge = 1u << 20;
    std::memcpy(&bytes[8], &huge, sizeof(huge));
    expectLoadError(bytes, "truncated stream");
    // A count no allocation could hold is truncation too, not an
    // escaping std::length_error or bad_alloc.
    huge = 1ull << 62;
    std::memcpy(&bytes[8], &huge, sizeof(huge));
    expectLoadError(bytes, "truncated stream");
}

TEST(Serialize, LoadFileRejectsMissingPath)
{
    try {
        loadFile("/nonexistent-dir/no-such-trace.bin");
        FAIL() << "expected loadFile to reject the path";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("cannot open"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Serialize, SaveFileRejectsUnwritablePath)
{
    EXPECT_THROW(saveFile("/nonexistent-dir/out.bin", sampleRecords()),
                 std::runtime_error);
}

TEST(Serialize, RoundTripsThroughAFile)
{
    const std::string path =
        testing::TempDir() + "dbsim_serialize_roundtrip.bin";
    const auto recs = sampleRecords();
    saveFile(path, recs);
    const auto loaded = loadFile(path);
    std::remove(path.c_str());
    ASSERT_EQ(loaded.size(), recs.size());
    EXPECT_EQ(loaded.back().pc, recs.back().pc);
    EXPECT_EQ(loaded.back().op, recs.back().op);
}

} // namespace
} // namespace dbsim::trace
