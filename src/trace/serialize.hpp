/**
 * @file
 * Binary save/load of trace-record streams.
 *
 * The on-disk format is a small header (magic, version, count) followed by
 * packed little-endian records, each encoded by trace::recordFields (the
 * checkpoint field list).  Used for golden traces in tests and for
 * capturing workload-engine output for offline inspection.
 */

#ifndef DBSIM_TRACE_SERIALIZE_HPP
#define DBSIM_TRACE_SERIALIZE_HPP

#include <iosfwd>
#include <string>
#include <vector>

#include "trace/record.hpp"

namespace dbsim::trace {

/** Write @p recs to @p os. Throws std::runtime_error on stream failure. */
void save(std::ostream &os, const std::vector<TraceRecord> &recs);

/** Read a stream written by save(). Throws on malformed input. */
std::vector<TraceRecord> load(std::istream &is);

/** File-path convenience wrappers. */
void saveFile(const std::string &path, const std::vector<TraceRecord> &recs);
std::vector<TraceRecord> loadFile(const std::string &path);

} // namespace dbsim::trace

#endif // DBSIM_TRACE_SERIALIZE_HPP
