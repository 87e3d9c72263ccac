/**
 * @file
 * Software prefetch / flush hint insertion (paper section 4.2).
 *
 * The paper inserted prefetch and flush ("WriteThrough") primitives
 * around the instructions identified as generating migratory accesses.
 * HintInserter performs the same transformation on a trace stream: it
 * buffers each critical section whose lock is in the configured hot set,
 * inserts exclusive prefetches for the section's written lines before
 * the lock acquire (overlapping the migratory fetch with the acquire),
 * and inserts flush hints for those lines after the release (pushing the
 * data home so the next reader is serviced by memory instead of a
 * cache-to-cache transfer).
 */

#ifndef DBSIM_WORKLOAD_HINTS_HPP
#define DBSIM_WORKLOAD_HINTS_HPP

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/types.hpp"
#include "trace/record.hpp"
#include "trace/source.hpp"

namespace dbsim::workload {

/** Hint-insertion options. */
struct HintOptions
{
    bool prefetch = true;  ///< exclusive prefetch before the acquire
    bool flush = true;     ///< flush / WriteThrough after the release
    std::uint32_t line_bytes = 64;
    /** Only sections on these lock addresses are transformed; empty
     *  means every critical section. */
    std::unordered_set<Addr> hot_locks;
    /** Safety cap on buffered section length. */
    std::uint32_t max_section = 512;
};

/**
 * A trace filter inserting prefetch/flush hints around critical
 * sections.
 */
class HintInserter : public trace::TraceSource
{
  public:
    HintInserter(std::unique_ptr<trace::TraceSource> inner,
                 HintOptions opts);

    bool next(trace::TraceRecord &out) override;

    std::uint64_t prefetchesInserted() const { return prefetches_; }
    std::uint64_t flushesInserted() const { return flushes_; }

    void saveState(snap::Writer &w) const override { stateFields(w, *this); }
    void restoreState(snap::Reader &r) override { stateFields(r, *this); }

  private:
    template <class Ar, class Self>
    static void
    stateFields(Ar &ar, Self &s)
    {
        ar.seq(s.out_, 28,
               [&](auto &rec) { trace::recordFields(ar, rec); });
        ar.boolean(s.inner_done_);
        ar.u64(s.prefetches_);
        ar.u64(s.flushes_);
        ar.nested(*s.inner_);
    }

    bool hotLock(Addr addr) const;
    void transformSection(std::vector<trace::TraceRecord> &section);
    bool pump(); ///< pull from inner into out_; false when exhausted

    std::unique_ptr<trace::TraceSource> inner_;
    HintOptions opts_;
    std::deque<trace::TraceRecord> out_;
    bool inner_done_ = false;
    std::uint64_t prefetches_ = 0;
    std::uint64_t flushes_ = 0;

    /** Scratch buffers reused across pump() calls so the per-section
     *  transform does not allocate on the trace feed path; fully
     *  consumed within one pump(), never serialized. */
    std::vector<trace::TraceRecord> scratch_section_;
    std::vector<trace::TraceRecord> scratch_pf_;
    std::vector<Addr> scratch_lines_;
};

} // namespace dbsim::workload

#endif // DBSIM_WORKLOAD_HINTS_HPP
