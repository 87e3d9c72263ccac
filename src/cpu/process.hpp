/**
 * @file
 * Per-process execution context for the trace-driven cores.
 *
 * A ProcessContext couples a trace source with an "undo" queue that lets
 * the core push already-fetched records back when a process yields the
 * CPU (e.g. a lock-spin that converts to a block): the records are
 * re-delivered, in order, when the process runs again.
 */

#ifndef DBSIM_CPU_PROCESS_HPP
#define DBSIM_CPU_PROCESS_HPP

#include <deque>

#include "common/snapshot.hpp"
#include "common/types.hpp"
#include "trace/record.hpp"
#include "trace/source.hpp"

namespace dbsim::cpu {

/** Run state of a workload process. */
enum class ProcState : std::uint8_t { Ready, Running, Blocked, Done };

/**
 * The execution context of one workload process.
 */
class ProcessContext
{
  public:
    ProcessContext(ProcId id, trace::TraceSource *src)
        : id_(id), src_(src) {}

    ProcId id() const { return id_; }

    /** True once the trace is exhausted and the undo queue is empty. */
    bool
    exhausted() const
    {
        return src_exhausted_ && undo_.empty();
    }

    /**
     * Fetch the next record for this process.
     * @return false when exhausted.
     */
    bool
    fetchNext(trace::TraceRecord &out)
    {
        if (!undo_.empty()) {
            out = undo_.front();
            undo_.pop_front();
            ++fetched_;
            return true;
        }
        if (src_exhausted_ || !src_->next(out)) {
            src_exhausted_ = true;
            return false;
        }
        ++fetched_;
        return true;
    }

    /**
     * Push a record back so it is re-delivered next.  Call in reverse
     * fetch order when returning multiple records.
     */
    void
    unfetch(const trace::TraceRecord &rec)
    {
        undo_.push_front(rec);
        --fetched_;
    }

    std::uint64_t fetched() const { return fetched_; }

    /** Context state only; the trace source serializes separately. */
    void saveState(snap::Writer &w) const { stateFields(w, *this); }
    void restoreState(snap::Reader &r) { stateFields(r, *this); }

    ProcState state = ProcState::Ready;
    Cycles wake_at = 0;          ///< for Blocked processes
    std::uint64_t retired = 0;   ///< instructions retired

  private:
    template <class Ar, class Self>
    static void
    stateFields(Ar &ar, Self &s)
    {
        ar.u8(s.state);
        ar.u64(s.wake_at);
        ar.u64(s.retired);
        ar.seq(s.undo_, 28, [&](auto &rec) { trace::recordFields(ar, rec); });
        ar.boolean(s.src_exhausted_);
        ar.u64(s.fetched_);
    }

    ProcId id_;
    trace::TraceSource *src_;
    std::deque<trace::TraceRecord> undo_;
    bool src_exhausted_ = false;
    std::uint64_t fetched_ = 0;
};

} // namespace dbsim::cpu

#endif // DBSIM_CPU_PROCESS_HPP
