/**
 * @file
 * Occupancy distributions over simulated time (the MSHR occupancy
 * curves of the paper's Figure 2).
 *
 * Components own their stats as plain members; the system aggregates
 * and prints them.  There is deliberately no global registry.
 */

#ifndef DBSIM_COMMON_STATS_HPP
#define DBSIM_COMMON_STATS_HPP

#include <cstdint>
#include <vector>

#include "common/snapshot.hpp"
#include "common/types.hpp"

namespace dbsim::stats {

/**
 * Tracks, over simulated time, how many units of a resource are in use,
 * and reports the distribution of occupancy conditioned on the resource
 * being non-idle.  This is exactly the "MSHR occupancy distribution" of
 * the paper's Figures 2(d)-(g): the fraction of non-idle time with at
 * least n entries in use.
 */
class OccupancyTracker
{
  public:
    explicit OccupancyTracker(std::uint32_t max_units = 8)
        : time_at_(max_units + 1, 0) {}

    /**
     * Advance time to @p now (charging the elapsed interval to the
     * occupancy level in effect since the last call), then set the
     * occupancy to @p in_use.  Call on every occupancy change.
     *
     * Repeated samples at the same timestamp are deduplicated: they
     * charge nothing and only the latest level survives, so callers
     * that re-sample in a retry loop (e.g. MshrFile::drain on every
     * failed allocation) cannot skew the distribution.
     */
    void advance(Cycles now, std::uint32_t in_use);

    std::uint32_t current() const { return current_; }

    /** Total non-idle time (occupancy >= 1). */
    Cycles busyTime() const;

    /** Fraction of non-idle time with occupancy >= n. */
    double fracAtLeast(std::uint32_t n) const;

    void reset();

    void saveState(snap::Writer &w) const { stateFields(w, *this); }
    void restoreState(snap::Reader &r) { stateFields(r, *this); }

  private:
    template <class Ar, class Self>
    static void
    stateFields(Ar &ar, Self &s)
    {
        ar.fixed(s.time_at_, 8, "occupancy level",
                 [&](auto &t) { ar.u64(t); });
        ar.u64(s.last_);
        ar.u32(s.current_);
    }

    std::vector<Cycles> time_at_;
    Cycles last_ = 0;
    std::uint32_t current_ = 0;
};

} // namespace dbsim::stats

#endif // DBSIM_COMMON_STATS_HPP
