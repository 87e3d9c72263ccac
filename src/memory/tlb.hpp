/**
 * @file
 * Fully associative translation lookaside buffer.
 *
 * The simulated machine uses separate 128-entry fully associative
 * instruction and data TLBs with 8 KB pages (paper Figure 1).  Misses
 * incur a fixed software/hardware-walk penalty and are charged to the
 * iTLB / dTLB components of the execution-time breakdown.
 */

#ifndef DBSIM_MEMORY_TLB_HPP
#define DBSIM_MEMORY_TLB_HPP

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/snapshot.hpp"
#include "common/types.hpp"

namespace dbsim::mem {

/** TLB statistics. */
struct TlbStats
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) / static_cast<double>(accesses) : 0.0;
    }
};

/**
 * A fully associative, true-LRU TLB over virtual page numbers.
 * Translation itself (virtual to physical) is done by the PageMap; the
 * TLB only determines hit/miss timing.
 */
class Tlb
{
  public:
    /**
     * @param entries     number of TLB entries (0 = perfect TLB)
     * @param page_bytes  page size (power of two)
     */
    Tlb(std::uint32_t entries, std::uint32_t page_bytes);

    /**
     * Access the TLB for @p vaddr.
     * @return true on hit (or if the TLB is perfect).
     */
    bool access(Addr vaddr);

    /** Page number of @p vaddr. */
    Addr pageOf(Addr vaddr) const { return vaddr >> page_shift_; }

    bool perfect() const { return entries_ == 0; }

    const TlbStats &stats() const { return stats_; }

    void reset();

    void saveState(snap::Writer &w) const { stateFields(w, *this); }
    void restoreState(snap::Reader &r) { stateFields(r, *this); }

  private:
    template <class Ar, class Self>
    static void
    stateFields(Ar &ar, Self &s)
    {
        ar.u64(s.stamp_);
        ar.sortedMap(s.map_, 16, [&](auto &vpage, auto &stamp) {
            ar.u64(vpage);
            ar.u64(stamp);
        });
        ar.u64(s.stats_.accesses);
        ar.u64(s.stats_.misses);
    }

    std::uint32_t entries_;
    std::uint32_t page_shift_;
    std::uint64_t stamp_ = 0;
    /** vpage -> last-use stamp; size bounded by entries_. */
    std::unordered_map<Addr, std::uint64_t> map_;
    TlbStats stats_;
};

} // namespace dbsim::mem

#endif // DBSIM_MEMORY_TLB_HPP
