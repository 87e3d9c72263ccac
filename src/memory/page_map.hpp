/**
 * @file
 * Bin-hopping virtual-to-physical page mapping.
 *
 * The paper's virtual memory system uses a bin-hopping page-mapping
 * policy with 8 KB pages.  Bin hopping assigns successive newly touched
 * virtual pages of a process to successive cache bins (page colors),
 * which spreads the working set across cache sets and determines, in our
 * CC-NUMA model, the home node of each page (round-robin over nodes by
 * allocation order, approximating first-touch striping).
 */

#ifndef DBSIM_MEMORY_PAGE_MAP_HPP
#define DBSIM_MEMORY_PAGE_MAP_HPP

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/snapshot.hpp"
#include "common/types.hpp"

namespace dbsim::mem {

/**
 * Lazily materialized bin-hopping page table shared by all processes
 * (the database's shared memory means most pages are shared anyway).
 */
class PageMap
{
  public:
    /**
     * @param page_bytes  page size (power of two)
     * @param num_bins    number of cache bins to hop across (power of two)
     * @param num_nodes   nodes for home assignment
     */
    PageMap(std::uint32_t page_bytes, std::uint32_t num_bins,
            std::uint32_t num_nodes);

    /**
     * Translate a virtual address; allocates the page on first touch.
     * @param node  the toucher: on first touch the page's home becomes
     *              this node (first-touch NUMA placement).
     */
    Addr translate(Addr vaddr, std::uint32_t node = 0);

    /** Home node of the physical address @p paddr. */
    std::uint32_t homeOf(Addr paddr) const;

    /** Number of distinct pages touched so far. */
    std::uint64_t pagesTouched() const { return map_.size(); }

    void saveState(snap::Writer &w) const { stateFields(w, *this); }
    void restoreState(snap::Reader &r) { stateFields(r, *this); }

  private:
    template <class Ar, class Self>
    static void
    stateFields(Ar &ar, Self &s)
    {
        ar.u64(s.next_seq_);
        ar.sortedMap(s.map_, 20, [&](auto &vpage, auto &ph) {
            ar.u64(vpage);
            ar.u64(ph.ppage);
            ar.u32(ph.home);
        });
        ar.seq(s.home_by_ppage_, 4, [&](auto &h) { ar.u32(h); });
    }

    struct Phys
    {
        Addr ppage;
        std::uint32_t home;
    };

    std::uint32_t page_bytes_;
    std::uint32_t page_shift_;
    std::uint32_t num_bins_;
    std::uint32_t num_nodes_;
    std::uint64_t next_seq_ = 0;
    std::unordered_map<Addr, Phys> map_; ///< vpage -> physical page info
    std::vector<std::uint32_t> home_by_ppage_; ///< indexed by ppage seq
};

} // namespace dbsim::mem

#endif // DBSIM_MEMORY_PAGE_MAP_HPP
