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

    std::uint32_t pageBytes() const { return page_bytes_; }

    /** Number of distinct pages touched so far. */
    std::uint64_t pagesTouched() const { return map_.size(); }

    void
    saveState(snap::Writer &w) const
    {
        w.u64(next_seq_);
        w.u64(map_.size());
        for (Addr vpage : snap::sortedKeys(map_)) {
            const Phys &ph = map_.at(vpage);
            w.u64(vpage);
            w.u64(ph.ppage);
            w.u32(ph.home);
        }
        w.u64(home_by_ppage_.size());
        for (std::uint32_t h : home_by_ppage_)
            w.u32(h);
    }

    void
    restoreState(snap::Reader &r)
    {
        next_seq_ = r.u64();
        map_.clear();
        const std::size_t n = r.length(20);
        for (std::size_t i = 0; i < n; ++i) {
            const Addr vpage = r.u64();
            Phys ph;
            ph.ppage = r.u64();
            ph.home = r.u32();
            map_[vpage] = ph;
        }
        const std::size_t m = r.length(4);
        home_by_ppage_.assign(m, 0);
        for (std::size_t i = 0; i < m; ++i)
            home_by_ppage_[i] = r.u32();
    }

  private:
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
