/**
 * @file
 * Instruction stream buffer (Jouppi-style) between the L1 instruction
 * cache and the L2 cache.
 *
 * On an L1I miss the buffer is probed; a hit supplies the line (it is
 * moved into the L1I) and the buffer advances, prefetching the next
 * sequential line from L2.  A miss flushes all entries and re-arms the
 * buffer at the new stream (paper section 4.1).  Prefetches consume L2
 * bandwidth, which the hierarchy charges separately, so oversized buffers
 * can hurt via useless prefetches exactly as the paper observes.
 */

#ifndef DBSIM_MEMORY_STREAM_BUFFER_HPP
#define DBSIM_MEMORY_STREAM_BUFFER_HPP

#include <cstdint>
#include <vector>

#include "common/snapshot.hpp"
#include "common/types.hpp"

namespace dbsim::mem {

/** Statistics exported by a StreamBuffer. */
struct StreamBufferStats
{
    std::uint64_t probes = 0;         ///< L1I misses probing the buffer
    std::uint64_t hits = 0;           ///< probes satisfied by the buffer
    std::uint64_t flushes = 0;        ///< streams abandoned
    std::uint64_t prefetches = 0;     ///< lines requested from L2
    std::uint64_t useless = 0;        ///< prefetched lines flushed unused

    double
    hitRate() const
    {
        return probes ? static_cast<double>(hits) / static_cast<double>(probes) : 0.0;
    }
};

/**
 * A single sequential instruction stream buffer.
 *
 * Entries hold (block address, ready-time) pairs; readiness models the L2
 * access latency of the prefetch.  Size 0 disables the buffer.
 */
class StreamBuffer
{
  public:
    /**
     * @param entries     buffer depth (0 = disabled)
     * @param line_bytes  cache line size
     */
    StreamBuffer(std::uint32_t entries, std::uint32_t line_bytes);

    bool enabled() const { return entries_ > 0; }
    std::uint32_t capacity() const { return entries_; }

    /**
     * Probe for @p block following an L1I miss at time @p now.
     *
     * @param block        missing block address
     * @param now          current cycle
     * @param ready_out    if hit: cycle the line is available
     * @param refill_out   if hit or (re)allocation: blocks to prefetch
     *                     from L2 are appended here (caller supplies their
     *                     ready times via fill()).
     * @return true on hit.
     */
    bool probe(Addr block, Cycles now, Cycles &ready_out,
               std::vector<Addr> &refill_out);

    /** Record that a previously requested prefetch of @p block will be
     *  ready at @p ready. */
    void fill(Addr block, Cycles ready);

    /** Valid entries whose ready time is kNever (a prefetch that can
     *  never arrive).  Always zero in a healthy machine; checked by the
     *  integrity layer's end-of-run quiescence audit. */
    std::uint32_t
    unboundedEntries() const
    {
        std::uint32_t n = 0;
        for (const auto &e : fifo_)
            if (e.valid && e.ready == kNever)
                ++n;
        return n;
    }

    const StreamBufferStats &stats() const { return stats_; }

    void saveState(snap::Writer &w) const { stateFields(w, *this); }
    void restoreState(snap::Reader &r) { stateFields(r, *this); }

  private:
    template <class Ar, class Self>
    static void
    stateFields(Ar &ar, Self &s)
    {
        ar.fixed(s.fifo_, 17, "stream-buffer depth", [&](auto &e) {
            ar.u64(e.block);
            ar.u64(e.ready);
            ar.boolean(e.valid);
        });
        ar.u64(s.next_block_);
        ar.u64(s.stats_.probes);
        ar.u64(s.stats_.hits);
        ar.u64(s.stats_.flushes);
        ar.u64(s.stats_.prefetches);
        ar.u64(s.stats_.useless);
    }

    struct Entry
    {
        Addr block = kNoAddr;
        Cycles ready = kNever;
        bool valid = false;
    };

    void flushAll();

    std::uint32_t entries_;
    std::uint32_t line_bytes_;
    std::vector<Entry> fifo_;  ///< index 0 = head (next expected line)
    Addr next_block_ = kNoAddr; ///< next sequential block to prefetch
    StreamBufferStats stats_;
};

} // namespace dbsim::mem

#endif // DBSIM_MEMORY_STREAM_BUFFER_HPP
