/**
 * @file
 * Execution-time breakdown categories and accounting.
 *
 * The paper's convention (section 3): every cycle, the fraction
 * retired/max-retire-rate counts as busy; the remainder is charged as
 * stall time to the first instruction that could not retire that cycle,
 * classified by what it is waiting for.  Reads are subdivided into
 * L1+misc, L2, local memory, remote memory, dirty (cache-to-cache) and
 * dTLB components for the magnified read-stall graphs.
 */

#ifndef DBSIM_COMMON_BREAKDOWN_HPP
#define DBSIM_COMMON_BREAKDOWN_HPP

#include <array>
#include <cstdint>
#include <string>

#include "common/snapshot.hpp"
#include "common/types.hpp"

namespace dbsim {

/** Stall/busy categories of the execution-time breakdown. */
enum class StallCat : std::uint8_t {
    Busy,       ///< retire-slot utilization
    Fu,         ///< CPU pipeline stalls (functional units, dependences)
    ReadL1,     ///< read at L1 / address-generation / misc (paper "L1+misc")
    ReadL2,     ///< read hits in L2
    ReadLocal,  ///< read serviced by local memory
    ReadRemote, ///< read serviced by remote memory
    ReadDirty,  ///< read serviced cache-to-cache (dirty miss)
    ReadDtlb,   ///< data TLB miss handling
    Write,      ///< store-related stalls (buffer full, SC store latency)
    Sync,       ///< lock acquire/release, fences, spin time
    Instr,      ///< instruction-fetch stalls (L1I miss and beyond)
    Itlb,       ///< instruction TLB miss handling
    Idle,       ///< no runnable process (factored out of comparisons)
    kCount,
};

inline constexpr std::size_t kNumStallCats =
    static_cast<std::size_t>(StallCat::kCount);

const char *stallCatName(StallCat c);

/**
 * Accumulated execution-time components, in cycles (fractional because
 * busy accounting splits cycles across retire slots).
 */
struct Breakdown
{
    std::array<double, kNumStallCats> cycles{};

    double &operator[](StallCat c) { return cycles[static_cast<std::size_t>(c)]; }
    double operator[](StallCat c) const { return cycles[static_cast<std::size_t>(c)]; }

    void add(StallCat c, double amount) { (*this)[c] += amount; }

    /** CPU component as plotted by the paper: busy + FU stalls. */
    double cpu() const { return (*this)[StallCat::Busy] + (*this)[StallCat::Fu]; }

    /** All data-read stall components. */
    double read() const;

    /** Instruction stall: icache + iTLB. */
    double instr() const { return (*this)[StallCat::Instr] + (*this)[StallCat::Itlb]; }

    /** Total excluding idle (the paper factors out idle time). */
    double total() const;

    Breakdown &operator+=(const Breakdown &o);

    void reset() { cycles.fill(0.0); }

    void saveState(snap::Writer &w) const { stateFields(w, *this); }
    void restoreState(snap::Reader &r) { stateFields(r, *this); }

    template <class Ar, class Self>
    static void
    stateFields(Ar &ar, Self &s)
    {
        for (auto &c : s.cycles)
            ar.f64(c);
    }

    /** Multi-line human-readable dump. */
    std::string toString() const;
};

} // namespace dbsim

#endif // DBSIM_COMMON_BREAKDOWN_HPP
