/**
 * @file
 * Branch prediction for the processor models (paper Figure 1):
 *
 *  - conditional branches: hybrid PA(4K,12,1)/g(12,12) predictor
 *    (Yeh-Patt two-level per-address component + global-history
 *    component, with a per-address chooser);
 *  - jump / indirect branches: 512-entry 4-way branch target buffer;
 *  - call/returns: 32-element return address stack.
 *
 * The simulator is trace-driven, so the predictor is consulted with the
 * actual outcome in hand: a mismatch is a misprediction, which stalls
 * fetch until the branch resolves (no wrong-path instructions are
 * executed, as in the paper).
 */

#ifndef DBSIM_CPU_BRANCH_PREDICTOR_HPP
#define DBSIM_CPU_BRANCH_PREDICTOR_HPP

#include <cstdint>
#include <vector>

#include "common/snapshot.hpp"
#include "common/types.hpp"
#include "trace/record.hpp"

namespace dbsim::cpu {

/** Branch predictor statistics, per branch class and cumulative. */
struct BranchPredStats
{
    std::uint64_t cond_lookups = 0;
    std::uint64_t cond_mispredicts = 0;
    std::uint64_t jmp_lookups = 0;
    std::uint64_t jmp_mispredicts = 0;
    std::uint64_t ret_lookups = 0;
    std::uint64_t ret_mispredicts = 0;

    std::uint64_t
    lookups() const
    {
        return cond_lookups + jmp_lookups + ret_lookups;
    }

    std::uint64_t
    mispredicts() const
    {
        return cond_mispredicts + jmp_mispredicts + ret_mispredicts;
    }

    /** Cumulative misprediction rate over all branch classes. */
    double
    rate() const
    {
        const auto l = lookups();
        return l ? static_cast<double>(mispredicts()) / static_cast<double>(l) : 0.0;
    }
};

/** Predictor sizing parameters. */
struct BranchPredParams
{
    std::uint32_t pa_entries = 4096;   ///< per-address history table entries
    std::uint32_t pa_hist_bits = 12;   ///< local history length
    std::uint32_t g_hist_bits = 12;    ///< global history length
    std::uint32_t g_pht_bits = 12;     ///< global pattern table index bits
    std::uint32_t chooser_entries = 4096;
    std::uint32_t btb_entries = 512;
    std::uint32_t btb_assoc = 4;
    std::uint32_t ras_entries = 32;
    bool perfect = false;              ///< idealized predictor (Figure 4)
};

/**
 * The hybrid branch predictor.
 */
class BranchPredictor
{
  public:
    explicit BranchPredictor(const BranchPredParams &params = {});

    /**
     * Predict-and-update for one dynamic branch.
     *
     * @param rec  the branch record (op, pc, taken, target in extra)
     * @return true iff the prediction was correct.
     */
    bool predict(const trace::TraceRecord &rec);

    const BranchPredStats &stats() const { return stats_; }

    /** Zero the counters; predictor tables are preserved. */
    void resetStats() { stats_ = BranchPredStats{}; }

    void saveState(snap::Writer &w) const { stateFields(w, *this); }
    void restoreState(snap::Reader &r) { stateFields(r, *this); }

  private:
    template <class Ar, class Self>
    static void
    stateFields(Ar &ar, Self &s)
    {
        const char *geometry = "branch-predictor geometry";
        ar.fixed(s.local_hist_, 2, geometry, [&](auto &h) { ar.u16(h); });
        ar.fixed(s.local_pht_, 1, geometry, [&](auto &c) { ar.u8(c); });
        ar.fixed(s.global_pht_, 1, geometry, [&](auto &c) { ar.u8(c); });
        ar.fixed(s.chooser_, 1, geometry, [&](auto &c) { ar.u8(c); });
        ar.u32(s.ghr_);
        ar.fixed(s.btb_, 25, geometry, [&](auto &way) {
            ar.u64(way.tag);
            ar.u64(way.target);
            ar.u64(way.lru);
            ar.boolean(way.valid);
        });
        ar.u64(s.btb_stamp_);
        ar.fixed(s.ras_, 8, geometry, [&](auto &a) { ar.u64(a); });
        ar.u32(s.ras_top_);
        ar.u32(s.ras_count_);
        ar.u64(s.stats_.cond_lookups);
        ar.u64(s.stats_.cond_mispredicts);
        ar.u64(s.stats_.jmp_lookups);
        ar.u64(s.stats_.jmp_mispredicts);
        ar.u64(s.stats_.ret_lookups);
        ar.u64(s.stats_.ret_mispredicts);
    }

    bool predictConditional(Addr pc, bool taken);
    bool predictIndirect(Addr pc, Addr target, bool is_call);
    bool predictReturn(Addr target);

    void btbUpdate(Addr pc, Addr target);
    bool btbLookup(Addr pc, Addr target);

    static void
    updateCounter(std::uint8_t &ctr, bool inc)
    {
        if (inc && ctr < 3)
            ++ctr;
        else if (!inc && ctr > 0)
            --ctr;
    }

    BranchPredParams p_;
    std::vector<std::uint16_t> local_hist_;  ///< per-address histories
    std::vector<std::uint8_t> local_pht_;    ///< 2-bit counters
    std::vector<std::uint8_t> global_pht_;   ///< 2-bit counters
    std::vector<std::uint8_t> chooser_;      ///< 2-bit: >=2 selects global
    std::uint32_t ghr_ = 0;

    struct BtbWay
    {
        Addr tag = 0;
        Addr target = 0;
        std::uint64_t lru = 0;
        bool valid = false;
    };
    std::vector<BtbWay> btb_;
    std::uint64_t btb_stamp_ = 0;

    std::vector<Addr> ras_;
    std::uint32_t ras_top_ = 0;   ///< index of next push slot
    std::uint32_t ras_count_ = 0; ///< valid entries

    BranchPredStats stats_;
};

} // namespace dbsim::cpu

#endif // DBSIM_CPU_BRANCH_PREDICTOR_HPP
