/**
 * @file
 * The instruction trace record consumed by the processor models.
 *
 * This is the analogue of the ATOM-derived Alpha traces in the paper: a
 * per-process stream of dynamic instructions annotated with memory
 * addresses, register-dependence information, branch outcomes, and the
 * higher-level synchronization / blocking-system-call markers the
 * simulator uses to drive scheduling and lock modeling (paper section 2.2).
 */

#ifndef DBSIM_TRACE_RECORD_HPP
#define DBSIM_TRACE_RECORD_HPP

#include <cstdint>
#include <string>

#include "common/snapshot.hpp"
#include "common/types.hpp"

namespace dbsim::trace {

/**
 * Dynamic-instruction class.  The processor model maps these onto
 * functional-unit demands and memory-system actions.
 */
enum class OpClass : std::uint8_t {
    IntAlu,       ///< integer arithmetic (uses an integer ALU)
    FpAlu,        ///< floating-point operation (uses an FP unit)
    Load,         ///< memory load (uses an address-generation unit)
    Store,        ///< memory store (uses an address-generation unit)
    BranchCond,   ///< conditional branch (hybrid PA/g predictor)
    BranchJmp,    ///< unconditional jump / indirect branch (BTB)
    BranchCall,   ///< call (BTB + pushes return-address stack)
    BranchRet,    ///< return (pops return-address stack)
    MemBarrier,   ///< Alpha MB: full memory fence
    WriteBarrier, ///< Alpha WMB: write fence
    LockAcquire,  ///< annotated lock acquire (RMW on vaddr, may spin)
    LockRelease,  ///< annotated lock release (store to vaddr)
    SyscallBlock, ///< blocking system call; extra = I/O latency in cycles
    Prefetch,     ///< software prefetch hint (non-binding, shared)
    PrefetchExcl, ///< software prefetch-exclusive hint
    Flush,        ///< flush / WriteThrough hint: sharing writeback of vaddr
};

/** Number of distinct OpClass values. */
inline constexpr std::size_t kNumOpClasses = 16;

/** True for classes that carry a data memory address. */
bool isMemory(OpClass op);

/** True for loads and load-like sync reads. */
bool isLoad(OpClass op);

/** True for stores and store-like sync writes. */
bool isStore(OpClass op);

/** True for all branch classes. */
bool isBranch(OpClass op);

/** True for the non-binding software hint classes. */
bool isHint(OpClass op);

/** Human-readable class name. */
const char *opClassName(OpClass op);

/**
 * One dynamic instruction.
 *
 * Dependence encoding: dep1/dep2 give the distance, in dynamic
 * instructions, backwards to the producers of this instruction's source
 * operands (0 = no dependence / producer too far back to matter).  For a
 * load, dep1 is the address-generation dependence; for a store, dep1 is
 * the address and dep2 the data dependence.  The out-of-order core uses
 * these to build its wakeup graph; the in-order core stalls on them.
 */
struct TraceRecord
{
    Addr pc = 0;             ///< virtual PC of the instruction
    Addr vaddr = kNoAddr;    ///< data virtual address (memory ops / hints)
    std::uint64_t extra = 0; ///< branch target, or syscall latency (cycles)
    OpClass op = OpClass::IntAlu;
    std::uint8_t dep1 = 0;   ///< distance to first source producer
    std::uint8_t dep2 = 0;   ///< distance to second source producer
    bool taken = false;      ///< conditional-branch outcome

    bool operator==(const TraceRecord &) const = default;
};

/** Compact single-line rendering, for debugging and golden tests. */
std::string toString(const TraceRecord &rec);

/** Checkpoint field list of a TraceRecord (field-by-field; never
 *  memcpy); @p rec is const when @p ar is a snap::Writer. */
template <class Ar, class Rec>
void
recordFields(Ar &ar, Rec &rec)
{
    ar.u64(rec.pc);
    ar.u64(rec.vaddr);
    ar.u64(rec.extra);
    ar.u8(rec.op);
    ar.u8(rec.dep1);
    ar.u8(rec.dep2);
    ar.boolean(rec.taken);
}

} // namespace dbsim::trace

#endif // DBSIM_TRACE_RECORD_HPP
