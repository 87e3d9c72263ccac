/**
 * @file
 * Random valid configuration generation for property-based fuzzing
 * (DESIGN.md §5i), plus the two pieces of plumbing the fuzz layer's
 * repro files are built from:
 *
 *  - simConfigSignature(): a pure FNV-1a hash over every *semantic*
 *    field of a SimConfig (machine geometry, workload shape, run
 *    budgets) in a fixed serialization order.  Unlike
 *    System::configSignature() it needs no machine to be built, so the
 *    fuzzer can fingerprint thousands of generated configs cheaply.
 *    The machine block (core, node, fabric, mesh) is written by
 *    sim::signMachineParams(), the same field list the checkpoint
 *    signature hashes, so the two fingerprints cannot drift apart.
 *    Host observation knobs (checkpoint paths/intervals, stop_at_cycle,
 *    check_coherence, state_hash_interval, watchdog) are excluded: two
 *    configs that simulate identically hash identically.
 *
 *  - the flat override catalog (applyConfigOverride): every shrinking
 *    transformation and every repro-file delta is expressed as a
 *    (key, u64 value) pair from this catalog, so a repro file is just
 *    "generator seed + sorted override list" and replays bit-exactly
 *    on any host.
 *
 * randomSimConfig() draws every knob from the caller's Rng in a fixed
 * order, so one u64 seed determines the whole configuration.  The
 * generated config is valid by construction (validate() is called
 * before returning -- a throw here is a generator bug, not a finding).
 */

#ifndef DBSIM_CORE_CONFIG_GEN_HPP
#define DBSIM_CORE_CONFIG_GEN_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/config.hpp"

namespace dbsim::core {

/**
 * Bounds of the generated configuration space.  The defaults cover the
 * full supported machine space at fuzz-friendly run lengths: budgets
 * are *total* instructions across all CPUs, so a generated run stays
 * sub-second regardless of node count.
 */
struct FuzzSpace
{
    std::uint32_t max_nodes = 8;              ///< 1..max_nodes, powers of two
    std::uint64_t min_instructions = 20'000;  ///< total-budget lower bound
    std::uint64_t max_instructions = 60'000;  ///< total-budget upper bound
};

/**
 * Draw one random valid SimConfig.  Covers 1-8 nodes, OLTP and DSS,
 * cache/MSHR/TLB geometry, SC/PC/RC x inorder/ooo x {spec_loads,
 * hw_prefetch}, stream buffers on/off, migratory/flush fabric modes,
 * and software hints.  Epoch state-hashing is always enabled (the
 * determinism and checkpoint oracles compare epoch-hash streams).
 */
SimConfig randomSimConfig(Rng &rng, const FuzzSpace &space = {});

/** Pure structural signature (see file comment). */
std::uint64_t simConfigSignature(const SimConfig &cfg);

/**
 * Apply one named override to @p cfg.  Returns false (config untouched)
 * for an unknown key.  "num_nodes" and "procs_per_cpu" preserve the
 * other half of the process-placement product so the result stays
 * valid.  The caller re-validates after applying a batch: an override
 * combination that fails validate() is simply rejected by the shrinker.
 */
bool applyConfigOverride(SimConfig &cfg, const std::string &key,
                         std::uint64_t value);

/** The full override catalog, in the order the shrinker tries them. */
const std::vector<std::string> &configOverrideKeys();

} // namespace dbsim::core

#endif // DBSIM_CORE_CONFIG_GEN_HPP
