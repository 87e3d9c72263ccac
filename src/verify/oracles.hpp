/**
 * @file
 * Invariant oracles and the differential-engine harness for
 * property-based simulation fuzzing (DESIGN.md §5i).
 *
 * An Engine turns a SimConfig into RunArtifacts -- every deterministic
 * observable of one complete run (report fields, characterization,
 * counters, epoch-hash stream, final state hash and machine dump).
 * It is the production serial simulator (core::Simulation), optionally
 * with one verify::ProtocolBug seeded through the real decision points.
 *
 * Oracles return a structured OracleVerdict instead of asserting, so
 * the fuzzer can triage failures into buckets by signature and the
 * shrinker can re-evaluate a candidate config cheaply:
 *
 *  - conservation: the sim-layer accounting audit
 *    (sim::conservationViolations) plus artifact-level
 *    cross-consistency (rates in [0,1], dirty <= total misses,
 *    stream-buffer hits <= L1I misses, breakdown mass = cycles x
 *    cores, epoch samples at exact interval boundaries);
 *  - determinism: a same-config re-run must render byte-identical
 *    artifacts and machine dump;
 *  - checkpoint round-trip: save at the run's midpoint via
 *    stop_at_cycle, restore into a fresh Simulation, finish, and
 *    demand a byte-identical final render + dump (a refused restore
 *    of a file we just wrote is itself a failure -- that is how
 *    seeded checkpoint corruption is detected);
 *  - coherence: full run with the invariant checker armed
 *    (check_coherence = the DBSIM_CHECK=1 machinery), any panic
 *    converted into a verdict carrying the crash-dump excerpt;
 *  - differential: reference vs candidate engine on rendered
 *    artifacts; on mismatch the epoch-hash streams localize the first
 *    divergent epoch, refined to a cycle by bisecting with
 *    Engine::stateAt() probes (tools/dbsim-diverge is a CLI over it).
 */

#ifndef DBSIM_VERIFY_ORACLES_HPP
#define DBSIM_VERIFY_ORACLES_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/mutator.hpp"
#include "coherence/directory.hpp"
#include "core/config.hpp"
#include "core/simulation.hpp"
#include "sim/node.hpp"
#include "sim/system.hpp"

namespace dbsim::verify {

/** Every deterministic observable of one complete run. */
struct RunArtifacts
{
    sim::RunResult result;
    core::Characterization ch;
    coher::FabricStats fabric;
    sim::NodeStats nodes;            ///< summed over all nodes
    std::uint64_t context_switches = 0;
    std::uint32_t num_nodes = 0;
    Cycles final_cycle = 0;          ///< system.now() at run end
    std::uint64_t final_state_hash = 0;
    std::uint64_t config_signature = 0; ///< core::simConfigSignature
    std::string final_dump;          ///< machineStateDump (deterministic)

    /** sim::conservationViolations output for this run (collected even
     *  when the run-loop audit is disarmed). */
    std::vector<std::string> conservation;

    /** Mutator trigger count (mutant engines; excluded from renders --
     *  distinguishes "no divergence" from "bug never exercised"). */
    std::uint64_t bug_triggers = 0;
};

/**
 * Canonical render of @p a: one compact JSON document with fields in a
 * fixed order, doubles in round-trip %.17g form, the full epoch-hash
 * stream, and no host-dependent values.  Two runs are "identical"
 * exactly when their renders (and final dumps) are byte-equal.
 */
std::string renderArtifacts(const RunArtifacts &a);

/**
 * The simulation engine: core::Simulation with an optional seeded
 * protocol bug (ProtocolBug::None is the production simulator).  The
 * mutator is attached at both decision-point families: core-side
 * consistency bugs via CoreParams, fabric-side protocol bugs via
 * System::attachMutator.
 */
class Engine
{
  public:
    explicit Engine(ProtocolBug bug = ProtocolBug::None) : bug_(bug) {}

    /** "serial", or "mutant:<bug>" with a seeded bug. */
    std::string name() const;

    /** Run @p cfg to completion and collect artifacts.  Throws what the
     *  simulation throws (SimInvariantError under a panic guard,
     *  SimTimeoutError, ...); compareEngines() treats a dying candidate
     *  as a detected divergence. */
    RunArtifacts execute(const core::SimConfig &cfg) const;

    /** The machine at one cycle. */
    struct State
    {
        std::uint64_t hash = 0; ///< System::stateHash()
        std::string dump;       ///< sim::machineStateDump()
    };

    /** Run @p cfg with epoch hashing off until the loop top reaches
     *  @p cycle (stop_at_cycle) and return the machine state there.
     *  @p cycle must be nonzero: stop_at_cycle 0 means "run to
     *  completion". */
    State stateAt(const core::SimConfig &cfg, Cycles cycle) const;

  private:
    ProtocolBug bug_;
};

/** Which oracle produced a verdict. */
enum class OracleKind : std::uint8_t
{
    Conservation,
    Determinism,
    CheckpointRoundTrip,
    Coherence,
    Differential,
    Crash, ///< the base run died with no checker armed (fuzzer-assigned)
};

const char *oracleName(OracleKind k);

/** Outcome of one oracle on one config. */
struct OracleVerdict
{
    OracleKind oracle = OracleKind::Conservation;
    bool ok = true;
    /** Triage-bucket key: "<oracle>:<first detail line, digits
     *  normalized to #>" -- stable across shrinking and node counts. */
    std::string signature;
    std::string detail;       ///< full multi-line explanation
    std::string dump_excerpt; ///< crash-dump excerpt when one exists

    /** Differential oracle only: the candidate's mutator trigger count
     *  (0 elsewhere).  A passing mutant comparison with 0 triggers
     *  means the bug was never exercised, not that it is benign. */
    std::uint64_t cand_bug_triggers = 0;

    /** Differential oracle only: the bisected first divergent cycle --
     *  the engines' states agree at cycle - 1 and differ at cycle.  0
     *  when the divergence was not localized to a cycle. */
    Cycles divergent_cycle = 0;
};

/** First line of @p s (the whole string if single-line). */
std::string firstLine(const std::string &s);

/** First @p n lines of @p s, newlines kept (crash-dump excerpts). */
std::string firstLines(const std::string &s, std::size_t n);

/**
 * Artifact-level fault injection (oracle teeth tests): corrupts a
 * *collected* RunArtifacts the way an accounting bug in the simulator
 * would, so tests can prove the conservation oracle catches each class.
 */
enum class ArtifactFault : std::uint8_t
{
    None,
    BreakdownLeak,  ///< leaks busy cycles out of the breakdown
    CounterSkew,    ///< cross-counter skew (sbuf hits > L1I misses, ...)
    EpochHashDrop,  ///< silently drops a mid-stream epoch sample
};

const char *artifactFaultName(ArtifactFault f);
void applyArtifactFault(RunArtifacts &a, ArtifactFault f);

/** Bucket signature for a detail string (see OracleVerdict::signature);
 *  exposed so the fuzzer can build Crash verdicts and tests can check
 *  signature stability. */
std::string oracleBucketSignature(OracleKind k, const std::string &detail);

/** Construct a failing verdict with the canonical bucket signature. */
OracleVerdict makeFailVerdict(OracleKind k, const std::string &detail,
                              const std::string &dump_excerpt = {});

/** Conservation oracle over already-collected artifacts. */
OracleVerdict checkConservation(const core::SimConfig &cfg,
                                const RunArtifacts &a);

/** Determinism oracle: re-execute @p cfg on @p eng and compare against
 *  the first run's render + dump. */
OracleVerdict checkDeterminism(const Engine &eng, const core::SimConfig &cfg,
                               const RunArtifacts &first);

/**
 * Checkpoint round-trip oracle.  @p scratch_path names the checkpoint
 * file to use (created and removed here).  When @p corrupt_offset is
 * nonzero the byte at that file offset (modulo file size) is flipped
 * after the save -- the seeded checkpoint-corruption bug for teeth
 * tests; the oracle must then fail with a refused restore.
 */
OracleVerdict checkCheckpointRoundTrip(const core::SimConfig &cfg,
                                       const std::string &scratch_path,
                                       std::uint64_t corrupt_offset = 0);

/** Coherence/consistency oracle: full run under the armed checker. */
OracleVerdict checkCoherence(const core::SimConfig &cfg);

/**
 * Differential oracle: @p ref and @p cand both run @p cfg; their
 * renders must be byte-identical.  A candidate that dies (panic /
 * invariant / timeout) is a detected divergence, not a harness error.
 * On mismatch the detail names the first divergent epoch sample; with
 * @p localize set it also bisects to the first divergent cycle.  The
 * shrinker passes false (it only needs the bucket signature, and each
 * probe is a partial re-run).
 */
OracleVerdict compareEngines(const Engine &ref, const Engine &cand,
                             const core::SimConfig &cfg,
                             bool localize = true);

} // namespace dbsim::verify

#endif // DBSIM_VERIFY_ORACLES_HPP
