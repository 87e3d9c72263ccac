#include "verify/oracles.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/breakdown.hpp"
#include "common/errors.hpp"
#include "common/log.hpp"
#include "core/config_gen.hpp"
#include "core/json_writer.hpp"
#include "sim/diagnostics.hpp"

namespace dbsim::verify {

std::string
firstLine(const std::string &s)
{
    const std::size_t nl = s.find('\n');
    return nl == std::string::npos ? s : s.substr(0, nl);
}

std::string
firstLines(const std::string &s, std::size_t n)
{
    std::size_t pos = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t nl = s.find('\n', pos);
        if (nl == std::string::npos)
            return s;
        pos = nl + 1;
    }
    return s.substr(0, pos);
}

/**
 * Triage-bucket key: oracle name + the first detail line with digit
 * runs collapsed to '#', so the same root cause lands in the same
 * bucket across node counts, cycle numbers, and shrinking steps.
 */
std::string
oracleBucketSignature(OracleKind k, const std::string &detail)
{
    std::string line = firstLine(detail);
    std::string norm;
    norm.reserve(line.size());
    bool in_digits = false;
    for (const char c : line) {
        if (c >= '0' && c <= '9') {
            if (!in_digits)
                norm += '#';
            in_digits = true;
        } else {
            in_digits = false;
            norm += c;
        }
    }
    if (norm.size() > 160)
        norm.resize(160);
    return std::string(oracleName(k)) + ":" + norm;
}

OracleVerdict
makeFailVerdict(OracleKind k, const std::string &detail,
                const std::string &dump_excerpt)
{
    OracleVerdict v;
    v.oracle = k;
    v.ok = false;
    v.detail = detail;
    v.signature = oracleBucketSignature(k, detail);
    v.dump_excerpt = dump_excerpt;
    return v;
}

namespace {

OracleVerdict
failVerdict(OracleKind k, const std::string &detail,
            const std::string &dump = {})
{
    return makeFailVerdict(k, detail, dump);
}

OracleVerdict
passVerdict(OracleKind k, const std::string &detail = {})
{
    OracleVerdict v;
    v.oracle = k;
    v.ok = true;
    v.detail = detail;
    return v;
}

/** Collect RunArtifacts from a finished simulation. */
RunArtifacts
collectArtifacts(core::Simulation &simulation, const core::SimConfig &cfg,
                 const sim::RunResult &r)
{
    RunArtifacts a;
    a.result = r;
    const sim::System &sys = simulation.system();
    a.ch = simulation.characterize();
    a.fabric = sys.fabric().stats();
    a.num_nodes = sys.numNodes();
    for (std::uint32_t i = 0; i < sys.numNodes(); ++i) {
        const sim::NodeStats &ns = sys.node(i).stats();
        a.nodes.l1i_fetches += ns.l1i_fetches;
        a.nodes.l1i_misses += ns.l1i_misses;
        a.nodes.l1i_sbuf_hits += ns.l1i_sbuf_hits;
        a.nodes.l1d_accesses += ns.l1d_accesses;
        a.nodes.l1d_misses += ns.l1d_misses;
        a.nodes.l1d_delayed_hits += ns.l1d_delayed_hits;
        a.nodes.l2_accesses += ns.l2_accesses;
        a.nodes.l2_misses += ns.l2_misses;
        a.nodes.l2_delayed_hits += ns.l2_delayed_hits;
        a.nodes.prefetches_dropped += ns.prefetches_dropped;
        a.nodes.flush_hints += ns.flush_hints;
        a.context_switches += sys.core(i).stats().context_switches;
    }
    a.final_cycle = sys.now();
    a.final_state_hash = sys.stateHash();
    a.final_dump = sim::machineStateDump(sys);
    a.config_signature = core::simConfigSignature(cfg);
    a.conservation = sim::conservationViolations(sys, r);
    return a;
}

/**
 * Run @p cfg on a fresh core::Simulation with @p bug seeded -- the one
 * place a ProtocolMutator is attached -- and return what @p collect
 * makes of the finished simulation, its result and the trigger count.
 */
template <typename Collect>
auto
runWithBug(ProtocolBug bug, const core::SimConfig &cfg, Collect collect)
{
    ProtocolMutator mut;
    mut.bug = bug;
    core::SimConfig run_cfg = cfg;
    if (bug != ProtocolBug::None)
        run_cfg.system.core.mutator = &mut; // core-side decision points
    core::Simulation simulation(run_cfg);
    simulation.prepare();
    if (bug != ProtocolBug::None)
        simulation.system().attachMutator(&mut); // fabric-side points
    const sim::RunResult r = simulation.run();
    return collect(simulation, r, mut.triggers);
}

/** Where two runs of one config first disagree (localizeDivergence). */
struct Localization
{
    std::string detail; ///< verdict lines, each starting with '\n'
    Cycles cycle = 0;   ///< bisected first divergent cycle; 0 = not bisected
};

/**
 * The one divergence localizer, for runs @p ra (on @p ref) and @p ca
 * (on @p cand) of @p cfg whose artifacts differ.  Names the first
 * differing epoch-hash sample, else a stream-length mismatch, else a
 * counters-only divergence.  With @p bisect set and an earlier
 * agreeing sample, binary-searches stateAt() probes between the two
 * samples down to the first divergent cycle.
 */
Localization
localizeDivergence(const Engine &ref, const Engine &cand,
                   const core::SimConfig &cfg, const RunArtifacts &ra,
                   const RunArtifacts &ca, bool bisect)
{
    const std::vector<sim::EpochHash> &ea = ra.result.epoch_hashes;
    const std::vector<sim::EpochHash> &eb = ca.result.epoch_hashes;
    const std::size_t n = std::min(ea.size(), eb.size());
    std::size_t k = 0;
    while (k < n && ea[k].epoch == eb[k].epoch && ea[k].hash == eb[k].hash)
        ++k;

    Localization out;
    std::ostringstream os;
    if (k < n) {
        os << "\nfirst divergent epoch: cycle " << ea[k].epoch << " (sample "
           << k << ")";
        if (bisect && k > 0) {
            // The states agree at lo and differ at hi; neither bound is
            // probed, so no probe is cycle 0 (stop_at_cycle 0 would run
            // to completion).
            Cycles lo = ea[k - 1].epoch, hi = ea[k].epoch;
            while (hi - lo > 1) {
                const Cycles mid = lo + (hi - lo) / 2;
                if (ref.stateAt(cfg, mid).hash != cand.stateAt(cfg, mid).hash)
                    hi = mid;
                else
                    lo = mid;
            }
            out.cycle = hi;
            os << "\nbisected first divergent cycle: " << hi;
        }
    } else if (ea.size() != eb.size()) {
        os << "\nepoch streams agree but lengths differ: " << ea.size()
           << " vs " << eb.size();
    } else {
        os << "\nepoch streams identical; divergence is counters-only";
    }
    out.detail = os.str();
    return out;
}

void
appendRange01(std::vector<std::string> &issues, const char *what, double v)
{
    if (!(v >= 0.0 && v <= 1.0)) {
        std::ostringstream os;
        os << what << " out of [0,1]: " << v;
        issues.push_back(os.str());
    }
}

} // namespace

const char *
oracleName(OracleKind k)
{
    switch (k) {
    case OracleKind::Conservation: return "conservation";
    case OracleKind::Determinism: return "determinism";
    case OracleKind::CheckpointRoundTrip: return "checkpoint";
    case OracleKind::Coherence: return "coherence";
    case OracleKind::Differential: return "differential";
    case OracleKind::Crash: return "crash";
    }
    return "unknown";
}

const char *
artifactFaultName(ArtifactFault f)
{
    switch (f) {
    case ArtifactFault::None: return "none";
    case ArtifactFault::BreakdownLeak: return "breakdown-leak";
    case ArtifactFault::CounterSkew: return "counter-skew";
    case ArtifactFault::EpochHashDrop: return "epoch-hash-drop";
    }
    return "unknown";
}

std::string
renderArtifacts(const RunArtifacts &a)
{
    std::ostringstream os;
    core::JsonWriter w(os, 0);
    w.beginObject();
    w.kv("schema", "dbsim-fuzz-artifacts-v1");
    w.kv("config_signature", a.config_signature);
    w.kv("num_nodes", a.num_nodes);
    w.kv("final_cycle", a.final_cycle);
    w.kv("final_state_hash", a.final_state_hash);
    w.kv("cycles", a.result.cycles);
    w.kv("instructions", a.result.instructions);
    w.kv("ipc", a.result.ipc);
    w.key("breakdown").beginObject();
    for (std::size_t c = 0; c < kNumStallCats; ++c) {
        w.kv(stallCatName(static_cast<StallCat>(c)), a.result.breakdown.cycles[c]);
    }
    w.endObject();
    w.key("epoch_hashes").beginArray();
    for (const sim::EpochHash &e : a.result.epoch_hashes) {
        w.beginArray().value(e.epoch).value(e.hash).endArray();
    }
    w.endArray();
    w.key("characterization").beginObject();
    w.kv("l1i_miss_per_fetch", a.ch.l1i_miss_per_fetch);
    w.kv("l1i_mpki", a.ch.l1i_mpki);
    w.kv("l1d_miss_rate", a.ch.l1d_miss_rate);
    w.kv("l2_miss_rate", a.ch.l2_miss_rate);
    w.kv("branch_mispredict_rate", a.ch.branch_mispredict_rate);
    w.kv("itlb_miss_rate", a.ch.itlb_miss_rate);
    w.kv("dtlb_miss_rate", a.ch.dtlb_miss_rate);
    w.kv("dirty_misses", a.ch.dirty_misses);
    w.kv("total_l2_misses", a.ch.total_l2_misses);
    w.kv("spec_load_violations", a.ch.spec_load_violations);
    w.endObject();
    w.key("fabric").beginObject();
    w.kv("reads_local", a.fabric.reads_local);
    w.kv("reads_remote", a.fabric.reads_remote);
    w.kv("reads_dirty", a.fabric.reads_dirty);
    w.kv("writes_local", a.fabric.writes_local);
    w.kv("writes_remote", a.fabric.writes_remote);
    w.kv("writes_dirty", a.fabric.writes_dirty);
    w.kv("upgrades", a.fabric.upgrades);
    w.kv("migratory_handoffs", a.fabric.migratory_handoffs);
    w.kv("invalidations_sent", a.fabric.invalidations_sent);
    w.kv("writebacks", a.fabric.writebacks);
    w.kv("flushes", a.fabric.flushes);
    w.endObject();
    w.key("nodes").beginObject();
    w.kv("l1i_fetches", a.nodes.l1i_fetches);
    w.kv("l1i_misses", a.nodes.l1i_misses);
    w.kv("l1i_sbuf_hits", a.nodes.l1i_sbuf_hits);
    w.kv("l1d_accesses", a.nodes.l1d_accesses);
    w.kv("l1d_misses", a.nodes.l1d_misses);
    w.kv("l1d_delayed_hits", a.nodes.l1d_delayed_hits);
    w.kv("l2_accesses", a.nodes.l2_accesses);
    w.kv("l2_misses", a.nodes.l2_misses);
    w.kv("l2_delayed_hits", a.nodes.l2_delayed_hits);
    w.kv("prefetches_dropped", a.nodes.prefetches_dropped);
    w.kv("flush_hints", a.nodes.flush_hints);
    w.endObject();
    w.kv("context_switches", a.context_switches);
    w.key("conservation").beginArray();
    for (const std::string &s : a.conservation)
        w.value(s);
    w.endArray();
    w.endObject();
    return os.str();
}

std::string
Engine::name() const
{
    if (bug_ == ProtocolBug::None)
        return "serial";
    return std::string("mutant:") + protocolBugName(bug_);
}

RunArtifacts
Engine::execute(const core::SimConfig &cfg) const
{
    return runWithBug(bug_, cfg,
                      [&cfg](core::Simulation &simulation,
                             const sim::RunResult &r, std::uint64_t triggers) {
                          RunArtifacts a = collectArtifacts(simulation, cfg, r);
                          a.bug_triggers = triggers;
                          return a;
                      });
}

Engine::State
Engine::stateAt(const core::SimConfig &cfg, Cycles cycle) const
{
    DBSIM_ASSERT(cycle > 0, "stop_at_cycle 0 would run to completion");
    core::SimConfig probe = cfg;
    probe.system.state_hash_interval = 0;
    probe.system.stop_at_cycle = cycle;
    return runWithBug(bug_, probe,
                      [](core::Simulation &simulation, const sim::RunResult &,
                         std::uint64_t) {
                          const sim::System &sys = simulation.system();
                          return State{sys.stateHash(),
                                       sim::machineStateDump(sys)};
                      });
}

void
applyArtifactFault(RunArtifacts &a, ArtifactFault f)
{
    switch (f) {
    case ArtifactFault::None:
        break;
    case ArtifactFault::BreakdownLeak: {
        // An accounting bug that loses busy cycles: the breakdown no
        // longer sums to the accounted window.
        const double leak =
            0.05 * static_cast<double>(a.result.cycles) *
                static_cast<double>(a.num_nodes) +
            2.0;
        a.result.breakdown[StallCat::Busy] -= leak;
        break;
    }
    case ArtifactFault::CounterSkew:
        // Cross-counter skew: a subset counter exceeds its superset.
        a.nodes.l1i_sbuf_hits = a.nodes.l1i_misses + 1;
        a.ch.dirty_misses = a.ch.total_l2_misses + 1;
        break;
    case ArtifactFault::EpochHashDrop:
        if (a.result.epoch_hashes.size() >= 2) {
            a.result.epoch_hashes.erase(a.result.epoch_hashes.begin() +
                                        static_cast<std::ptrdiff_t>(
                                            a.result.epoch_hashes.size() / 2));
        } else {
            a.result.epoch_hashes.clear();
        }
        break;
    }
}

OracleVerdict
checkConservation(const core::SimConfig &cfg, const RunArtifacts &a)
{
    std::vector<std::string> issues = a.conservation;

    appendRange01(issues, "l1i_miss_per_fetch", a.ch.l1i_miss_per_fetch);
    appendRange01(issues, "l1d_miss_rate", a.ch.l1d_miss_rate);
    appendRange01(issues, "l2_miss_rate", a.ch.l2_miss_rate);
    appendRange01(issues, "branch_mispredict_rate",
                  a.ch.branch_mispredict_rate);
    appendRange01(issues, "itlb_miss_rate", a.ch.itlb_miss_rate);
    appendRange01(issues, "dtlb_miss_rate", a.ch.dtlb_miss_rate);
    if (a.ch.l1i_mpki < 0.0)
        issues.push_back("negative l1i_mpki");

    if (a.ch.dirty_misses > a.ch.total_l2_misses) {
        std::ostringstream os;
        os << "dirty_misses > total_l2_misses: " << a.ch.dirty_misses << " > "
           << a.ch.total_l2_misses;
        issues.push_back(os.str());
    }
    if (a.nodes.l1i_sbuf_hits > a.nodes.l1i_misses) {
        std::ostringstream os;
        os << "l1i_sbuf_hits > l1i_misses: " << a.nodes.l1i_sbuf_hits << " > "
           << a.nodes.l1i_misses;
        issues.push_back(os.str());
    }
    if (a.nodes.l1d_misses > a.nodes.l1d_accesses)
        issues.push_back("summed l1d_misses > l1d_accesses");
    if (a.nodes.l2_misses > a.nodes.l2_accesses)
        issues.push_back("summed l2_misses > l2_accesses");

    // Breakdown mass: every core accounts its full window, so total
    // breakdown mass (idle included) is cycles x cores up to rounding.
    {
        double mass = 0.0;
        for (const double c : a.result.breakdown.cycles)
            mass += c;
        const double want = static_cast<double>(a.result.cycles) *
                            static_cast<double>(a.num_nodes);
        const double tol =
            static_cast<double>(a.num_nodes) * (1.0 + 1e-6 * want);
        if (std::abs(mass - want) > tol) {
            std::ostringstream os;
            os << "breakdown mass " << mass << " != cycles*cores " << want
               << " (tolerance " << tol << ")";
            issues.push_back(os.str());
        }
    }

    // Epoch placement: with hashing enabled and no restore (the fuzzer
    // never restores inside this oracle), samples sit at exactly
    // {0, i, 2i, ...} and never beyond the final cycle.
    const Cycles interval = cfg.system.state_hash_interval;
    if (interval) {
        if (a.result.epoch_hashes.empty()) {
            issues.push_back("state hashing enabled but no epoch samples");
        }
        for (std::size_t k = 0; k < a.result.epoch_hashes.size(); ++k) {
            const Cycles want = static_cast<Cycles>(k) * interval;
            if (a.result.epoch_hashes[k].epoch != want) {
                std::ostringstream os;
                os << "epoch sample " << k << " at cycle "
                   << a.result.epoch_hashes[k].epoch << ", expected " << want;
                issues.push_back(os.str());
                break;
            }
        }
        if (!a.result.epoch_hashes.empty() &&
            a.result.epoch_hashes.back().epoch > a.final_cycle) {
            issues.push_back("epoch sample beyond the final cycle");
        }
    }

    if (issues.empty())
        return passVerdict(OracleKind::Conservation);
    std::string detail;
    for (const std::string &s : issues) {
        if (!detail.empty())
            detail += "\n";
        detail += s;
    }
    return failVerdict(OracleKind::Conservation, detail);
}

OracleVerdict
checkDeterminism(const Engine &eng, const core::SimConfig &cfg,
                 const RunArtifacts &first)
{
    RunArtifacts second;
    try {
        second = eng.execute(cfg);
    } catch (const std::exception &e) {
        return failVerdict(OracleKind::Determinism,
                           std::string("re-run died: ") + e.what());
    }
    const std::string ra = renderArtifacts(first);
    const std::string rb = renderArtifacts(second);
    if (ra == rb && first.final_dump == second.final_dump)
        return passVerdict(OracleKind::Determinism);

    std::string detail = ra != rb
                             ? "same-seed re-run rendered different artifacts"
                             : "same-seed re-run produced a different machine "
                               "dump";
    detail += localizeDivergence(eng, eng, cfg, first, second, false).detail;
    return failVerdict(OracleKind::Determinism, detail);
}

OracleVerdict
checkCheckpointRoundTrip(const core::SimConfig &cfg,
                         const std::string &scratch_path,
                         std::uint64_t corrupt_offset)
{
    // Re-run the config to its midpoint, checkpoint there, restore into
    // a fresh machine, finish, and demand the same final artifacts an
    // uninterrupted run produces.
    RunArtifacts ref;
    try {
        ref = Engine().execute(cfg);
    } catch (const std::exception &e) {
        return failVerdict(OracleKind::CheckpointRoundTrip,
                           std::string("reference run died: ") + e.what());
    }
    if (ref.final_cycle < 8)
        return passVerdict(OracleKind::CheckpointRoundTrip,
                           "run too short to checkpoint mid-flight");

    std::remove(scratch_path.c_str());
    try {
        core::SimConfig stop_cfg = cfg;
        stop_cfg.system.stop_at_cycle = ref.final_cycle / 2;
        stop_cfg.system.checkpoint_path = scratch_path;
        core::Simulation stopper(stop_cfg);
        stopper.run();
    } catch (const std::exception &e) {
        std::remove(scratch_path.c_str());
        return failVerdict(OracleKind::CheckpointRoundTrip,
                           std::string("checkpointing run died: ") + e.what());
    }

    if (corrupt_offset) {
        // Seeded checkpoint corruption (teeth tests): flip one byte.
        std::fstream f(scratch_path,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekg(0, std::ios::end);
        const std::streamoff size = f.tellg();
        if (size > 0) {
            const std::streamoff at =
                static_cast<std::streamoff>(corrupt_offset) % size;
            f.seekg(at);
            char b = 0;
            f.read(&b, 1);
            b = static_cast<char>(b ^ 0x5a);
            f.seekp(at);
            f.write(&b, 1);
        }
    }

    OracleVerdict out = passVerdict(OracleKind::CheckpointRoundTrip);
    try {
        core::Simulation resumed(cfg);
        if (!resumed.restoreFromCheckpoint(scratch_path)) {
            out = failVerdict(
                OracleKind::CheckpointRoundTrip,
                "restore refused a checkpoint written moments earlier "
                "(corrupt or incompatible file)");
        } else {
            const sim::RunResult r = resumed.run();
            RunArtifacts got = collectArtifacts(resumed, cfg, r);
            if (renderArtifacts(got) != renderArtifacts(ref)) {
                out = failVerdict(
                    OracleKind::CheckpointRoundTrip,
                    "restored run's final artifacts differ from the "
                    "uninterrupted run");
            } else if (got.final_dump != ref.final_dump) {
                out = failVerdict(
                    OracleKind::CheckpointRoundTrip,
                    "restored run's machine dump differs from the "
                    "uninterrupted run");
            }
        }
    } catch (const std::exception &e) {
        out = failVerdict(OracleKind::CheckpointRoundTrip,
                          std::string("restored run died: ") + e.what());
    }
    std::remove(scratch_path.c_str());
    return out;
}

OracleVerdict
checkCoherence(const core::SimConfig &cfg)
{
    core::SimConfig checked = cfg;
    checked.system.check_coherence = true;
    PanicThrowGuard guard;
    try {
        (void)Engine().execute(checked);
    } catch (const SimInvariantError &e) {
        const std::string what = e.what();
        return failVerdict(OracleKind::Coherence, firstLine(what),
                           firstLines(what, 12));
    } catch (const std::exception &e) {
        return failVerdict(OracleKind::Coherence,
                           std::string("checked run died: ") + e.what());
    }
    return passVerdict(OracleKind::Coherence);
}

OracleVerdict
compareEngines(const Engine &ref, const Engine &cand,
               const core::SimConfig &cfg, bool localize)
{
    PanicThrowGuard guard;
    RunArtifacts ra;
    try {
        ra = ref.execute(cfg);
    } catch (const std::exception &e) {
        return failVerdict(OracleKind::Differential,
                           "reference engine " + ref.name() +
                               " died: " + e.what());
    }

    RunArtifacts ca;
    try {
        ca = cand.execute(cfg);
    } catch (const std::exception &e) {
        // A dying candidate is a *detected* divergence: the dynamic
        // checkers killed it where the reference survived.
        return failVerdict(OracleKind::Differential,
                           "candidate engine " + cand.name() +
                               " died: " + firstLine(e.what()),
                           firstLines(e.what(), 12));
    }

    if (renderArtifacts(ra) == renderArtifacts(ca) &&
        ra.final_dump == ca.final_dump) {
        std::ostringstream os;
        os << "engines identical (candidate bug triggers: "
           << ca.bug_triggers << ")";
        OracleVerdict v = passVerdict(OracleKind::Differential, os.str());
        v.cand_bug_triggers = ca.bug_triggers;
        return v;
    }

    const Localization where =
        localizeDivergence(ref, cand, cfg, ra, ca, localize);
    std::ostringstream os;
    os << "engines diverge (" << ref.name() << " vs " << cand.name()
       << ", candidate bug triggers: " << ca.bug_triggers << ")"
       << where.detail;
    OracleVerdict v = failVerdict(OracleKind::Differential, os.str());
    v.cand_bug_triggers = ca.bug_triggers;
    v.divergent_cycle = where.cycle;
    return v;
}

} // namespace dbsim::verify
