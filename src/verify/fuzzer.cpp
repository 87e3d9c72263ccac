#include "verify/fuzzer.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <type_traits>

#include "common/errors.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "core/json_writer.hpp"
#include "core/sweep.hpp"
#include "cpu/consistency.hpp"

namespace dbsim::verify {

namespace {

std::string
scratchPath(const FuzzOptions &opts, std::uint32_t index)
{
    return opts.scratch_dir + "/dbsim_fuzz_" + std::to_string(opts.seed) +
           "_" + std::to_string(index) + ".ckpt";
}

OracleVerdict
crashVerdict(const std::exception &e)
{
    const std::string what = e.what();
    return makeFailVerdict(OracleKind::Crash,
                           "base run died: " + firstLine(what),
                           firstLines(what, 12));
}

/**
 * Run exactly one oracle on @p cfg from scratch (no artifact reuse).
 * This is the shrinker's predicate and the repro replay path; the fuzz
 * case itself reuses its base run's artifacts where it can.
 */
OracleVerdict
runOracleKind(const FuzzOptions &opts, OracleKind k,
              const core::SimConfig &cfg, const std::string &scratch,
              bool localize)
{
    switch (k) {
      case OracleKind::Crash: {
        try {
            Engine(opts.inject_bug).execute(cfg);
        } catch (const std::exception &e) {
            return crashVerdict(e);
        }
        OracleVerdict v;
        v.oracle = OracleKind::Crash;
        v.detail = "base run completed";
        return v;
      }
      case OracleKind::Conservation: {
        RunArtifacts a;
        try {
            a = Engine(opts.inject_bug).execute(cfg);
        } catch (const std::exception &e) {
            return crashVerdict(e);
        }
        applyArtifactFault(a, opts.inject_fault);
        return checkConservation(cfg, a);
      }
      case OracleKind::Determinism: {
        const Engine eng(opts.inject_bug);
        RunArtifacts a;
        try {
            a = eng.execute(cfg);
        } catch (const std::exception &e) {
            return crashVerdict(e);
        }
        return checkDeterminism(eng, cfg, a);
      }
      case OracleKind::CheckpointRoundTrip:
        return checkCheckpointRoundTrip(cfg, scratch,
                                        opts.corrupt_checkpoint_offset);
      case OracleKind::Coherence:
        return checkCoherence(cfg);
      case OracleKind::Differential:
        return compareEngines(Engine(), Engine(opts.inject_bug), cfg,
                              localize);
    }
    DBSIM_PANIC("runOracleKind: unknown oracle kind ",
                static_cast<int>(k));
}

/**
 * Reduction candidates for one override key, given the current config.
 * Only strictly "smaller" values are proposed (most aggressive first);
 * an empty list means the key is already minimal.  state_hash_interval
 * is never shrunk: it changes what the oracles observe, not what the
 * machine does, so reducing it can only mask a finding.
 */
std::vector<std::uint64_t>
shrinkCandidates(const std::string &key, const core::SimConfig &cfg,
                 const core::FuzzSpace &space)
{
    std::vector<std::uint64_t> out;
    const auto lessThan = [&out](std::initializer_list<std::uint64_t> xs,
                                 std::uint64_t cur) {
        for (const std::uint64_t x : xs)
            if (x < cur)
                out.push_back(x);
    };
    if (key == "num_nodes")
        lessThan({1, 2, 4}, cfg.system.num_nodes);
    else if (key == "total_instructions")
        lessThan({space.min_instructions}, cfg.total_instructions);
    else if (key == "warmup_instructions")
        lessThan({0}, cfg.warmup_instructions);
    else if (key == "procs_per_cpu")
        lessThan({1, 2}, cfg.procsPerCpu());
    else if (key == "stream_buffer_entries")
        lessThan({0}, cfg.system.node.stream_buffer_entries);
    else if (key == "hint_prefetch")
        lessThan({0}, cfg.hint_prefetch ? 1 : 0);
    else if (key == "hint_flush")
        lessThan({0}, cfg.hint_flush ? 1 : 0);
    else if (key == "adaptive_migratory")
        lessThan({0}, cfg.system.fabric.adaptive_migratory ? 1 : 0);
    else if (key == "flush_invalidates")
        lessThan({0}, cfg.system.fabric.flush_invalidates ? 1 : 0);
    else if (key == "migratory_read_factor_x100") {
        if (cfg.system.fabric.migratory_read_factor != 1.0)
            out.push_back(100); // factor 1.0 = migratory reads off
    } else if (key == "spec_loads")
        lessThan({0}, cfg.system.core.cons.spec_loads ? 1 : 0);
    else if (key == "hw_prefetch")
        lessThan({0}, cfg.system.core.cons.hw_prefetch ? 1 : 0);
    else if (key == "out_of_order")
        lessThan({0}, cfg.system.core.out_of_order ? 1 : 0);
    else if (key == "model")
        lessThan({0}, static_cast<std::uint64_t>(cfg.system.core.model));
    else if (key == "issue_width")
        lessThan({1}, cfg.system.core.issue_width);
    else if (key == "l1d_mshrs")
        lessThan({1}, cfg.system.node.l1d.mshrs);
    return out;
}

/** Regenerate case config from seed + overrides; false if invalid. */
bool
regenerate(const FuzzOptions &opts, std::uint64_t case_seed,
           const std::map<std::string, std::uint64_t> &overrides,
           core::SimConfig *cfg)
{
    ReproFile r;
    r.config_seed = case_seed;
    r.space = opts.space;
    r.overrides = overrides;
    try {
        *cfg = reproConfig(r);
    } catch (const ConfigError &) {
        return false;
    }
    return true;
}

std::string
hex16(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

std::uint64_t
fuzzCaseSeed(std::uint64_t master_seed, std::uint32_t index)
{
    // splitmix64 over (seed, index): adjacent indices land far apart,
    // and case i's config is independent of the campaign's count.
    return splitmix64(master_seed ^ splitmix64(index + 1));
}

core::SimConfig
fuzzCaseConfig(const FuzzOptions &opts, std::uint32_t index)
{
    Rng rng(fuzzCaseSeed(opts.seed, index));
    return core::randomSimConfig(rng, opts.space);
}

ShrinkOutcome
shrinkConfig(const FuzzOptions &opts, std::uint64_t case_seed,
             const std::string &bucket, const OraclePredicate &pred)
{
    ShrinkOutcome out;
    core::SimConfig best;
    if (!regenerate(opts, case_seed, out.overrides, &best))
        return out; // the unshrunk case must regenerate; give up
    std::uint64_t best_sig = core::simConfigSignature(best);

    for (const std::string &key : core::configOverrideKeys()) {
        for (const std::uint64_t cand :
             shrinkCandidates(key, best, opts.space)) {
            if (out.runs >= opts.max_shrink_runs)
                return out;
            std::map<std::string, std::uint64_t> trial = out.overrides;
            trial[key] = cand;
            core::SimConfig cfg;
            if (!regenerate(opts, case_seed, trial, &cfg))
                continue; // invalid combination: reject, try next
            const std::uint64_t sig = core::simConfigSignature(cfg);
            if (sig == best_sig)
                continue; // no-op override
            ++out.runs;
            OracleVerdict v;
            try {
                v = pred(cfg);
            } catch (const std::exception &) {
                continue; // predicate died: treat as "does not reproduce"
            }
            if (!v.ok && v.signature == bucket) {
                out.overrides = std::move(trial);
                best = cfg;
                best_sig = sig;
                break; // keep the most aggressive hit; next key
            }
        }
    }
    return out;
}

FuzzCaseResult
runFuzzCase(const FuzzOptions &opts, std::uint32_t index)
{
    PanicThrowGuard guard;
    FuzzCaseResult r;
    r.index = index;
    r.case_seed = fuzzCaseSeed(opts.seed, index);
    const core::SimConfig cfg = fuzzCaseConfig(opts, index);
    r.config_signature = core::simConfigSignature(cfg);
    const std::string scratch = scratchPath(opts, index);
    const Engine engine(opts.inject_bug);

    const auto record = [&r](const OracleVerdict &v) {
        ++r.oracles_run;
        if (!v.ok)
            r.failures.push_back(v);
    };

    RunArtifacts base;
    bool have_base = false;
    try {
        base = engine.execute(cfg);
        have_base = true;
        ++r.oracles_run; // the implicit crash oracle passed
    } catch (const std::exception &e) {
        r.failures.push_back(crashVerdict(e));
        ++r.oracles_run;
    }

    if (have_base) {
        applyArtifactFault(base, opts.inject_fault);
        if (opts.oracle_conservation)
            record(checkConservation(cfg, base));
        // A seeded artifact fault corrupts `base` after collection, so
        // a re-run would trivially mismatch it: skip determinism then,
        // keeping the conservation verdict alone in the triage bucket.
        if (opts.oracle_determinism &&
            opts.inject_fault == ArtifactFault::None) {
            record(checkDeterminism(engine, cfg, base));
        }
        if (opts.oracle_checkpoint) {
            record(checkCheckpointRoundTrip(
                cfg, scratch, opts.corrupt_checkpoint_offset));
        }
        if (opts.oracle_coherence)
            record(checkCoherence(cfg));
        if (opts.inject_bug != ProtocolBug::None)
            record(compareEngines(Engine(), engine, cfg, /*localize=*/true));
    }

    if (!r.failures.empty()) {
        const OracleVerdict &first = r.failures.front();
        if (opts.shrink) {
            const OraclePredicate pred =
                [&opts, &first, &scratch](const core::SimConfig &c) {
                    return runOracleKind(opts, first.oracle, c, scratch,
                                         /*localize=*/false);
                };
            ShrinkOutcome s =
                shrinkConfig(opts, r.case_seed, first.signature, pred);
            r.shrink_overrides = std::move(s.overrides);
            r.shrink_runs = s.runs;
        }
        if (!opts.repro_dir.empty()) {
            ReproFile rf;
            rf.config_seed = r.case_seed;
            rf.space = opts.space;
            rf.overrides = r.shrink_overrides;
            rf.oracle = first.oracle;
            rf.bug = opts.inject_bug;
            rf.fault = opts.inject_fault;
            rf.corrupt_checkpoint_offset = opts.corrupt_checkpoint_offset;
            rf.signature = first.signature;
            rf.detail = firstLine(first.detail);
            core::SimConfig shrunk;
            rf.config_signature =
                regenerate(opts, r.case_seed, rf.overrides, &shrunk)
                    ? core::simConfigSignature(shrunk)
                    : r.config_signature;
            const std::string path =
                opts.repro_dir + "/" + reproFileName(rf);
            std::ofstream os(path, std::ios::binary | std::ios::trunc);
            if (os) {
                os << renderRepro(rf);
                r.repro_path = path;
            } else {
                DBSIM_WARN("dbsim-fuzz: cannot write repro file ", path);
            }
        }
    }
    return r;
}

FuzzReport
runFuzz(const FuzzOptions &opts, std::ostream *log)
{
    // One process-global guard covers every worker thread (the same
    // idiom as SweepRunner::runChecked); the per-case guards nested
    // under it save and restore the already-Throw behavior.
    PanicThrowGuard guard;
    FuzzReport rep;
    rep.seed = opts.seed;
    rep.count = opts.count;
    rep.cases.resize(opts.count);

    std::mutex log_mu;
    core::forEachIndex(opts.count, opts.jobs, [&](std::size_t i) {
        FuzzCaseResult cr =
            runFuzzCase(opts, static_cast<std::uint32_t>(i));
        if (log && !cr.passed()) {
            const std::lock_guard<std::mutex> lock(log_mu);
            for (const OracleVerdict &f : cr.failures) {
                *log << "dbsim-fuzz: case " << i << " seed 0x"
                     << hex16(cr.case_seed) << " FAILED [" << f.signature
                     << "]\n";
            }
        }
        rep.cases[i] = std::move(cr);
    });

    // Triage: bucket by verdict signature, in case-index order so the
    // report is independent of completion order (and of jobs).
    std::map<std::string, TriageBucket> buckets;
    for (const FuzzCaseResult &c : rep.cases) {
        if (!c.passed())
            ++rep.failed_cases;
        for (const OracleVerdict &f : c.failures) {
            TriageBucket &b = buckets[f.signature];
            if (b.count == 0) {
                b.signature = f.signature;
                b.first_index = c.index;
                b.detail = firstLine(f.detail);
                b.repro_path = c.repro_path;
            }
            ++b.count;
        }
    }
    rep.buckets.reserve(buckets.size());
    for (const auto &[sig, b] : buckets)
        rep.buckets.push_back(b);
    return rep;
}

std::string
renderFuzzReport(const FuzzOptions &opts, const FuzzReport &rep)
{
    std::ostringstream os;
    core::JsonWriter w(os, 2);
    w.beginObject();
    w.kv("schema", "dbsim-fuzz-v1");
    w.kv("seed", rep.seed);
    w.kv("count", rep.count);
    w.key("space").beginObject();
    w.kv("max_nodes", opts.space.max_nodes);
    w.kv("min_instructions", opts.space.min_instructions);
    w.kv("max_instructions", opts.space.max_instructions);
    w.endObject();
    w.key("oracles").beginObject();
    w.kv("conservation", opts.oracle_conservation);
    w.kv("determinism", opts.oracle_determinism);
    w.kv("checkpoint", opts.oracle_checkpoint);
    w.kv("coherence", opts.oracle_coherence);
    w.kv("differential", opts.inject_bug != ProtocolBug::None);
    w.endObject();
    w.key("injections").beginObject();
    w.kv("bug", protocolBugName(opts.inject_bug));
    w.kv("fault", artifactFaultName(opts.inject_fault));
    w.kv("corrupt_checkpoint_offset", opts.corrupt_checkpoint_offset);
    w.endObject();
    w.kv("passed", std::uint64_t{rep.count - rep.failed_cases});
    w.kv("failed", std::uint64_t{rep.failed_cases});
    w.key("buckets").beginArray();
    for (const TriageBucket &b : rep.buckets) {
        w.beginObject();
        w.kv("signature", b.signature);
        w.kv("count", b.count);
        w.kv("first_index", b.first_index);
        w.kv("detail", b.detail);
        w.kv("repro", b.repro_path);
        w.endObject();
    }
    w.endArray();
    w.key("failures").beginArray();
    for (const FuzzCaseResult &c : rep.cases) {
        for (const OracleVerdict &f : c.failures) {
            w.beginObject();
            w.kv("index", c.index);
            w.kv("case_seed", "0x" + hex16(c.case_seed));
            w.kv("config_signature", "0x" + hex16(c.config_signature));
            w.kv("oracle", oracleName(f.oracle));
            w.kv("signature", f.signature);
            w.kv("detail", firstLine(f.detail));
            w.kv("shrink_runs", c.shrink_runs);
            w.key("shrink_overrides").beginObject();
            for (const auto &[key, value] : c.shrink_overrides)
                w.kv(key, value);
            w.endObject();
            w.kv("repro", c.repro_path);
            w.endObject();
        }
    }
    w.endArray();
    w.endObject();
    os << '\n';
    return os.str();
}

std::string
renderRepro(const ReproFile &r)
{
    std::ostringstream os;
    core::JsonWriter w(os, 2);
    w.beginObject();
    w.kv("schema", "dbsim-fuzz-repro-v1");
    w.kv("config_seed", r.config_seed);
    w.key("space").beginObject();
    w.kv("max_nodes", r.space.max_nodes);
    w.kv("min_instructions", r.space.min_instructions);
    w.kv("max_instructions", r.space.max_instructions);
    w.endObject();
    w.key("overrides").beginObject();
    for (const auto &[key, value] : r.overrides)
        w.kv(key, value);
    w.endObject();
    w.kv("oracle", oracleName(r.oracle));
    w.kv("bug", protocolBugName(r.bug));
    w.kv("fault", artifactFaultName(r.fault));
    w.kv("corrupt_checkpoint_offset", r.corrupt_checkpoint_offset);
    w.kv("signature", r.signature);
    w.kv("config_signature", "0x" + hex16(r.config_signature));
    w.kv("detail", r.detail);
    w.endObject();
    os << '\n';
    return os.str();
}

std::string
reproFileName(const ReproFile &r)
{
    const std::string body = renderRepro(r);
    const std::uint64_t h = snap::fnv1a(
        reinterpret_cast<const std::uint8_t *>(body.data()), body.size());
    return "repro-" + hex16(h) + ".json";
}

bool
oracleKindFromName(const std::string &name, OracleKind *out)
{
    for (const OracleKind k :
         {OracleKind::Conservation, OracleKind::Determinism,
          OracleKind::CheckpointRoundTrip, OracleKind::Coherence,
          OracleKind::Differential, OracleKind::Crash}) {
        if (name == oracleName(k)) {
            *out = k;
            return true;
        }
    }
    return false;
}

bool
artifactFaultFromName(const std::string &name, ArtifactFault *out)
{
    for (const ArtifactFault f :
         {ArtifactFault::None, ArtifactFault::BreakdownLeak,
          ArtifactFault::CounterSkew, ArtifactFault::EpochHashDrop}) {
        if (name == artifactFaultName(f)) {
            *out = f;
            return true;
        }
    }
    return false;
}

bool
parseRepro(const std::string &json, ReproFile *out, std::string *err)
{
    const auto bad = [err](const std::string &why) {
        if (err)
            *err = why;
        return false;
    };
    core::JsonScalars doc;
    std::string why;
    if (!core::parseJson(json, &doc, &why))
        return bad("malformed repro JSON: " + why);

    // A field that is present must have the right type and range; the
    // first one that does not is the error.
    std::string field_error;
    const auto num = [&](const std::string &path, auto *v) {
        using T = std::remove_pointer_t<decltype(v)>;
        const auto it = doc.values.find(path);
        if (it == doc.values.end())
            return;
        if (it->second.kind == core::JsonScalar::Kind::Unsigned &&
            it->second.value <= std::numeric_limits<T>::max()) {
            *v = static_cast<T>(it->second.value);
        } else if (field_error.empty()) {
            field_error = path + " must be an unsigned integer below 2^" +
                          std::to_string(8 * sizeof(T));
        }
    };
    const auto str = [&](const std::string &path) -> const std::string * {
        const std::string *s = doc.stringAt(path);
        if (!s && doc.has(path) && field_error.empty())
            field_error = path + " must be a string";
        return s;
    };

    const std::string *schema = str("schema");
    if (!schema || *schema != "dbsim-fuzz-repro-v1")
        return bad("not a dbsim-fuzz-repro-v1 document");

    ReproFile r;
    if (!doc.has("config_seed"))
        return bad("missing config_seed");
    num("config_seed", &r.config_seed);
    num("space.max_nodes", &r.space.max_nodes);
    num("space.min_instructions", &r.space.min_instructions);
    num("space.max_instructions", &r.space.max_instructions);
    num("corrupt_checkpoint_offset", &r.corrupt_checkpoint_offset);
    for (const auto &[path, value] : doc.values) {
        if (path.rfind("overrides.", 0) == 0)
            num(path, &r.overrides[path.substr(10)]);
    }
    const std::string *oracle = str("oracle");
    const std::string *bug = str("bug");
    const std::string *fault = str("fault");
    const std::string *sig = str("signature");
    const std::string *detail = str("detail");
    const std::string *cs = str("config_signature");
    if (!field_error.empty())
        return bad(field_error);

    if (!oracle || !oracleKindFromName(*oracle, &r.oracle))
        return bad("missing or unknown oracle");
    if (bug && !protocolBugFromName(*bug, &r.bug))
        return bad("unknown bug name: " + *bug);
    if (fault && !artifactFaultFromName(*fault, &r.fault))
        return bad("unknown fault name: " + *fault);
    if (sig)
        r.signature = *sig;
    if (detail)
        r.detail = *detail;
    if (cs) {
        // "0x" + exactly 16 hex digits; absence is tolerated (the field
        // is informational).
        const char *end = cs->data() + cs->size();
        if (cs->size() != 18 || cs->rfind("0x", 0) != 0 ||
            std::from_chars(cs->data() + 2, end, r.config_signature, 16)
                    .ptr != end) {
            return bad("config_signature wants 0x and 16 hex digits, "
                       "got \"" + *cs + "\"");
        }
    }
    *out = std::move(r);
    return true;
}

core::SimConfig
reproConfig(const ReproFile &r)
{
    Rng rng(r.config_seed);
    core::SimConfig cfg = core::randomSimConfig(rng, r.space);
    for (const auto &[key, value] : r.overrides) {
        if (!core::applyConfigOverride(cfg, key, value))
            throw ConfigError("overrides." + key,
                              "unknown override key in repro file");
    }
    cfg.validate();
    return cfg;
}

OracleVerdict
replayRepro(const ReproFile &r, const std::string &scratch_dir)
{
    PanicThrowGuard guard;
    FuzzOptions opts;
    opts.space = r.space;
    opts.inject_bug = r.bug;
    opts.inject_fault = r.fault;
    opts.corrupt_checkpoint_offset = r.corrupt_checkpoint_offset;
    const core::SimConfig cfg = reproConfig(r);
    const std::string scratch = scratch_dir + "/dbsim_fuzz_replay_" +
                                hex16(r.config_seed) + ".ckpt";
    return runOracleKind(opts, r.oracle, cfg, scratch, /*localize=*/true);
}

namespace {

/**
 * The self-check machine: small enough to run in seconds, hot enough
 * to exercise every seeded protocol bug -- multi-node OLTP sharing for
 * the fabric bugs, RC + speculative loads on an OoO core for the
 * consistency bugs.
 */
core::SimConfig
selfCheckConfig()
{
    // Empirically chosen (by fuzzing the mutants themselves): 8 nodes
    // of narrow OoO cores over small 32-byte-line caches with the
    // migratory optimization off maximizes plain Shared-state traffic
    // and speculative-load exposure, which is what the two subtle
    // mutants (lost-sharer-bit, skipped-spec-squash) need before their
    // effects become architecturally visible.
    core::SimConfig cfg =
        core::makeScaledConfig(core::WorkloadKind::Oltp, 8);
    cfg.system.node.l1i.line_bytes = 32;
    cfg.system.node.l1d.line_bytes = 32;
    cfg.system.node.l1d.size_bytes = 16 * 1024;
    cfg.system.node.l1d.assoc = 2;
    cfg.system.node.l1d.mshrs = 4;
    cfg.system.node.l2.line_bytes = 32;
    cfg.system.core.fetch_line_bytes = 32;
    cfg.system.core.out_of_order = true;
    cfg.system.core.issue_width = 1;
    cfg.system.core.window_size = 16;
    cfg.system.core.model = cpu::ConsistencyModel::RC;
    cfg.system.core.cons.spec_loads = true;
    cfg.system.core.cons.hw_prefetch = false;
    cfg.system.fabric.adaptive_migratory = false;
    cfg.system.fabric.flush_invalidates = false;
    cfg.oltp.num_procs = 16;
    cfg.oltp.local_branch_prob = 0.85;
    cfg.oltp.buffer_zipf_skew = 1.0; // hot lines for the fabric bugs
    cfg.total_instructions = 50'000;
    cfg.warmup_instructions = 0;
    cfg.system.state_hash_interval = 4000;
    cfg.validate();
    return cfg;
}

} // namespace

bool
fuzzSelfCheck(std::ostream &log, const std::string &scratch_dir)
{
    PanicThrowGuard guard;
    bool all_ok = true;
    const auto check = [&log, &all_ok](const std::string &name, bool pass,
                                       const std::string &why = {}) {
        log << "self-check: " << name << ": " << (pass ? "ok" : "FAIL");
        if (!pass && !why.empty())
            log << " -- " << why;
        log << "\n";
        all_ok = all_ok && pass;
    };

    const core::SimConfig cfg = selfCheckConfig();
    const Engine serial;

    // 1. The differential harness on identical engines must agree.
    {
        const OracleVerdict v = compareEngines(serial, serial, cfg, true);
        check("differential serial-vs-self identical", v.ok,
              firstLine(v.detail));
    }

    // 2. Every catalogued protocol bug must be rediscovered, and must
    // actually have fired (a detection claim with zero triggers means
    // the config never exercised the decision point).
    for (const ProtocolBug b : kProtocolBugs) {
        // Bisect one of them to exercise the cycle-localization path;
        // epoch-granularity detection is enough evidence for the rest.
        const bool localize = b == ProtocolBug::DroppedInvalidation;
        const OracleVerdict v =
            compareEngines(serial, Engine(b), cfg, localize);
        std::string why;
        if (v.ok)
            why = "divergence not detected";
        else if (v.cand_bug_triggers == 0)
            why = "bug never triggered: " + firstLine(v.detail);
        check(std::string("mutant ") + protocolBugName(b),
              !v.ok && v.cand_bug_triggers > 0, why);
    }

    // 3. Artifact faults: clean artifacts pass conservation, each
    // seeded fault class fails it.
    {
        RunArtifacts base;
        bool have = false;
        try {
            base = serial.execute(cfg);
            have = true;
        } catch (const std::exception &e) {
            check("conservation base run", false, firstLine(e.what()));
        }
        if (have) {
            check("conservation clean pass",
                  checkConservation(cfg, base).ok);
            for (const ArtifactFault f :
                 {ArtifactFault::BreakdownLeak, ArtifactFault::CounterSkew,
                  ArtifactFault::EpochHashDrop}) {
                RunArtifacts faulty = base;
                applyArtifactFault(faulty, f);
                const OracleVerdict v = checkConservation(cfg, faulty);
                check(std::string("fault ") + artifactFaultName(f), !v.ok,
                      "conservation oracle missed the fault");
            }
        }
    }

    // 4. Checkpoint round-trip: clean passes, a byte flip is caught.
    {
        const std::string scratch =
            scratch_dir + "/dbsim_fuzz_selfcheck.ckpt";
        const OracleVerdict clean =
            checkCheckpointRoundTrip(cfg, scratch, 0);
        check("checkpoint round-trip clean", clean.ok,
              firstLine(clean.detail));
        const OracleVerdict corrupt =
            checkCheckpointRoundTrip(cfg, scratch, 1234);
        check("checkpoint byte-flip caught", !corrupt.ok,
              "round-trip oracle missed the corruption");
    }

    // 5. A seeded-fault fuzz case must fail, shrink, and write a repro
    // that replays to the same bucket.
    {
        FuzzOptions fo;
        fo.seed = 7;
        fo.count = 1;
        fo.inject_fault = ArtifactFault::BreakdownLeak;
        fo.oracle_checkpoint = false;
        fo.oracle_coherence = false;
        fo.repro_dir = scratch_dir;
        fo.scratch_dir = scratch_dir;
        fo.max_shrink_runs = 24;
        const FuzzCaseResult fc = runFuzzCase(fo, 0);
        const bool caught = !fc.passed() &&
                            fc.failures.front().oracle ==
                                OracleKind::Conservation;
        check("seeded fault fuzz case caught", caught);
        check("seeded fault case shrunk", !fc.shrink_overrides.empty());
        bool replay_ok = false;
        std::string why;
        if (fc.repro_path.empty()) {
            why = "no repro file written";
        } else {
            std::ifstream is(fc.repro_path, std::ios::binary);
            std::ostringstream buf;
            buf << is.rdbuf();
            ReproFile rf;
            std::string err;
            if (!parseRepro(buf.str(), &rf, &err)) {
                why = err;
            } else {
                const OracleVerdict v = replayRepro(rf, scratch_dir);
                replay_ok = !v.ok && v.signature == rf.signature;
                if (!replay_ok)
                    why = v.ok ? "replay did not reproduce"
                               : "replay signature drifted: " + v.signature;
            }
            std::remove(fc.repro_path.c_str());
        }
        check("repro replay reproduces", replay_ok, why);
    }

    // 6. A small campaign is clean and renders byte-identically at
    // jobs 1 and jobs 4.
    {
        FuzzOptions fo;
        fo.seed = 99;
        fo.count = 6;
        fo.space.max_instructions = 30'000;
        fo.scratch_dir = scratch_dir;
        fo.jobs = 1;
        const FuzzReport r1 = runFuzz(fo, nullptr);
        const std::string render1 = renderFuzzReport(fo, r1);
        fo.jobs = 4;
        const FuzzReport r4 = runFuzz(fo, nullptr);
        const std::string render4 = renderFuzzReport(fo, r4);
        check("mini campaign clean", r1.ok() && r4.ok());
        check("report identical across jobs 1/4", render1 == render4);
    }

    log << "self-check: " << (all_ok ? "all checks passed" : "FAILURES")
        << "\n";
    return all_ok;
}

} // namespace dbsim::verify
