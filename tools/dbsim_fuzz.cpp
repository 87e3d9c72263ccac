/**
 * @file
 * dbsim-fuzz: deterministic property-based simulation fuzzing
 * (DESIGN.md §5i).
 *
 * Generates `--count` random valid configurations from `--seed` and
 * runs each through the invariant-oracle suite (conservation,
 * determinism, checkpoint round-trip, coherence; plus the differential
 * harness when a mutant is injected).  Failures are triaged into
 * buckets, shrunk, and written as replayable repro-<hash>.json files.
 *
 *   dbsim-fuzz --seed 1 --count 200 --jobs 4 --repro-dir repros
 *   dbsim-fuzz --replay repros/repro-0123456789abcdef.json
 *   dbsim-fuzz --self-check
 *
 * --jobs follows the benches' rule (core::SweepRunner::resolveJobs): a
 * positive --jobs, else DBSIM_JOBS, else the hardware concurrency.  The
 * report is the same at every job count.
 *
 * Exit codes: 0 = corpus clean (or replay no longer reproduces),
 * 1 = failures found (or replay reproduced), 2 = bad flags / IO error.
 *
 * DBSIM_CHECK is cleared at startup (the dbsim-diverge idiom): the
 * coherence oracle and injected mutants arm the checker per-run
 * themselves; an ambient checker would abort deliberately-buggy runs
 * before their verdicts exist.
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/errors.hpp"
#include "common/parse.hpp"
#include "core/sweep.hpp"
#include "verify/fuzzer.hpp"

namespace {

constexpr std::uint64_t kMaxU32 = 0xffffffffu;

int
usageError(const std::string &msg)
{
    std::cerr << "dbsim-fuzz: " << msg << "\n"
              << "usage: dbsim-fuzz [--seed N] [--count N] [--jobs N]\n"
              << "                  [--json FILE] [--repro-dir DIR]\n"
              << "                  [--scratch-dir DIR] [--max-nodes N]\n"
              << "                  [--min-instructions N]\n"
              << "                  [--max-instructions N]\n"
              << "                  [--inject-bug NAME]\n"
              << "                  [--inject-fault NAME]\n"
              << "                  [--corrupt-checkpoint OFFSET]\n"
              << "                  [--self-check] [--replay FILE]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace dbsim;
    using namespace dbsim::verify;

#ifdef _WIN32
    _putenv("DBSIM_CHECK=");
#else
    unsetenv("DBSIM_CHECK");
#endif

    try {
        FuzzOptions opts;
        opts.repro_dir = ".";
        std::string json_path;
        std::string replay_path;
        bool self_check = false;
        unsigned jobs = 0; // 0 = DBSIM_JOBS, then hardware concurrency

        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const auto value = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw ConfigError("cli", arg + " needs a value");
                return argv[++i];
            };
            if (arg == "--seed")
                opts.seed = parseUnsignedFlag(arg, value());
            else if (arg == "--count")
                opts.count = static_cast<std::uint32_t>(
                    parseUnsignedFlag(arg, value(), 0, kMaxU32));
            else if (arg == "--jobs")
                jobs = static_cast<unsigned>(
                    parseUnsignedFlag(arg, value(), 1, kMaxU32));
            else if (arg == "--json")
                json_path = value();
            else if (arg == "--repro-dir")
                opts.repro_dir = value();
            else if (arg == "--scratch-dir")
                opts.scratch_dir = value();
            else if (arg == "--max-nodes")
                opts.space.max_nodes = static_cast<std::uint32_t>(
                    parseUnsignedFlag(arg, value(), 0, kMaxU32));
            else if (arg == "--min-instructions")
                opts.space.min_instructions = parseUnsignedFlag(arg, value());
            else if (arg == "--max-instructions")
                opts.space.max_instructions = parseUnsignedFlag(arg, value());
            else if (arg == "--inject-bug") {
                const std::string name = value();
                if (!protocolBugFromName(name, &opts.inject_bug))
                    throw ConfigError("cli.inject-bug",
                                      "unknown bug name " + name);
            } else if (arg == "--inject-fault") {
                const std::string name = value();
                if (!artifactFaultFromName(name, &opts.inject_fault))
                    throw ConfigError("cli.inject-fault",
                                      "unknown fault name " + name);
            } else if (arg == "--corrupt-checkpoint")
                opts.corrupt_checkpoint_offset =
                    parseUnsignedFlag(arg, value());
            else if (arg == "--replay")
                replay_path = value();
            else if (arg == "--self-check")
                self_check = true;
            else
                return usageError("unknown flag " + arg);
        }

        if (self_check) {
            const bool ok = fuzzSelfCheck(std::cout, opts.scratch_dir);
            return ok ? 0 : 1;
        }

        if (!replay_path.empty()) {
            std::ifstream is(replay_path, std::ios::binary);
            if (!is)
                return usageError("cannot read " + replay_path);
            std::ostringstream buf;
            buf << is.rdbuf();
            ReproFile rf;
            std::string err;
            if (!parseRepro(buf.str(), &rf, &err))
                return usageError(replay_path + ": " + err);
            std::cout << "dbsim-fuzz: replaying " << replay_path
                      << "\n  oracle " << oracleName(rf.oracle)
                      << ", seed 0x" << std::hex << rf.config_seed
                      << std::dec << ", " << rf.overrides.size()
                      << " overrides\n  recorded: [" << rf.signature
                      << "] " << rf.detail << "\n";
            const OracleVerdict v = replayRepro(rf, opts.scratch_dir);
            if (v.ok) {
                std::cout << "dbsim-fuzz: replay PASSED -- the recorded "
                             "failure no longer reproduces\n";
                return 0;
            }
            std::cout << "dbsim-fuzz: replay REPRODUCED [" << v.signature
                      << "]\n"
                      << v.detail << "\n";
            if (!v.dump_excerpt.empty())
                std::cout << "--- dump excerpt ---\n"
                          << v.dump_excerpt << "\n";
            return 1;
        }

        // Repro files are the campaign's whole point on failure; make
        // sure their directory exists rather than warning and dropping
        // them at write time.
        std::error_code ec;
        std::filesystem::create_directories(opts.repro_dir, ec);
        if (ec)
            return usageError("cannot create repro dir " +
                              opts.repro_dir + ": " + ec.message());

        opts.jobs = core::SweepRunner::resolveJobs(jobs);
        std::cerr << "dbsim-fuzz: seed " << opts.seed << ", "
                  << opts.count << " configs, jobs " << opts.jobs
                  << "\n";
        const FuzzReport rep = runFuzz(opts, &std::cerr);
        const std::string rendered = renderFuzzReport(opts, rep);
        if (!json_path.empty()) {
            std::ofstream os(json_path,
                             std::ios::binary | std::ios::trunc);
            if (!os)
                return usageError("cannot write " + json_path);
            os << rendered;
        } else {
            std::cout << rendered;
        }
        std::cerr << "dbsim-fuzz: " << rep.count << " cases, "
                  << rep.failed_cases << " failed, " << rep.buckets.size()
                  << " buckets\n";
        for (const TriageBucket &b : rep.buckets) {
            std::cerr << "  [" << b.signature << "] x" << b.count
                      << " first at case " << b.first_index;
            if (!b.repro_path.empty())
                std::cerr << " repro " << b.repro_path;
            std::cerr << "\n";
        }
        return rep.ok() ? 0 : 1;
    } catch (const ConfigError &e) {
        std::cerr << "dbsim-fuzz: " << e.what() << "\n";
        return 2;
    } catch (const std::exception &e) {
        std::cerr << "dbsim-fuzz: " << e.what() << "\n";
        return 2;
    }
}
