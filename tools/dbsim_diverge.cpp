/**
 * @file
 * dbsim-diverge: run a clean and an optionally bug-seeded machine on
 * one configuration and localize the first cycle at which their states
 * diverge (DESIGN.md §5g).
 *
 * A thin CLI over the differential oracle, verify::compareEngines():
 * both runs record an epoch state hash every --epoch-interval cycles,
 * the first differing sample bounds the divergence, and stop_at_cycle
 * probes bisect inside that epoch to the first divergent cycle.  The
 * tool then dumps both machine states at that cycle
 * (verify::Engine::stateAt).
 *
 *   --workload oltp|dss     workload                      (default oltp)
 *   --nodes N               node count                    (default 2)
 *   --b-bug NAME            protocol bug seeded into side B
 *                           (`dbsim-mc --list` prints the names)
 *   --instructions N        instruction budget            (default 60000)
 *   --epoch-interval N      state-hash cadence in cycles  (default 5000)
 *   --dump-prefix P         where the two divergent-state dumps go
 *                           (default dbsim-diverge; "none" disables)
 *
 * Exit codes: 0 when the two sides never diverge, 1 when a divergence
 * was found, 2 on bad flags.
 *
 * DBSIM_CHECK is cleared at startup: a seeded protocol bug is the
 * object of study here, and the coherence checker would (correctly)
 * abort the buggy run long before its hash stream could be compared.
 */

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "common/errors.hpp"
#include "common/mutator.hpp"
#include "common/parse.hpp"
#include "core/config.hpp"
#include "verify/oracles.hpp"

namespace {

using namespace dbsim;

core::WorkloadKind
parseWorkloadName(const std::string &name)
{
    if (name == "oltp")
        return core::WorkloadKind::Oltp;
    if (name == "dss")
        return core::WorkloadKind::Dss;
    throw ConfigError("cli.workload",
                      "--workload wants oltp or dss, got \"" + name +
                          "\"");
}

bool
writeDump(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::trunc);
    out << text;
    return static_cast<bool>(out);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace dbsim;

    // See the file comment: the coherence checker would abort a
    // deliberately-buggy side before its hash stream exists.
#ifdef _WIN32
    _putenv("DBSIM_CHECK=");
#else
    unsetenv("DBSIM_CHECK");
#endif

    try {
        std::string workload = "oltp";
        std::uint32_t nodes = 2;
        verify::ProtocolBug bug = verify::ProtocolBug::None;
        std::uint64_t instructions = 60000;
        Cycles epoch_interval = 5000;
        std::string dump_prefix = "dbsim-diverge";

        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const auto value = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw ConfigError("cli", arg + " needs a value");
                return argv[++i];
            };
            if (arg == "--workload")
                workload = value();
            else if (arg == "--nodes")
                nodes = static_cast<std::uint32_t>(
                    parseUnsignedFlag(arg, value(), 1, 0xffffffffu));
            else if (arg == "--b-bug") {
                const std::string name = value();
                if (!verify::protocolBugFromName(name, &bug))
                    throw ConfigError("cli.bug", "unknown protocol bug \"" +
                                                     name + "\"");
            } else if (arg == "--instructions")
                instructions = parseUnsignedFlag(arg, value());
            else if (arg == "--epoch-interval")
                epoch_interval = parseUnsignedFlag(arg, value(), 1);
            else if (arg == "--dump-prefix")
                dump_prefix = value();
            else
                throw ConfigError("cli", "unknown flag " + arg);
        }

        core::SimConfig cfg =
            core::makeScaledConfig(parseWorkloadName(workload), nodes);
        cfg.total_instructions = instructions;
        cfg.warmup_instructions = 0;
        cfg.system.state_hash_interval = epoch_interval;
        cfg.validate(); // a bad flag is exit 2, not a "divergence"

        const verify::Engine a, b(bug);
        std::cout << "dbsim-diverge\n  A: " << describe(cfg)
                  << "\n  B: " << describe(cfg)
                  << (bug != verify::ProtocolBug::None
                          ? std::string(" [bug ") +
                                verify::protocolBugName(bug) + "]"
                          : "")
                  << "\n";

        const verify::OracleVerdict v = verify::compareEngines(a, b, cfg);
        std::cout << v.detail << "\n" << v.dump_excerpt;
        if (v.ok)
            return 0;

        if (dump_prefix != "none") {
            const Cycles at = v.divergent_cycle;
            const std::string pa = dump_prefix + "-a.txt";
            const std::string pb = dump_prefix + "-b.txt";
            if (at == 0) {
                std::cout << "no divergent cycle localized; "
                             "no state dumps written\n";
            } else if (writeDump(pa, a.stateAt(cfg, at).dump) &&
                       writeDump(pb, b.stateAt(cfg, at).dump)) {
                std::cout << "machine states at cycle " << at << ": " << pa
                          << ", " << pb << "\n";
            } else {
                std::cerr << "dbsim-diverge: could not write state dumps "
                          << pa << " / " << pb << "\n";
            }
        }
        return 1;
    } catch (const std::exception &e) {
        std::cerr << "dbsim-diverge: " << e.what() << "\n";
        return 2;
    }
}
