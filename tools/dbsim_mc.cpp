/**
 * @file
 * dbsim-mc: offline protocol verification driver.
 *
 * Default run (no arguments) executes the full verification suite and
 * exits non-zero on any failure:
 *   1. exhaustively model-checks every standard configuration of the
 *      real coherence fabric (expecting zero violations),
 *   2. runs the consistency litmus matrix through SC/PC/RC (expecting
 *      every model to allow/forbid exactly the right outcomes), and
 *   3. runs the mutation self-test (expecting every catalogued seeded
 *      protocol bug to be detected).
 *
 * Options:
 *   --config NAME   model-check only the named standard configuration
 *   --bug NAME      seed the named protocol bug (see --list) into the
 *                   model-checking runs and print the minimized
 *                   counterexample; exits 0 iff the bug is detected
 *   --panic         report violations through the crash-dump registry
 *                   and DBSIM_PANIC instead of a normal summary
 *   --no-litmus     skip the litmus matrix
 *   --no-mutation   skip the mutation self-test
 *   --list          list configurations and catalogued bugs
 */

#include <cstring>
#include <iostream>
#include <string>

#include "common/log.hpp"
#include "common/mutator.hpp"
#include "cpu/consistency.hpp"
#include "verify/suite.hpp"

namespace {

using namespace dbsim;
using namespace dbsim::verify;

int
listAll()
{
    std::cout << "configurations:\n";
    for (const McConfig &c : standardConfigs()) {
        std::size_t ops = 0;
        for (const auto &p : c.programs)
            ops += p.size();
        std::cout << "  " << c.name << "  (" << c.nodes << " nodes, "
                  << c.blocks << " blocks, " << ops << " ops)\n";
    }
    std::cout << "protocol bugs:\n";
    for (const ProtocolBug b : kProtocolBugs)
        std::cout << "  " << protocolBugName(b) << "\n";
    return 0;
}

ProtocolBug
parseBug(const std::string &name)
{
    ProtocolBug b = ProtocolBug::None;
    if (protocolBugFromName(name, &b) && b != ProtocolBug::None)
        return b;
    std::cerr << "dbsim-mc: unknown bug '" << name << "' (try --list)\n";
    std::exit(2);
}

/** Model-check the standard configurations; returns the failure count.
 *  With a seeded bug the expectation flips: a run that finds no
 *  violation is the failure. */
int
runModelChecks(const std::string &only, ProtocolBug bug, bool panic)
{
    int failures = 0;
    bool matched = false;
    for (McConfig cfg : standardConfigs()) {
        if (!only.empty() && cfg.name != only)
            continue;
        matched = true;
        cfg.bug = bug;
        const McResult r = ModelChecker(cfg, panic).check();
        std::cout << "model-check " << cfg.name << ": "
                  << (r.ok ? "ok" : "VIOLATION") << ", "
                  << (r.exhausted ? "exhausted" : "NOT exhausted") << ", "
                  << r.states << " states, " << r.transitions
                  << " transitions, " << r.interleavings
                  << " interleavings";
        if (bug != ProtocolBug::None)
            std::cout << ", bug fired " << r.mutation_fires << "x";
        std::cout << "\n";
        if (!r.ok) {
            std::cout << "  violation: " << r.violation << "\n"
                      << "  minimized counterexample ("
                      << r.trace.size() << " ops):\n";
            for (const McStep &s : r.trace)
                std::cout << "    " << mcStepString(s) << "\n";
        }
        const bool expect_violation = bug != ProtocolBug::None;
        if (r.ok == expect_violation || (!expect_violation && !r.exhausted))
            ++failures;
    }
    if (!only.empty() && !matched) {
        std::cerr << "dbsim-mc: unknown config '" << only
                  << "' (try --list)\n";
        std::exit(2);
    }
    if (bug != ProtocolBug::None && failures > 0 && matched) {
        // A seeded fabric bug need not be observable in *every*
        // configuration -- detection in at least one is a pass.
        bool any_caught = false;
        for (McConfig cfg : standardConfigs()) {
            if (!only.empty() && cfg.name != only)
                continue;
            cfg.bug = bug;
            if (!ModelChecker(cfg).check().ok)
                any_caught = true;
        }
        if (any_caught)
            failures = 0;
    }
    return failures;
}

int
runLitmusChecks()
{
    const std::vector<LitmusRun> runs = runLitmusMatrix();
    std::string why;
    const bool ok = litmusMatrixOk(runs, &why);
    std::uint64_t rollbacks = 0;
    for (const LitmusRun &r : runs)
        rollbacks += r.rollbacks;
    std::cout << "litmus: " << runs.size() << " runs, " << rollbacks
              << " speculative rollbacks, "
              << (ok ? "matrix ok" : "MATRIX FAILED") << "\n";
    if (!ok)
        std::cout << "  " << why << "\n";
    return ok ? 0 : 1;
}

int
runMutationChecks()
{
    int failures = 0;
    for (const MutationVerdict &v : runMutationCatalog()) {
        const bool ok = v.caught && v.fires > 0;
        std::cout << "mutation " << protocolBugName(v.bug) << ": "
                  << (ok ? "caught" : "MISSED");
        if (v.caught)
            std::cout << " by " << v.detector << " (" << v.detail << ")";
        std::cout << ", fired " << v.fires << "x\n";
        if (!ok)
            ++failures;
    }
    return failures;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string only;
    ProtocolBug bug = ProtocolBug::None;
    bool panic = false;
    bool litmus = true;
    bool mutation = true;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "dbsim-mc: " << arg << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--list")
            return listAll();
        if (arg == "--config")
            only = value();
        else if (arg == "--bug")
            bug = parseBug(value());
        else if (arg == "--panic")
            panic = true;
        else if (arg == "--no-litmus")
            litmus = false;
        else if (arg == "--no-mutation")
            mutation = false;
        else {
            std::cerr << "dbsim-mc: unknown option '" << arg
                      << "' (see the header comment for usage)\n";
            return 2;
        }
    }

    // A seeded bug changes the run's purpose to "show the
    // counterexample"; the litmus/mutation suites run unmutated
    // protocols only.
    if (bug != ProtocolBug::None)
        litmus = mutation = false;

    int failures = runModelChecks(only, bug, panic);
    if (litmus)
        failures += runLitmusChecks();
    if (mutation)
        failures += runMutationChecks();

    if (failures == 0) {
        std::cout << "dbsim-mc: all checks passed\n";
        return 0;
    }
    std::cout << "dbsim-mc: " << failures << " check(s) FAILED\n";
    return 1;
}
