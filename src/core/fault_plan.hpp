/**
 * @file
 * Deterministic fault-injection plan for the sweep runner.
 *
 * A FaultPlan names exactly which item indices of a sweep misbehave and
 * how: throw a plain exception, trip DBSIM_PANIC (exercising the
 * crash-dump registry and PanicThrowGuard capture), or sleep long
 * enough for the host-side item deadline to expire.  The plan is
 * consulted by SweepRunner::runOne through a test-only hook, so every
 * isolation, journaling and resume path can be driven from tests with
 * fully reproducible failures -- nothing here is randomized, and a
 * re-run of a faulted index meets the same fault again.
 */

#ifndef DBSIM_CORE_FAULT_PLAN_HPP
#define DBSIM_CORE_FAULT_PLAN_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dbsim::core {

/** One scheduled fault: what goes wrong, and for which item. */
struct FaultSpec
{
    enum class Kind : std::uint8_t {
        Throw, ///< throw std::runtime_error(message) before the run
        Panic, ///< DBSIM_PANIC(message): crash-dump registry + guard path
        Delay, ///< sleep delay_seconds, then run normally (trips timeouts)
    };

    std::size_t index = 0;  ///< sweep item index the fault applies to
    Kind kind = Kind::Throw;
    double delay_seconds = 0.0; ///< Delay only
    std::string message = "injected fault";
};

/** An ordered collection of FaultSpecs consulted per item index. */
class FaultPlan
{
  public:
    void add(FaultSpec spec) { specs_.push_back(std::move(spec)); }

    /** Fail item @p index with a fault of @p kind. */
    void
    fail(std::size_t index, FaultSpec::Kind kind,
         std::string message = "injected fault")
    {
        FaultSpec s;
        s.index = index;
        s.kind = kind;
        s.message = std::move(message);
        add(std::move(s));
    }

    /** The first spec scheduled for item @p index, or nullptr. */
    const FaultSpec *
    match(std::size_t index) const
    {
        for (const FaultSpec &s : specs_) {
            if (s.index == index)
                return &s;
        }
        return nullptr;
    }

  private:
    std::vector<FaultSpec> specs_;
};

} // namespace dbsim::core

#endif // DBSIM_CORE_FAULT_PLAN_HPP
