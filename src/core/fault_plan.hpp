/**
 * @file
 * Deterministic fault-injection plan for the sweep runner.
 *
 * A FaultPlan names exactly which (item index, attempt number) pairs of
 * a sweep misbehave and how: throw a plain exception, trip DBSIM_PANIC
 * (exercising the crash-dump registry and PanicThrowGuard capture), or
 * sleep long enough for the host-side item deadline to expire.  The plan
 * is consulted by SweepRunner::runOne through a test-only hook, so every
 * isolation, retry, journaling and resume path can be driven from tests
 * with fully reproducible failures -- nothing here is randomized.
 */

#ifndef DBSIM_CORE_FAULT_PLAN_HPP
#define DBSIM_CORE_FAULT_PLAN_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dbsim::core {

/** One scheduled fault: what goes wrong, where, and on which attempt. */
struct FaultSpec
{
    enum class Kind : std::uint8_t {
        Throw, ///< throw std::runtime_error(message) before the run
        Panic, ///< DBSIM_PANIC(message): crash-dump registry + guard path
        Delay, ///< sleep delay_seconds, then run normally (trips timeouts)
    };

    std::size_t index = 0;  ///< sweep item index the fault applies to
    unsigned attempt = 1;   ///< 1-based attempt number it fires on
    Kind kind = Kind::Throw;
    double delay_seconds = 0.0; ///< Delay only
    std::string message = "injected fault";
};

/** An ordered collection of FaultSpecs consulted per (index, attempt). */
class FaultPlan
{
  public:
    void add(FaultSpec spec) { specs_.push_back(std::move(spec)); }

    /** Fail item @p index on every attempt up to @p attempts (inclusive). */
    void
    failAttempts(std::size_t index, unsigned attempts, FaultSpec::Kind kind,
                 std::string message = "injected fault")
    {
        for (unsigned a = 1; a <= attempts; ++a) {
            FaultSpec s;
            s.index = index;
            s.attempt = a;
            s.kind = kind;
            s.message = message;
            add(std::move(s));
        }
    }

    /** The first spec scheduled for (index, attempt), or nullptr. */
    const FaultSpec *
    match(std::size_t index, unsigned attempt) const
    {
        for (const FaultSpec &s : specs_) {
            if (s.index == index && s.attempt == attempt)
                return &s;
        }
        return nullptr;
    }

    bool empty() const { return specs_.empty(); }
    std::size_t size() const { return specs_.size(); }

  private:
    std::vector<FaultSpec> specs_;
};

} // namespace dbsim::core

#endif // DBSIM_CORE_FAULT_PLAN_HPP
