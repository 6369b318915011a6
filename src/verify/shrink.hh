/**
 * @file
 * Greedy delta-debugging shrinker for diverging torture programs.
 *
 * Given a GenProgram whose linked image makes @p stillFails return
 * true, repeatedly tries structural simplifications — drop whole
 * segments, drop leaf functions (remapping callers), clear or halve
 * instruction blocks, reduce loop trip counts — keeping each edit only
 * if the failure survives, until a fixpoint or the test budget runs
 * out. Every candidate is a well-formed GenProgram, so every shrink
 * step re-links to a valid, terminating program.
 */

#ifndef CRISP_VERIFY_SHRINK_HH
#define CRISP_VERIFY_SHRINK_HH

#include <functional>

#include "generator.hh"

namespace crisp::verify
{

/** Does this candidate still reproduce the failure? */
using FailPredicate = std::function<bool(const GenProgram&)>;

struct ShrinkResult
{
    GenProgram program;
    /** Predicate evaluations spent. */
    int tests = 0;
};

/**
 * Test budget for shrinking a TIMEOUT verdict. Each test of a wedged
 * candidate runs until the watchdog fires, so shrinking one such
 * verdict costs at most this many timeout periods.
 */
inline constexpr int kTimeoutShrinkTests = 8;

/**
 * Minimize @p gp under @p stillFails.
 * @pre stillFails(gp) is true (callers check before invoking).
 */
ShrinkResult shrinkProgram(const GenProgram& gp,
                           const FailPredicate& stillFails,
                           int maxTests = 3000);

} // namespace crisp::verify

#endif // CRISP_VERIFY_SHRINK_HH
