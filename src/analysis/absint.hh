/**
 * @file
 * Abstract interpretation over the issue-point CFG: value intervals and
 * condition-flag definedness, propagated through CRISP addressing modes
 * and the stack discipline to a sound fixpoint.
 *
 * The domain tracks, per issue point:
 *
 *  - the accumulator as a signed interval;
 *  - SP as an interval (exact at entry: the stack grows down from
 *    (memBytes - 4) & ~3, and enter/leave/call/return move it by
 *    statically known amounts);
 *  - a bounded map of absolute word addresses -> intervals for stack
 *    slots and globals whose contents are proven along every path.
 *    Stack operands resolve to absolute addresses only while SP is a
 *    singleton; a store through an unknown address (pointer writes,
 *    stack stores under unknown SP) clobbers the whole map;
 *  - the condition flag as the four-point lattice over {may-be-true,
 *    may-be-false}, seeded Known(false) at entry (the architectural
 *    power-on value, which the EU honors: a branch before any compare
 *    tests exactly that value).
 *
 * Calls are edge-sensitive. The call -> callee edge keeps the caller's
 * state exactly (a call writes no CC and no accumulator; it pushes one
 * return-address word, moving SP by a known amount), so constants and
 * frame facts survive into callees — including the runtime's
 * `_start: call main` preamble. The CFG also routes a direct edge from
 * each call to its return site (bypassing the callee); that edge is
 * joined as all-top, because the unanalyzed callee body may touch CC,
 * the accumulator, any memory word, and even the SP discipline.
 * Interval growth at loop heads is
 * widened to full range after a fixed number of joins, which bounds
 * every ascending chain; a global step cap backstops termination and
 * degrades to all-top (still sound) if ever hit.
 *
 * Consumers: the branch-cost engine (cost.hh) reads the post-body flag
 * at each issue point to prove branches constant, and the lint layer
 * turns those proofs into cost.constant-cc / cost.dead-branch notes.
 */

#ifndef CRISP_ANALYSIS_ABSINT_HH
#define CRISP_ANALYSIS_ABSINT_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "cfg.hh"
#include "flat.hh"

namespace crisp::analysis
{

/** Signed 32-bit value interval [lo, hi] (int64 bounds, never empty). */
struct Interval
{
    std::int64_t lo = INT32_MIN;
    std::int64_t hi = INT32_MAX;

    static Interval top() { return {INT32_MIN, INT32_MAX}; }

    static Interval
    of(std::int32_t v)
    {
        return {v, v};
    }

    bool isTop() const { return lo == INT32_MIN && hi == INT32_MAX; }

    /** The single value when lo == hi. */
    std::optional<std::int32_t>
    constant() const
    {
        if (lo == hi)
            return static_cast<std::int32_t>(lo);
        return std::nullopt;
    }

    bool
    contains(std::int64_t v) const
    {
        return lo <= v && v <= hi;
    }

    bool operator==(const Interval&) const = default;
};

/** Least interval containing both arguments. */
Interval hull(const Interval& a, const Interval& b);

/** Classic interval widening: any growing bound jumps to the limit. */
Interval widenInterval(const Interval& prev, const Interval& next);

/**
 * The condition flag: which values it may hold at a program point.
 * Bottom (neither) never appears in a reachable state.
 */
struct FlagVal
{
    bool mayTrue = true;
    bool mayFalse = true;

    static FlagVal top() { return {true, true}; }

    static FlagVal
    known(bool v)
    {
        return {v, !v};
    }

    /** The single value the flag must hold, if proven. */
    std::optional<bool>
    constant() const
    {
        if (mayTrue != mayFalse)
            return mayTrue;
        return std::nullopt;
    }

    bool operator==(const FlagVal&) const = default;
};

/** Abstract machine state at one program point. */
struct AbsState
{
    /** False only for the pre-fixpoint "no path reaches here" seed. */
    bool reachable = false;

    Interval accum;
    Interval sp;
    FlagVal flag;

    /** Proven word contents keyed by absolute byte address. */
    FlatMap<Addr, Interval> mem;

    /** Reachable state with nothing proven (the lattice top). */
    static AbsState
    anyState()
    {
        AbsState s;
        s.reachable = true;
        return s;
    }

    bool operator==(const AbsState&) const = default;
};

/**
 * Join (least upper bound) @p b into @p into in place; with @p flag
 * set, @p b's flag is taken as that value.
 */
void joinInto(AbsState& into, const AbsState& b,
              const FlagVal* flag = nullptr);

/** Make @p s the unreachable seed AbsState{}, keeping its buffers. */
void resetState(AbsState& s);

/** Joins after which a node's growing intervals are widened. */
inline constexpr int kAbsintWidenJoins = 12;

/** Transfer applications per node before the sound all-top bail. */
inline constexpr std::uint64_t kAbsintStepsPerNode = 64;

/**
 * Apply @p di to reachable state @p st in place, turning its IN state
 * into its OUT state — the transfer function of interpret(), shared
 * with the value-set phase of the target analysis (targets.cc).
 */
void absTransfer(const DecodedInst& di, AbsState& st);

/** Widen every growing component of @p next against @p prev. */
AbsState widenAbsState(const AbsState& prev, const AbsState& next,
                       int& widenings);

/** Fixpoint result of one interpretation run. */
struct AbsIntResult
{
    /** The graph the fixpoint ran over (must outlive the result). */
    const Cfg* cfg = nullptr;

    /** Pre-/post-state per issue point, indexed by CfgNode::id. */
    std::vector<AbsState> in;
    std::vector<AbsState> out;

    /** False when the step cap tripped and everything degraded to top
     *  (still sound, no longer precise). */
    bool converged = true;

    /** Transfer-function applications until the fixpoint. */
    std::uint64_t steps = 0;

    /** Widening applications (loop-head interval escalations). */
    int widenings = 0;

    /** IN / OUT state at @p pc; top if the node is unknown. */
    const AbsState& inAt(Addr pc) const;
    const AbsState& outAt(Addr pc) const;
};

/** Tuning knobs for one interpretation run. */
struct AbsIntOptions
{
    /** Step-cap override; 0 keeps the nodes-proportional default.
     *  Directed tests use a tiny cap to exercise the all-top bail. */
    std::uint64_t stepCap = 0;

    /**
     * Let proven branch directions prune edges (sparse conditional
     * constant propagation, sccp.hh): an edge whose flag value the
     * predecessor's OUT state excludes carries nothing, and a feasible
     * conditional edge carries the flag value it implies. Off, every
     * edge carries its predecessor's state (the plain interpreter).
     */
    bool pruneEdges = false;
};

/** Step cap of a fixpoint over @p cfg: @p cap_override when nonzero,
 *  else kAbsintStepsPerNode per node plus slack. */
std::uint64_t absintStepCap(const Cfg& cfg,
                            std::uint64_t cap_override = 0);

/**
 * Run the abstract interpreter to fixpoint over @p cfg: one FIFO
 * worklist from the program entry, widening each node's IN state after
 * kAbsintWidenJoins changes. Decode-error placeholder nodes pass their
 * input through unchanged (they have no successors anyway). The call
 * -> return-site edge joins as all-top (reachability only).
 */
AbsIntResult interpret(const Cfg& cfg, const AbsIntOptions& opts = {});

// Abstract transfer primitives, exposed for the unit tests ------------

/** Abstract compare: which flag values (a REL b) may produce. */
FlagVal absCompare(Opcode op, const Interval& a, const Interval& b);

/** Abstract ALU: sound (possibly top) interval for (a OP b), agreeing
 *  exactly with evalAlu on singleton operands. */
Interval absAlu(Opcode op, const Interval& a, const Interval& b);

} // namespace crisp::analysis

#endif // CRISP_ANALYSIS_ABSINT_HH
