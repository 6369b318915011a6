/**
 * @file
 * Reaching definitions at issue-point granularity: which instruction
 * last defined the accumulator, the condition flag, or an absolute
 * memory word, along every path into each issue point.
 *
 * Locations resolve through the abstract interpreter's SP facts (like
 * liveness.hh). A definition site is an issue-point pc; the synthetic
 * kWildDef site stands for "unknown" — uninitialized entry state,
 * havocked call-return edges, and stores through unresolvable
 * addresses. Consumers:
 *
 *  - findConstPropUses: read-only operands whose unique reaching
 *    definition is `mov LOC, #imm` — safe to rewrite to the immediate;
 *  - findRedundantCopies: `mov X, Y` whose effect is proven a no-op
 *    (X already holds Y's value along every path) — safe to delete;
 *  - the dataflow.redundant-copy lint rule and def-use chains.
 */

#ifndef CRISP_ANALYSIS_REACHDEFS_HH
#define CRISP_ANALYSIS_REACHDEFS_HH

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "absint.hh"

namespace crisp::analysis
{

/** Definition-site pc for "defined by something unanalyzable". */
inline constexpr Addr kWildDef = 0xFFFFFFFFu;

/** Location key: kAccumLoc, kFlagLoc, or an absolute byte address. */
using LocKey = std::int64_t;
inline constexpr LocKey kAccumLoc = -1;
inline constexpr LocKey kFlagLoc = -2;

/**
 * Fixpoint result of one forward pass: the pre-state of every issue
 * point, as bit vectors.
 *
 * A location is only ever tracked after some node defines it, and
 * which location a node defines is fixed by the absint pre-states, so
 * a location table is built once, up front. Every state is then `words`
 * 64-bit words: a reachable bit; one def bit per node id (a node
 * defines at most one location); and per location a present bit and a
 * wild bit. That maps one-to-one onto a map from location to the set
 * of definition pcs: a location whose present bit is clear has no
 * entry, which means the wild definition alone (everything is wild at
 * entry and after havoc); a present one holds the pcs of its definers
 * whose def bit is set, plus kWildDef when its wild bit is set. A join
 * is a word-wise OR (a location present on one side only gains its
 * wild bit), a definition clears its location's other definers through
 * a precomputed mask, and a store through an unresolvable address
 * clears every memory location. Past a cap on present locations
 * (reachdefs.cc) a state degrades to all-wild.
 */
struct ReachDefsResult
{
    /** The graph the fixpoint ran over (must outlive the result). */
    const Cfg* cfg = nullptr;

    /** Tracked locations, ascending. */
    std::vector<LocKey> locs;
    /** Per node id: index into locs of the location it defines, or -1. */
    std::vector<int> defLoc;
    /** Words of def bits, and of present bits (wild bits follow). */
    std::size_t defWords = 0;
    std::size_t locWords = 0;
    /** Words per state: 1 + defWords + 2 * locWords. */
    std::size_t words = 0;
    /** Per location, the def bits of its definers (defWords each). */
    std::vector<std::uint64_t> killMask;
    /** Pre-states, `words` per node id. */
    std::vector<std::uint64_t> in;

    /** Def-use chains: definition pc -> issue points that may read it. */
    std::map<Addr, std::set<Addr>> defUses;

    bool converged = true;

    /** Is issue point @p id reachable? */
    bool reachable(int id) const;

    /** Locations with an entry of their own at issue point @p id, in
     *  ascending order; every other location is wild alone there. */
    std::vector<LocKey> trackedAt(int id) const;

    /** Definitions of @p key reaching issue point @p id, ascending
     *  (kWildDef, the largest address, comes last). */
    std::vector<Addr> defsOf(int id, LocKey key) const;

    /** The definition of @p key reaching @p id when it is the only one
     *  and not wild. */
    std::optional<Addr> uniqueDef(int id, LocKey key) const;
};

/** Run reaching definitions over @p cfg with absint operand facts. */
ReachDefsResult computeReachDefs(const Cfg& cfg, const AbsIntResult& ai);

/** A read-only operand provably equal to an immediate. */
struct ConstUse
{
    Addr pc = 0;       //!< issue point whose operand can be rewritten
    bool dstOperand = false; //!< which operand position (dst vs src)
    std::int32_t value = 0;  //!< the proven immediate
    Addr defPc = 0;          //!< the unique `mov LOC, #imm` definition
};

/**
 * Read-only operand positions whose unique reaching definition is a
 * `mov` of an immediate: rewriting the operand to that immediate
 * preserves the value read on every path.
 */
std::vector<ConstUse> findConstPropUses(const Cfg& cfg,
                                        const ReachDefsResult& rd,
                                        const AbsIntResult& ai);

/** A provably no-op copy. */
struct RedundantCopy
{
    Addr pc = 0;    //!< the `mov X, Y` proven to rewrite X with itself
    Addr defPc = 0; //!< the earlier copy that already established X = Y
};

/**
 * Copies `mov X, Y` where X provably already holds Y's value: either
 * the same copy reaches unchanged (X=Y established, Y undisturbed), or
 * the reverse copy `mov Y, X` reaches with X undisturbed.
 */
std::vector<RedundantCopy> findRedundantCopies(const Cfg& cfg,
                                               const ReachDefsResult& rd,
                                               const AbsIntResult& ai);

} // namespace crisp::analysis

#endif // CRISP_ANALYSIS_REACHDEFS_HH
