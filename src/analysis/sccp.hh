/**
 * @file
 * Sparse conditional constant propagation over the issue-point CFG.
 *
 * Same lattice and transfer function as absint.hh — value intervals,
 * SP, tracked memory words, flag definedness — but edges participate in
 * the fixpoint:
 *
 *  - a conditional branch whose post-body flag is proven constant only
 *    propagates state along the proven edge, so code behind a
 *    never-taken (or always-taken) branch stays abstractly unreachable
 *    and its facts never pollute joins downstream;
 *  - a conditional edge that stays feasible refines the flag to the
 *    value that edge implies (the taken edge of an iftjmp knows the
 *    flag was true), which lets correlated second tests prove constant
 *    even where the plain interpreter joins both arms.
 *
 * It is interpret() with AbsIntOptions::pruneEdges set: one engine, one
 * worklist, the pruning switch the only difference. The result is
 * strictly at least as precise as the plain run: every state SCCP
 * reports is contained in the plain interpreter's state at the same
 * point, and nodes the plain interpreter proves constant stay constant
 * here unless SCCP proves them unreachable outright. The seeded
 * agreement sweep in tests/test_dataflow.cc checks exactly that
 * relation, and torture invariant 7 enforces the refined bounds
 * dynamically at retire time.
 */

#ifndef CRISP_ANALYSIS_SCCP_HH
#define CRISP_ANALYSIS_SCCP_HH

#include <map>
#include <set>

#include "absint.hh"

namespace crisp::analysis
{

/** Fixpoint of one sparse-conditional run. */
struct SccpResult
{
    /**
     * Refined pre-/post-states, drop-in compatible with every
     * AbsIntResult consumer (computeCost in particular). Nodes SCCP
     * proves unreachable keep reachable == false.
     */
    AbsIntResult state;

    /** Issue points with an abstractly-reachable in-state. */
    std::set<Addr> executable;

    /**
     * Conditional issue points (reachable, flag proven) mapped to the
     * proven branch direction: true = always taken.
     */
    std::map<Addr, bool> provenDirection;
};

/** Run sparse conditional constant propagation to fixpoint
 *  (@p opts.pruneEdges is forced on). */
SccpResult sccp(const Cfg& cfg, const AbsIntOptions& opts = {});

} // namespace crisp::analysis

#endif // CRISP_ANALYSIS_SCCP_HH
