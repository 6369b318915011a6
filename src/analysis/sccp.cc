/**
 * @file
 * Sparse conditional constant propagation: the abstract interpreter's
 * worklist with edge pruning on, plus the per-node verdicts read off
 * its fixpoint.
 */

#include "sccp.hh"

namespace crisp::analysis
{

SccpResult
sccp(const Cfg& cfg, const AbsIntOptions& opts)
{
    AbsIntOptions pruned = opts;
    pruned.pruneEdges = true;
    SccpResult r;
    r.state = interpret(cfg, pruned);

    // After a step-cap bail every state is top: all nodes executable,
    // no direction proven.
    for (const CfgNode& n : cfg.nodes()) {
        const auto id = static_cast<std::size_t>(n.id);
        if (!r.state.in[id].reachable)
            continue;
        r.executable.insert(r.executable.end(), n.di.pc);
        if (!n.di.hasCondBranch())
            continue;
        if (const auto f = r.state.out[id].flag.constant())
            r.provenDirection.emplace_hint(r.provenDirection.end(), n.di.pc,
                                           n.di.condTaken(*f));
    }
    return r;
}

} // namespace crisp::analysis
