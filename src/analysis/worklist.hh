/**
 * @file
 * The worklist every fixpoint over the issue-point CFG runs on: the
 * abstract interpreter and SCCP (absint.hh, sccp.hh), the value-set
 * phase of the target analysis, reaching definitions, liveness and the
 * spread passes. Per-node state lives in vectors indexed by CfgNode::id,
 * so a step costs no address lookups.
 */

#ifndef CRISP_ANALYSIS_WORKLIST_HH
#define CRISP_ANALYSIS_WORKLIST_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "cfg.hh"

namespace crisp::analysis
{

/** FIFO queue of node ids that holds each node at most once. */
class NodeQueue
{
  public:
    explicit NodeQueue(std::size_t nodes)
        : ring_(nodes), queued_(nodes, 0)
    {}

    bool empty() const { return count_ == 0; }

    /** Append @p id unless it is already waiting. */
    void
    push(int id)
    {
        const auto i = static_cast<std::size_t>(id);
        if (queued_[i] != 0)
            return;
        queued_[i] = 1;
        std::size_t tail = head_ + count_;
        if (tail >= ring_.size())
            tail -= ring_.size();
        ring_[tail] = id;
        ++count_;
    }

    /** Remove and return the oldest waiting id. */
    int
    pop()
    {
        const int id = ring_[head_];
        if (++head_ == ring_.size())
            head_ = 0;
        --count_;
        queued_[static_cast<std::size_t>(id)] = 0;
        return id;
    }

  private:
    std::vector<int> ring_;
    std::vector<char> queued_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

/**
 * Run @p queue to a fixpoint. Each step pops the oldest node and lets
 * @p step recompute the state that node hands its neighbours (OUT for
 * a forward problem, IN for a backward one), stored wherever the pass
 * keeps it; @p step returns true when that state changed, and the
 * neighbours are then queued: successors, or predecessors when
 * @p backward. @p steps counts the steps taken.
 * @return false when a step past @p step_cap was due: the caller's
 * cue for its sound bail-out.
 */
template <class Step>
bool
runWorklistSteps(const Cfg& cfg, NodeQueue& queue, bool backward,
                 std::uint64_t step_cap, std::uint64_t& steps, Step step)
{
    while (!queue.empty()) {
        if (++steps > step_cap)
            return false;
        const int id = queue.pop();
        if (!step(id))
            continue;
        const CfgNode& n = cfg.at(id);
        for (const int m : backward ? n.predIds : n.succIds)
            queue.push(m);
    }
    return true;
}

/**
 * runWorklistSteps over states kept in @p flow: @p step returns the
 * node's new state, which replaces flow[id] when it differs.
 */
template <class State, class Step>
bool
runWorklist(const Cfg& cfg, NodeQueue& queue, std::vector<State>& flow,
            bool backward, std::uint64_t step_cap, std::uint64_t& steps,
            Step step)
{
    return runWorklistSteps(
        cfg, queue, backward, step_cap, steps, [&](int id) {
            State s = step(id);
            State& slot = flow[static_cast<std::size_t>(id)];
            if (s == slot)
                return false;
            slot = std::move(s);
            return true;
        });
}

} // namespace crisp::analysis

#endif // CRISP_ANALYSIS_WORKLIST_HH
