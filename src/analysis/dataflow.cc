/**
 * @file
 * Concrete dataflow passes over the issue-point CFG.
 */

#include "dataflow.hh"

#include <algorithm>
#include <limits>

#include "worklist.hh"

namespace crisp::analysis
{

std::map<Addr, SpreadInfo>
analyzeSpread(const Cfg& cfg)
{
    // Per node IN: the slot distance since the last CC writer,
    // saturating at kSlotCap, and whether some path reaches the node
    // with no compare executed at all. The default value is the meet
    // identity. Roots start at the cap too: before the first compare
    // ever executes the flag is architecturally final, so a branch
    // there resolves at issue exactly like a fully spread one.
    struct Reach
    {
        int dist = kSlotCap;
        bool noCompare = false;
        bool operator==(const Reach&) const = default;
    };
    std::vector<Reach> in(cfg.size());
    std::vector<Reach> out(cfg.size());
    NodeQueue work(cfg.size());
    for (int id = 0; id < static_cast<int>(cfg.size()); ++id)
        work.push(id);
    const auto step = [&](int id) {
        const CfgNode& n = cfg.at(id);
        Reach i;
        i.noCompare = n.predIds.empty();
        for (const int p : n.predIds) {
            const Reach& po = out[static_cast<std::size_t>(p)];
            i.dist = std::min(i.dist, po.dist);
            i.noCompare = i.noCompare || po.noCompare;
        }
        in[static_cast<std::size_t>(id)] = i;
        if (n.di.totalParcels > 0 && n.di.writesCc)
            return Reach{0, false};
        return Reach{std::min(i.dist + 1, kSlotCap), i.noCompare};
    };
    // Finite lattice, monotone transfer: no step cap needed.
    std::uint64_t steps = 0;
    runWorklist(cfg, work, out, /*backward=*/false,
                std::numeric_limits<std::uint64_t>::max(), steps, step);

    std::map<Addr, SpreadInfo> spread;
    for (const CfgNode& n : cfg.nodes()) {
        if (n.di.totalParcels == 0 || !n.di.hasCondBranch())
            continue;
        SpreadInfo s;
        s.pc = n.di.pc;
        s.branchPc = n.di.branchPc;
        // A branch folded with its own compare issues in the same slot
        // as the CC write: separation zero by definition.
        const Reach& i = in[static_cast<std::size_t>(n.id)];
        s.issueSlots =
            n.di.writesCc ? 0 : std::min(i.dist + 1, kSlotCap);
        s.guaranteedResolved = s.issueSlots >= kResolveSlots;
        s.compareMayBeMissing = i.noCompare;
        spread.emplace_hint(spread.end(), n.di.pc, s);
    }
    return spread;
}

std::string_view
noFoldReasonName(NoFoldReason r)
{
    switch (r) {
      case NoFoldReason::kNone:
        return "folds";
      case NoFoldReason::kPolicyNone:
        return "folding disabled by policy";
      case NoFoldReason::kNotOneParcel:
        return "branch is not one parcel (calls and relaxed branches)";
      case NoFoldReason::kIndirect:
        return "indirect branches never fold";
      case NoFoldReason::kNoCarrier:
        return "only entered directly (jump target or entry point)";
      case NoFoldReason::kCarrierTooLong:
        return "carrier too long for the fold policy";
      case NoFoldReason::kCarrierControl:
        return "preceding instruction transfers control";
    }
    return "?";
}

namespace
{

NoFoldReason
loneReason(const Cfg& cfg, const CfgNode& n)
{
    const DecodedInst& di = n.di;
    if (di.ctl == Ctl::kIndirect)
        return NoFoldReason::kIndirect;
    if (di.totalParcels != 1)
        return NoFoldReason::kNotOneParcel;
    if (cfg.policy() == FoldPolicy::kNone)
        return NoFoldReason::kPolicyNone;

    // A one-parcel PC-relative branch that still issues alone: nothing
    // upstream could carry it. Distinguish "the textual predecessor
    // falls in without folding" (too-long carrier) from "control only
    // ever arrives by transfer".
    NoFoldReason r = NoFoldReason::kNoCarrier;
    for (const Addr p : n.preds) {
        const DecodedInst& pd = cfg.node(p).di;
        if (pd.ctl == Ctl::kSeq && pd.seqPc == di.pc)
            return NoFoldReason::kCarrierTooLong;
        if (pd.ctl == Ctl::kCall && pd.callRetPc == di.pc)
            r = NoFoldReason::kCarrierControl;
    }
    return r;
}

} // namespace

std::map<Addr, BranchSite>
collectBranchSites(const Cfg& cfg,
                   const std::map<Addr, SpreadInfo>& spread)
{
    struct Occurrence
    {
        bool folded = false;
        bool lone = false;
        bool foldedGuaranteed = true;
        bool loneGuaranteed = true;
    };
    std::map<Addr, BranchSite> sites;
    std::map<Addr, Occurrence> occ;

    for (const CfgNode& n : cfg.nodes()) {
        const DecodedInst& di = n.di;
        if (di.totalParcels == 0 || (!di.folded && !di.loneBranch))
            continue;

        BranchSite& s = sites[di.branchPc];
        s.branchPc = di.branchPc;
        s.op = di.branchOp;
        s.conditional = di.hasCondBranch();
        s.predictTaken = di.predictTaken;
        s.shortForm = di.branchShortForm;
        s.indirect = di.ctl == Ctl::kIndirect;
        s.takenPc = di.takenPc;

        Occurrence& o = occ[di.branchPc];
        const auto sp = spread.find(n.di.pc);
        const bool guaranteed =
            !di.hasCondBranch() ||
            (sp != spread.end() && sp->second.guaranteedResolved);
        if (di.folded) {
            o.folded = true;
            o.foldedGuaranteed = o.foldedGuaranteed && guaranteed;
            s.carrierPc = n.di.pc;
        } else {
            o.lone = true;
            o.loneGuaranteed = o.loneGuaranteed && guaranteed;
            s.reason = loneReason(cfg, n);
        }
    }

    for (auto& [pc, s] : sites) {
        const Occurrence& o = occ.at(pc);
        if (o.folded && o.lone)
            s.cls = FoldClass::kMixed;
        else if (o.folded)
            s.cls = FoldClass::kFolded;
        else
            s.cls = FoldClass::kLone;
        if (s.cls == FoldClass::kFolded)
            s.reason = NoFoldReason::kNone;
        s.guaranteedResolved =
            s.conditional && (!o.folded || o.foldedGuaranteed) &&
            (!o.lone || o.loneGuaranteed);
    }
    return sites;
}

std::vector<StackIssue>
analyzeStackWindow(const Cfg& cfg, int window_words)
{
    std::vector<StackIssue> out;
    std::set<std::pair<Addr, std::int32_t>> seen;
    for (const CfgNode& n : cfg.nodes()) {
        if (n.di.totalParcels == 0 || n.di.loneBranch)
            continue;
        for (const Operand* o : {&n.di.body.dst, &n.di.body.src}) {
            if (o->mode != AddrMode::kStack && o->mode != AddrMode::kInd)
                continue;
            if (o->value >= 0 && o->value < window_words)
                continue;
            if (!seen.emplace(n.di.pc, o->value).second)
                continue;
            StackIssue issue;
            issue.pc = n.di.pc;
            issue.slot = o->value;
            issue.negative = o->value < 0;
            out.push_back(issue);
        }
    }
    return out;
}

} // namespace crisp::analysis
