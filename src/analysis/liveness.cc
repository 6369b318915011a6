/**
 * @file
 * Backward liveness worklist with absint-resolved memory operands.
 */

#include "liveness.hh"

#include "worklist.hh"

namespace crisp::analysis
{

MemLive
joinMemLive(const MemLive& a, const MemLive& b)
{
    MemLive j;
    if (!a.all && !b.all) {
        j.words = setUnion(a.words, b.words);
        return j;
    }
    j.all = true;
    if (a.all && b.all) {
        // Union of two co-sets: dead only where both sides agree.
        j.words = setIntersection(a.words, b.words);
        return j;
    }
    // co-set ∪ finite set: dead words minus the finite live words.
    const MemLive& co = a.all ? a : b;
    const MemLive& fin = a.all ? b : a;
    j.words = setDifference(co.words, fin.words);
    return j;
}

namespace
{

LiveSet
joinLive(const LiveSet& a, const LiveSet& b)
{
    LiveSet j;
    j.accum = a.accum || b.accum;
    j.flag = a.flag || b.flag;
    j.mem = joinMemLive(a.mem, b.mem);
    return j;
}

/** All-live: the sound degradation when the step cap trips. */
LiveSet
allLive()
{
    LiveSet s;
    s.accum = true;
    s.flag = true;
    s.mem.genAll();
    return s;
}

/** One node's backward transfer, parameterized on absint SP facts. */
struct Xfer
{
    LiveSet s;
    const AbsState& pre; // absint IN state: operands evaluate against it

    std::optional<Addr>
    address(const Operand& o) const
    {
        switch (o.mode) {
          case AddrMode::kStack: {
            const auto sp = pre.sp.constant();
            if (!sp)
                return std::nullopt;
            return static_cast<Addr>(*sp) +
                   static_cast<Addr>(o.value) * kWordBytes;
          }
          case AddrMode::kAbs:
            return static_cast<Addr>(o.value);
          default:
            return std::nullopt;
        }
    }

    void
    genRead(const Operand& o)
    {
        switch (o.mode) {
          case AddrMode::kImm:
          case AddrMode::kNone:
            return;
          case AddrMode::kAccum:
            s.accum = true;
            return;
          case AddrMode::kStack:
          case AddrMode::kAbs: {
            const auto a = address(o);
            if (a)
                s.mem.gen(*a);
            else
                s.mem.genAll();
            return;
          }
          case AddrMode::kInd:
            // Reads the pointer slot and an unknown target word.
            s.mem.genAll();
            return;
        }
    }

    void
    killWrite(const Operand& o)
    {
        switch (o.mode) {
          case AddrMode::kAccum:
            s.accum = false;
            return;
          case AddrMode::kStack:
          case AddrMode::kAbs: {
            // A kill must be definite: unresolved writes kill nothing.
            const auto a = address(o);
            if (a)
                s.mem.kill(*a);
            return;
          }
          case AddrMode::kInd: {
            // Target unknown (kills nothing), but the pointer slot is
            // read to form the address.
            const auto sp = pre.sp.constant();
            if (sp) {
                s.mem.gen(static_cast<Addr>(*sp) +
                          static_cast<Addr>(o.value) * kWordBytes);
            } else {
                s.mem.genAll();
            }
            return;
          }
          case AddrMode::kImm:
          case AddrMode::kNone:
            return;
        }
    }
};

/** Live-in of @p di given live-out @p out and absint pre-state. */
LiveSet
transferBack(const DecodedInst& di, const LiveSet& out,
             const AbsState& pre)
{
    Xfer x{out, pre};

    // Control part first (it executes after the body).
    if (di.hasCondBranch())
        x.s.flag = true;
    if (di.ctl == Ctl::kIndirect)
        x.s.mem.genAll(); // jump-table word read through a pointer

    const Instruction& b = di.body;
    const Opcode op = b.op;
    if (di.loneBranch || op == Opcode::kNop || op == Opcode::kHalt ||
        op == Opcode::kEnter || op == Opcode::kLeave) {
        // no data effect
    } else if (op == Opcode::kReturn) {
        // Pops the return word at sp + frameWords * 4.
        const auto sp = pre.sp.constant();
        if (sp) {
            x.s.mem.gen(static_cast<Addr>(*sp) +
                        static_cast<Addr>(b.dst.value) * kWordBytes);
        } else {
            x.s.mem.genAll();
        }
    } else if (op == Opcode::kCall) {
        // Pushes the return word at sp - 4: a definite write when
        // resolved, so the slot's prior value dies here.
        const auto sp = pre.sp.constant();
        if (sp)
            x.s.mem.kill(static_cast<Addr>(*sp) - kWordBytes);
    } else if (op == Opcode::kMov) {
        x.killWrite(b.dst);
        x.genRead(b.src);
    } else if (isCompare(op)) {
        x.s.flag = false;
        x.genRead(b.dst);
        x.genRead(b.src);
    } else if (isAlu3(op)) {
        x.s.accum = false;
        x.genRead(b.dst);
        x.genRead(b.src);
    } else if (isAlu2(op)) {
        x.killWrite(b.dst);
        x.genRead(b.dst);
        x.genRead(b.src);
    }
    return x.s;
}

} // namespace

LivenessResult
computeLiveness(const Cfg& cfg, const AbsIntResult& ai)
{
    LivenessResult r;
    const Program& prog = cfg.program();

    // Observable at exit: the accumulator and every data-segment word.
    // Stack slots are frame-local by the observability contract shared
    // with tv.cc; text words are excluded from *dead-store reporting*
    // below instead of being carried in every set.
    LiveSet boundary;
    boundary.accum = true;
    for (Addr a = prog.dataBase;
         a < prog.dataBase + static_cast<Addr>(prog.data.size());
         a += kWordBytes) {
        boundary.mem.gen(a);
    }

    r.in.resize(cfg.size());
    r.out.resize(cfg.size());
    const auto reachable = [&](int id) {
        return ai.in[static_cast<std::size_t>(id)].reachable;
    };

    // Seed back-to-front: roughly one sweep to a fixpoint.
    NodeQueue work(cfg.size());
    for (int id = static_cast<int>(cfg.size()) - 1; id >= 0; --id)
        work.push(id);

    std::uint64_t steps = 0;
    const auto step = [&](int id) {
        const auto i = static_cast<std::size_t>(id);
        // Abstractly-unreachable nodes (SCCP-pruned arms) never
        // execute; they contribute no liveness and are left empty.
        if (!reachable(id))
            return r.in[i];

        const CfgNode& n = cfg.at(id);
        LiveSet o = n.succIds.empty() ? boundary : LiveSet{};
        for (const int s : n.succIds)
            o = joinLive(o, r.in[static_cast<std::size_t>(s)]);
        r.out[i] = o;
        if (n.di.totalParcels <= 0)
            return o; // decode-error placeholder
        return transferBack(n.di, o, ai.in[i]);
    };

    if (!runWorklist(cfg, work, r.in, /*backward=*/true,
                     absintStepCap(cfg), steps, step)) {
        // Sound degradation: everything live, nothing dead.
        r.converged = false;
        for (LiveSet& s : r.in)
            s = allLive();
        for (LiveSet& s : r.out)
            s = allLive();
        return r;
    }

    // Dead-definition report: reachable nodes whose only effect is
    // provably unobservable. Text-segment stores are never reported
    // (self-modifying code is observable through fetch).
    for (const CfgNode& n : cfg.nodes()) {
        if (!reachable(n.id) || n.di.totalParcels <= 0 ||
            n.di.loneBranch || n.di.ctl == Ctl::kIndirect) {
            continue;
        }
        const Instruction& b = n.di.body;
        const LiveSet& lo = r.out[static_cast<std::size_t>(n.id)];
        if (isCompare(b.op)) {
            // A folded branch in this same entry reads the flag the
            // compare just set; live-out alone would miss that.
            if (!lo.flag && !n.di.hasCondBranch())
                r.dead.push_back({n.di.pc, DeadKind::kCompare, 0});
            continue;
        }
        const bool to_accum =
            isAlu3(b.op) ||
            (b.op == Opcode::kMov && b.dst.mode == AddrMode::kAccum);
        if (to_accum) {
            if (!lo.accum)
                r.dead.push_back({n.di.pc, DeadKind::kAccumDef, 0});
            continue;
        }
        const bool to_mem =
            (b.op == Opcode::kMov || isAlu2(b.op)) &&
            (b.dst.mode == AddrMode::kStack ||
             b.dst.mode == AddrMode::kAbs);
        if (!to_mem)
            continue;
        Xfer x{LiveSet{}, ai.in[static_cast<std::size_t>(n.id)]};
        const auto a = x.address(b.dst);
        if (a && !prog.inText(*a) && !lo.mem.isLive(*a))
            r.dead.push_back({n.di.pc, DeadKind::kMemStore, *a});
    }
    return r;
}

} // namespace crisp::analysis
