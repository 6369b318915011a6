/**
 * @file
 * Worklist abstract interpreter over the issue-point CFG.
 */

#include "absint.hh"

#include "worklist.hh"

namespace crisp::analysis
{

namespace
{

/** SP lives in the unsigned 32-bit address space. */
constexpr std::int64_t kSpMax = 0xFFFFFFFFll;

Interval
spTop()
{
    return {0, kSpMax};
}

/** Shift an SP interval by a known byte delta; wrap risk means top. */
Interval
spAdd(const Interval& sp, std::int64_t delta)
{
    const Interval r{sp.lo + delta, sp.hi + delta};
    if (r.lo < 0 || r.hi > kSpMax)
        return spTop();
    return r;
}

/** Tracked-memory size cap; past it the map degrades to top. */
constexpr std::size_t kMemCap = 64;

bool
intervalGrew(const Interval& prev, const Interval& next)
{
    return next.lo < prev.lo || next.hi > prev.hi;
}

Interval
widenSp(const Interval& prev, const Interval& next)
{
    if (intervalGrew(prev, next))
        return spTop();
    return next;
}

} // namespace

AbsState
widenAbsState(const AbsState& prev, const AbsState& next, int& widenings)
{
    if (!prev.reachable)
        return next;
    AbsState w = next;
    if (intervalGrew(prev.accum, next.accum)) {
        w.accum = widenInterval(prev.accum, next.accum);
        ++widenings;
    }
    if (intervalGrew(prev.sp, next.sp)) {
        w.sp = widenSp(prev.sp, next.sp);
        ++widenings;
    }
    w.mem.eraseIf([&](const std::pair<Addr, Interval>& e) {
        const auto p = prev.mem.find(e.first);
        // No fact in prev (top) means next is narrower: keep it.
        if (p == prev.mem.end() || !intervalGrew(p->second, e.second))
            return false;
        ++widenings;
        return true; // widen straight to top
    });
    return w;
}

namespace
{

/** One abstract machine the transfer function mutates in place. */
struct Machine
{
    AbsState& st;

    Interval
    memAt(Addr a) const
    {
        const auto it = st.mem.find(a);
        return it == st.mem.end() ? Interval::top() : it->second;
    }

    void
    memSet(Addr a, const Interval& v)
    {
        if (v.isTop()) {
            st.mem.erase(a);
            return;
        }
        st.mem[a] = v;
        if (st.mem.size() > kMemCap)
            st.mem.clear();
    }

    /** Absolute byte address of a direct operand, if provable. */
    std::optional<Addr>
    address(const Operand& o) const
    {
        switch (o.mode) {
          case AddrMode::kStack: {
            const auto sp = st.sp.constant();
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

    Interval
    read(const Operand& o) const
    {
        switch (o.mode) {
          case AddrMode::kImm:
            return Interval::of(o.value);
          case AddrMode::kAccum:
            return st.accum;
          case AddrMode::kNone:
            return Interval::of(0);
          case AddrMode::kStack:
          case AddrMode::kAbs: {
            const auto a = address(o);
            return a ? memAt(*a) : Interval::top();
          }
          case AddrMode::kInd:
            return Interval::top();
        }
        return Interval::top();
    }

    void
    write(const Operand& o, const Interval& v)
    {
        switch (o.mode) {
          case AddrMode::kAccum:
            st.accum = v;
            return;
          case AddrMode::kStack:
          case AddrMode::kAbs: {
            const auto a = address(o);
            if (a) {
                memSet(*a, v);
            } else {
                // A store through an unprovable address may clobber
                // any tracked word.
                st.mem.clear();
            }
            return;
          }
          case AddrMode::kInd:
            st.mem.clear();
            return;
          case AddrMode::kImm:
          case AddrMode::kNone:
            st.mem.clear(); // malformed writes never reach here
            return;
        }
    }
};

} // namespace

void
absTransfer(const DecodedInst& di, AbsState& st)
{
    Machine m{st};
    const Instruction& b = di.body;
    const Opcode op = b.op;

    if (di.loneBranch || op == Opcode::kNop || op == Opcode::kHalt) {
        // no body effect
    } else if (op == Opcode::kEnter) {
        m.st.sp = spAdd(m.st.sp,
                        -static_cast<std::int64_t>(b.dst.value) *
                            kWordBytes);
    } else if (op == Opcode::kLeave) {
        m.st.sp = spAdd(m.st.sp,
                        static_cast<std::int64_t>(b.dst.value) *
                            kWordBytes);
    } else if (op == Opcode::kReturn) {
        // Frame deallocation plus the return-address pop; the target
        // itself is control, not state.
        m.st.sp = spAdd(m.st.sp,
                        static_cast<std::int64_t>(b.dst.value) *
                                kWordBytes +
                            kWordBytes);
    } else if (op == Opcode::kMov) {
        m.write(b.dst, m.read(b.src));
    } else if (isCompare(op)) {
        m.st.flag = absCompare(op, m.read(b.dst), m.read(b.src));
    } else if (isAlu3(op)) {
        m.st.accum = absAlu(op, m.read(b.dst), m.read(b.src));
    } else if (isAlu2(op)) {
        m.write(b.dst, absAlu(op, m.read(b.dst), m.read(b.src)));
    }

    if (di.ctl == Ctl::kCall) {
        // This OUT models the call -> CALLEE edge only: the callee
        // entry sees the caller's state exactly (call writes no CC and
        // no accumulator), after one return-address word is pushed.
        // The call -> return-site edge must instead summarize the
        // whole unanalyzed callee body; interpret() substitutes
        // all-top on that edge at join time.
        m.st.sp = spAdd(m.st.sp, -static_cast<std::int64_t>(kWordBytes));
        if (const auto spc = m.st.sp.constant()) {
            m.memSet(static_cast<Addr>(*spc),
                     Interval::of(static_cast<std::int32_t>(
                         di.callRetPc)));
        } else {
            m.st.mem.clear(); // push through unknown sp may alias
        }
    }
}

Interval
hull(const Interval& a, const Interval& b)
{
    return {a.lo < b.lo ? a.lo : b.lo, a.hi > b.hi ? a.hi : b.hi};
}

Interval
widenInterval(const Interval& prev, const Interval& next)
{
    Interval w = next;
    if (next.lo < prev.lo)
        w.lo = INT32_MIN;
    if (next.hi > prev.hi)
        w.hi = INT32_MAX;
    return w;
}

void
resetState(AbsState& s)
{
    s.reachable = false;
    s.accum = Interval{};
    s.sp = Interval{};
    s.flag = FlagVal{};
    s.mem.clear();
}

void
joinInto(AbsState& into, const AbsState& b, const FlagVal* flag)
{
    if (!b.reachable)
        return;
    const FlagVal bf = flag != nullptr ? *flag : b.flag;
    if (!into.reachable) {
        into = b;
        into.flag = bf;
        return;
    }
    into.accum = hull(into.accum, b.accum);
    into.sp = hull(into.sp, b.sp);
    into.flag.mayTrue = into.flag.mayTrue || bf.mayTrue;
    into.flag.mayFalse = into.flag.mayFalse || bf.mayFalse;
    into.mem.eraseIf([&](std::pair<Addr, Interval>& e) {
        const auto other = b.mem.find(e.first);
        if (other == b.mem.end())
            return true; // top on one side: drop the fact
        e.second = hull(e.second, other->second);
        return e.second.isTop();
    });
}

FlagVal
absCompare(Opcode op, const Interval& a, const Interval& b)
{
    const auto ca = a.constant();
    const auto cb = b.constant();
    if (ca && cb)
        return FlagVal::known(evalCompare(op, *ca, *cb));

    const bool disjoint = a.hi < b.lo || b.hi < a.lo;
    switch (op) {
      case Opcode::kCmpEq:
        if (disjoint)
            return FlagVal::known(false);
        break;
      case Opcode::kCmpNe:
        if (disjoint)
            return FlagVal::known(true);
        break;
      case Opcode::kCmpLt:
        if (a.hi < b.lo)
            return FlagVal::known(true);
        if (a.lo >= b.hi)
            return FlagVal::known(false);
        break;
      case Opcode::kCmpLe:
        if (a.hi <= b.lo)
            return FlagVal::known(true);
        if (a.lo > b.hi)
            return FlagVal::known(false);
        break;
      case Opcode::kCmpGt:
        if (a.lo > b.hi)
            return FlagVal::known(true);
        if (a.hi <= b.lo)
            return FlagVal::known(false);
        break;
      case Opcode::kCmpGe:
        if (a.lo >= b.hi)
            return FlagVal::known(true);
        if (a.hi < b.lo)
            return FlagVal::known(false);
        break;
      case Opcode::kCmpLtU:
      case Opcode::kCmpGeU: {
        // Unsigned order agrees with signed order when both operands
        // share a sign; a negative word is unsigned-greater than any
        // non-negative one.
        const bool a_nn = a.lo >= 0;
        const bool b_nn = b.lo >= 0;
        const bool a_neg = a.hi < 0;
        const bool b_neg = b.hi < 0;
        std::optional<bool> lt;
        if ((a_nn && b_nn) || (a_neg && b_neg)) {
            if (a.hi < b.lo)
                lt = true;
            else if (a.lo >= b.hi)
                lt = false;
        } else if (a_nn && b_neg) {
            lt = true;
        } else if (a_neg && b_nn) {
            lt = false;
        }
        if (lt)
            return FlagVal::known(op == Opcode::kCmpLtU ? *lt : !*lt);
        break;
      }
      default:
        break;
    }
    return FlagVal::top();
}

Interval
absAlu(Opcode op, const Interval& a, const Interval& b)
{
    const auto ca = a.constant();
    const auto cb = b.constant();
    if (ca && cb)
        return Interval::of(evalAlu(op, *ca, *cb));

    const auto fits = [](std::int64_t lo, std::int64_t hi) {
        return lo >= INT32_MIN && hi <= INT32_MAX;
    };

    switch (op) {
      case Opcode::kAdd:
      case Opcode::kAdd3:
        if (fits(a.lo + b.lo, a.hi + b.hi))
            return {a.lo + b.lo, a.hi + b.hi};
        break;
      case Opcode::kSub:
      case Opcode::kSub3:
        if (fits(a.lo - b.hi, a.hi - b.lo))
            return {a.lo - b.hi, a.hi - b.lo};
        break;
      case Opcode::kAnd:
      case Opcode::kAnd3:
        // A mask with one provably non-negative side bounds the result
        // regardless of the other side's sign: 0 <= (a & b) <= b when
        // b >= 0 (clearing bits never grows a non-negative word).
        if (a.lo >= 0 && b.lo >= 0)
            return {0, a.hi < b.hi ? a.hi : b.hi};
        if (b.lo >= 0)
            return {0, b.hi};
        if (a.lo >= 0)
            return {0, a.hi};
        break;
      case Opcode::kOr:
      case Opcode::kOr3:
      case Opcode::kXor:
      case Opcode::kXor3:
        if (a.lo >= 0 && b.lo >= 0) {
            // Bits above the highest set bit of either bound stay 0.
            std::int64_t m = a.hi | b.hi;
            m |= m >> 1;
            m |= m >> 2;
            m |= m >> 4;
            m |= m >> 8;
            m |= m >> 16;
            return {0, m};
        }
        break;
      case Opcode::kShl: {
        // Left shift by a constant count is monotone on non-negative
        // words while no shifted bit can reach the sign position.
        if (cb && *cb >= 0 && *cb <= 31 && a.lo >= 0 &&
            (a.hi << *cb) <= INT32_MAX) {
            return {a.lo << *cb, a.hi << *cb};
        }
        break;
      }
      case Opcode::kShr: {
        // Logical shift of the 32-bit word; a shift count provably in
        // [1, 31] bounds the result from above even when the shifted
        // word may be negative (the sign bit is shifted in as zero).
        const std::int64_t cnt_hi =
            b.lo >= 1 && b.hi <= 31 ? (0xFFFFFFFFll >> b.lo) : INT32_MAX;
        if (a.lo >= 0)
            return {0, a.hi < cnt_hi ? a.hi : cnt_hi};
        if (b.lo >= 1 && b.hi <= 31)
            return {0, cnt_hi};
        break;
      }
      case Opcode::kMul:
      case Opcode::kMul3: {
        const std::int64_t p[4] = {a.lo * b.lo, a.lo * b.hi,
                                   a.hi * b.lo, a.hi * b.hi};
        std::int64_t lo = p[0];
        std::int64_t hi = p[0];
        for (const std::int64_t v : p) {
            lo = v < lo ? v : lo;
            hi = v > hi ? v : hi;
        }
        if (fits(lo, hi))
            return {lo, hi};
        break;
      }
      case Opcode::kMov:
        return b;
      default:
        break;
    }
    return Interval::top();
}

const AbsState&
AbsIntResult::inAt(Addr pc) const
{
    static const AbsState top = AbsState::anyState();
    const int id = cfg != nullptr ? cfg->indexOf(pc) : -1;
    return id < 0 ? top : in[static_cast<std::size_t>(id)];
}

const AbsState&
AbsIntResult::outAt(Addr pc) const
{
    static const AbsState top = AbsState::anyState();
    const int id = cfg != nullptr ? cfg->indexOf(pc) : -1;
    return id < 0 ? top : out[static_cast<std::size_t>(id)];
}

std::uint64_t
absintStepCap(const Cfg& cfg, std::uint64_t cap_override)
{
    if (cap_override != 0)
        return cap_override;
    return static_cast<std::uint64_t>(cfg.size()) * kAbsintStepsPerNode +
           256;
}

namespace
{

/**
 * Join into @p into what the edge from predecessor @p pn (OUT state
 * @p po) carries into the node at @p pc.
 */
void
joinEdge(AbsState& into, const CfgNode& pn, const AbsState& po, Addr pc,
         bool prune)
{
    const DecodedInst& pdi = pn.di;
    if (pdi.ctl == Ctl::kCall && pc == pdi.callRetPc) {
        // call -> return-site edge: the callee body between the two
        // points is unanalyzed, so everything it could touch (CC, the
        // accumulator, memory, even the SP discipline) is havocked.
        // Reachability still flows through.
        static const AbsState havoc = AbsState::anyState();
        if (po.reachable)
            joinInto(into, havoc);
        return;
    }
    if (!prune || !po.reachable || !pdi.hasCondBranch() ||
        pdi.takenPc == pdi.seqPc) {
        // Unconditional, or a branch to next: both roles, no implied
        // flag value.
        joinInto(into, po);
        return;
    }

    bool edge_flag;
    if (pc == pdi.takenPc) {
        edge_flag = pdi.ctl == Ctl::kCondT;
    } else if (pc == pdi.seqPc) {
        edge_flag = pdi.ctl == Ctl::kCondF;
    } else {
        joinInto(into, po); // wild-target edge kept by validation
        return;
    }

    // Traversing this edge means the flag held edge_flag: infeasible
    // when the OUT state excludes that value, refining otherwise.
    if (!(edge_flag ? po.flag.mayTrue : po.flag.mayFalse))
        return;
    const FlagVal known = FlagVal::known(edge_flag);
    joinInto(into, po, &known);
}

} // namespace

AbsIntResult
interpret(const Cfg& cfg, const AbsIntOptions& opts)
{
    AbsIntResult r;
    r.cfg = &cfg;
    const Program& prog = cfg.program();
    r.in.resize(cfg.size());
    r.out.resize(cfg.size());

    AbsState boundary;
    boundary.reachable = true;
    boundary.accum = Interval::of(0);
    const std::int64_t sp0 =
        (prog.memBytes - kWordBytes) & ~(kWordBytes - 1);
    boundary.sp = {sp0, sp0};
    // The flag powers on false and the EU honors exactly that value
    // for a branch issued before any compare.
    boundary.flag = FlagVal::known(false);

    const int entry = cfg.indexOf(prog.entry);
    if (entry < 0)
        return r;

    NodeQueue work(cfg.size());
    work.push(entry);
    std::vector<int> joins(cfg.size(), 0);

    // The step builds the IN and OUT states in two scratch states and
    // swaps them into place when they change, so the memory maps'
    // buffers circulate instead of being reallocated every step.
    AbsState i;
    AbsState o;
    const auto step = [&](int id) {
        const CfgNode& n = cfg.at(id);
        const Addr pc = n.di.pc;
        if (id == entry) {
            i = boundary;
        } else {
            resetState(i);
        }
        for (const int p : n.predIds) {
            joinEdge(i, cfg.at(p), r.out[static_cast<std::size_t>(p)],
                     pc, opts.pruneEdges);
        }

        AbsState& in_slot = r.in[static_cast<std::size_t>(id)];
        if (!(i == in_slot)) {
            if (++joins[static_cast<std::size_t>(id)] > kAbsintWidenJoins)
                i = widenAbsState(in_slot, i, r.widenings);
            std::swap(in_slot, i);
        }

        if (!in_slot.reachable) {
            resetState(o);
        } else {
            o = in_slot;
            // A decode-error placeholder has no modeled effect.
            if (n.di.totalParcels > 0)
                absTransfer(n.di, o);
        }
        AbsState& out_slot = r.out[static_cast<std::size_t>(id)];
        if (o == out_slot)
            return false;
        std::swap(out_slot, o);
        return true;
    };

    if (!runWorklistSteps(cfg, work, /*backward=*/false,
                          absintStepCap(cfg, opts.stepCap), r.steps,
                          step)) {
        // Sound bail-out: every discovered issue point is concretely
        // reachable, so all-top over-approximates any fixpoint.
        r.converged = false;
        for (AbsState& st : r.in)
            st = AbsState::anyState();
        for (AbsState& st : r.out)
            st = AbsState::anyState();
    }
    return r;
}

} // namespace crisp::analysis
