/**
 * @file
 * Forward reaching-definitions worklist, def-use chains, and the two
 * provably-safe rewrite finders built on them.
 */

#include "reachdefs.hh"

#include <algorithm>
#include <bit>

#include "worklist.hh"

namespace crisp::analysis
{

namespace
{

/** Present-location cap; past it a state degrades to all-wild. */
constexpr std::size_t kKeyCap = 512;

std::optional<Addr>
resolve(const Operand& o, const AbsState& pre)
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

/** What one issue point's body does to the tracked locations. */
struct RdEffect
{
    /** The location it defines. */
    std::optional<LocKey> def;
    /** A store through an unresolvable address: any memory word. */
    bool havoc = false;
};

/** The effect of @p di under absint pre-state @p pre. */
RdEffect
effectOf(const DecodedInst& di, const AbsState& pre)
{
    RdEffect e;
    if (di.totalParcels <= 0)
        return e; // decode-error placeholder: passes its input through
    const Instruction& b = di.body;
    const Opcode op = b.op;

    const auto defMem = [&](const Operand& o) {
        if (const auto a = resolve(o, pre))
            e.def = static_cast<LocKey>(*a);
        else
            e.havoc = true;
    };

    if (di.loneBranch || op == Opcode::kNop || op == Opcode::kHalt ||
        op == Opcode::kEnter || op == Opcode::kLeave ||
        op == Opcode::kReturn) {
        // no tracked definition
    } else if (op == Opcode::kCall) {
        if (const auto sp = pre.sp.constant())
            e.def = static_cast<LocKey>(*sp) -
                    static_cast<LocKey>(kWordBytes);
        else
            e.havoc = true;
    } else if (op == Opcode::kMov) {
        if (b.dst.mode == AddrMode::kAccum)
            e.def = kAccumLoc;
        else
            defMem(b.dst);
    } else if (isCompare(op)) {
        e.def = kFlagLoc;
    } else if (isAlu3(op)) {
        e.def = kAccumLoc;
    } else if (isAlu2(op)) {
        defMem(b.dst);
    }
    return e;
}

bool
testBit(const std::uint64_t* w, std::size_t i)
{
    return ((w[i / 64] >> (i % 64)) & 1) != 0;
}

void
setBit(std::uint64_t* w, std::size_t i)
{
    w[i / 64] |= std::uint64_t{1} << (i % 64);
}

void
clearBit(std::uint64_t* w, std::size_t i)
{
    w[i / 64] &= ~(std::uint64_t{1} << (i % 64));
}

/**
 * The join and transfer of one run over @p r's layout. A state is
 * r.words words: word 0 holds the reachable bit, then come the def,
 * present and wild sections.
 */
class RdOps
{
  public:
    RdOps(const ReachDefsResult& r, std::vector<bool> havoc)
        : r_(r), havoc_(std::move(havoc)), memDef_(r.defWords, 0),
          memLoc_(r.locWords, 0)
    {
        for (std::size_t id = 0; id < r.defLoc.size(); ++id) {
            const int l = r.defLoc[id];
            if (l >= 0 && r.locs[static_cast<std::size_t>(l)] >= 0)
                setBit(memDef_.data(), id);
        }
        for (std::size_t l = 0; l < r.locs.size(); ++l) {
            if (r.locs[l] >= 0)
                setBit(memLoc_.data(), l);
        }
    }

    std::uint64_t* defs(std::uint64_t* s) const { return s + 1; }

    std::uint64_t*
    present(std::uint64_t* s) const
    {
        return s + 1 + r_.defWords;
    }

    std::uint64_t*
    wild(std::uint64_t* s) const
    {
        return s + 1 + r_.defWords + r_.locWords;
    }

    /** Join @p b into @p into. */
    void
    join(std::uint64_t* into, const std::uint64_t* b) const
    {
        if (b[0] == 0)
            return;
        if (into[0] == 0) {
            std::copy(b, b + r_.words, into);
            return;
        }
        const std::uint64_t* bp = b + 1 + r_.defWords;
        const std::uint64_t* bw = bp + r_.locWords;
        std::uint64_t* p = present(into);
        std::uint64_t* w = wild(into);
        for (std::size_t i = 0; i < r_.defWords; ++i)
            into[1 + i] |= b[1 + i];
        // A location present on one side only is wild on the other.
        for (std::size_t i = 0; i < r_.locWords; ++i) {
            w[i] |= bw[i] | (p[i] ^ bp[i]);
            p[i] |= bp[i];
        }
        cap(into);
    }

    /** Join a reachable state with nothing tracked (a havocked edge). */
    void
    joinWild(std::uint64_t* into) const
    {
        if (into[0] == 0) {
            into[0] = 1;
            return;
        }
        const std::uint64_t* p = present(into);
        std::uint64_t* w = wild(into);
        for (std::size_t i = 0; i < r_.locWords; ++i)
            w[i] |= p[i];
    }

    /** Apply issue point @p id's body to reachable state @p s. */
    void
    transfer(std::uint64_t* s, std::size_t id) const
    {
        if (havoc_[id]) {
            std::uint64_t* d = defs(s);
            for (std::size_t i = 0; i < r_.defWords; ++i)
                d[i] &= ~memDef_[i];
            std::uint64_t* p = present(s);
            std::uint64_t* w = wild(s);
            for (std::size_t i = 0; i < r_.locWords; ++i) {
                p[i] &= ~memLoc_[i];
                w[i] &= ~memLoc_[i];
            }
        }
        const int l = r_.defLoc[id];
        if (l >= 0) {
            const auto li = static_cast<std::size_t>(l);
            const std::uint64_t* kill = &r_.killMask[li * r_.defWords];
            std::uint64_t* d = defs(s);
            for (std::size_t i = 0; i < r_.defWords; ++i)
                d[i] &= ~kill[i];
            setBit(d, id);
            setBit(present(s), li);
            clearBit(wild(s), li);
        }
        cap(s);
    }

  private:
    /** Past kKeyCap present locations, degrade to all-wild. */
    void
    cap(std::uint64_t* s) const
    {
        if (r_.locs.size() <= kKeyCap)
            return;
        const std::uint64_t* p = present(s);
        std::size_t n = 0;
        for (std::size_t i = 0; i < r_.locWords; ++i)
            n += static_cast<std::size_t>(std::popcount(p[i]));
        if (n > kKeyCap)
            std::fill(s + 1, s + r_.words, 0);
    }

    const ReachDefsResult& r_;
    std::vector<bool> havoc_;
    std::vector<std::uint64_t> memDef_;
    std::vector<std::uint64_t> memLoc_;
};

const std::uint64_t*
stateAt(const ReachDefsResult& r, int id)
{
    return &r.in[static_cast<std::size_t>(id) * r.words];
}

/** Index of @p key in r.locs, or -1 when no node defines it. */
int
locIndex(const ReachDefsResult& r, LocKey key)
{
    const auto it = std::lower_bound(r.locs.begin(), r.locs.end(), key);
    if (it == r.locs.end() || *it != key)
        return -1;
    return static_cast<int>(it - r.locs.begin());
}

bool
presentAt(const ReachDefsResult& r, const std::uint64_t* s, int l)
{
    return testBit(s + 1 + r.defWords, static_cast<std::size_t>(l));
}

bool
wildAt(const ReachDefsResult& r, const std::uint64_t* s, int l)
{
    return testBit(s + 1 + r.defWords + r.locWords,
                   static_cast<std::size_t>(l));
}

/** Visit, in ascending pc order, the definers of location @p l whose
 *  def bit is set in @p s. */
template <class F>
void
forEachDef(const ReachDefsResult& r, const std::uint64_t* s, int l, F f)
{
    const std::uint64_t* kill =
        &r.killMask[static_cast<std::size_t>(l) * r.defWords];
    for (std::size_t i = 0; i < r.defWords; ++i) {
        for (std::uint64_t b = kill[i] & s[1 + i]; b != 0; b &= b - 1) {
            const auto id = i * 64 +
                            static_cast<std::size_t>(std::countr_zero(b));
            f(r.cfg->at(static_cast<int>(id)).di.pc);
        }
    }
}

const AbsState&
preStateAt(const AbsIntResult& ai, const CfgNode& n)
{
    return ai.in[static_cast<std::size_t>(n.id)];
}

/** Read-only operand positions of one issue point's body. */
struct BodyReads
{
    std::vector<std::pair<const Operand*, bool>> ops; // (operand, isDst)
    bool readsAccumViaMode = false;
};

BodyReads
bodyReads(const DecodedInst& di)
{
    BodyReads r;
    if (di.loneBranch)
        return r;
    const Instruction& b = di.body;
    const Opcode op = b.op;
    if (op == Opcode::kMov) {
        r.ops.push_back({&b.src, false});
    } else if (isCompare(op) || isAlu3(op)) {
        r.ops.push_back({&b.dst, true});
        r.ops.push_back({&b.src, false});
    } else if (isAlu2(op)) {
        // dst is read too, but rewriting it would change the
        // destination: only src is a *rewritable* read.
        r.ops.push_back({&b.src, false});
    }
    return r;
}

} // namespace

bool
ReachDefsResult::reachable(int id) const
{
    return stateAt(*this, id)[0] != 0;
}

std::vector<LocKey>
ReachDefsResult::trackedAt(int id) const
{
    std::vector<LocKey> keys;
    const std::uint64_t* s = stateAt(*this, id);
    for (std::size_t l = 0; l < locs.size(); ++l) {
        if (presentAt(*this, s, static_cast<int>(l)))
            keys.push_back(locs[l]);
    }
    return keys;
}

std::vector<Addr>
ReachDefsResult::defsOf(int id, LocKey key) const
{
    const std::uint64_t* s = stateAt(*this, id);
    const int l = locIndex(*this, key);
    if (l < 0 || !presentAt(*this, s, l))
        return {kWildDef};
    std::vector<Addr> out;
    forEachDef(*this, s, l, [&](Addr d) { out.push_back(d); });
    if (wildAt(*this, s, l))
        out.push_back(kWildDef);
    return out;
}

std::optional<Addr>
ReachDefsResult::uniqueDef(int id, LocKey key) const
{
    const std::uint64_t* s = stateAt(*this, id);
    const int l = locIndex(*this, key);
    if (l < 0 || !presentAt(*this, s, l) || wildAt(*this, s, l))
        return std::nullopt;
    std::optional<Addr> d;
    int n = 0;
    forEachDef(*this, s, l, [&](Addr pc) {
        d = pc;
        ++n;
    });
    return n == 1 ? d : std::nullopt;
}

ReachDefsResult
computeReachDefs(const Cfg& cfg, const AbsIntResult& ai)
{
    ReachDefsResult r;
    r.cfg = &cfg;
    const Program& prog = cfg.program();
    const std::size_t nodes = cfg.size();

    // The location table: every location some body defines under its
    // (fixed) absint pre-state.
    std::vector<RdEffect> fx(nodes);
    std::vector<bool> havoc(nodes, false);
    for (std::size_t id = 0; id < nodes; ++id) {
        fx[id] = effectOf(cfg.at(static_cast<int>(id)).di, ai.in[id]);
        havoc[id] = fx[id].havoc;
        if (fx[id].def)
            r.locs.push_back(*fx[id].def);
    }
    std::sort(r.locs.begin(), r.locs.end());
    r.locs.erase(std::unique(r.locs.begin(), r.locs.end()), r.locs.end());
    r.defWords = (nodes + 63) / 64;
    r.locWords = (r.locs.size() + 63) / 64;
    r.words = 1 + r.defWords + 2 * r.locWords;
    r.defLoc.assign(nodes, -1);
    r.killMask.assign(r.locs.size() * r.defWords, 0);
    for (std::size_t id = 0; id < nodes; ++id) {
        if (!fx[id].def)
            continue;
        const int l = locIndex(r, *fx[id].def);
        r.defLoc[id] = l;
        setBit(&r.killMask[static_cast<std::size_t>(l) * r.defWords], id);
    }
    const RdOps ops(r, std::move(havoc));

    r.in.assign(nodes * r.words, 0);
    std::vector<std::uint64_t> out(nodes * r.words, 0);
    const int entry = cfg.indexOf(prog.entry);
    if (entry < 0)
        return r;

    NodeQueue work(nodes);
    work.push(entry);
    std::uint64_t steps = 0;
    std::vector<std::uint64_t> cur(r.words);
    const auto step = [&](int id) {
        const CfgNode& n = cfg.at(id);
        std::fill(cur.begin(), cur.end(), 0);
        if (id == entry)
            cur[0] = 1;
        for (const int p : n.predIds) {
            const DecodedInst& pdi = cfg.at(p).di;
            const std::uint64_t* po =
                &out[static_cast<std::size_t>(p) * r.words];
            if (pdi.ctl == Ctl::kCall && n.di.pc == pdi.callRetPc) {
                // Havocked return edge: reachability only.
                if (po[0] != 0)
                    ops.joinWild(cur.data());
            } else {
                ops.join(cur.data(), po);
            }
        }
        const std::size_t at = static_cast<std::size_t>(id) * r.words;
        std::copy(cur.begin(), cur.end(), r.in.begin() + at);

        // An unreachable state is all zero, and a decode-error
        // placeholder passes its input through.
        if (cur[0] != 0 && n.di.totalParcels > 0)
            ops.transfer(cur.data(), static_cast<std::size_t>(id));
        if (std::equal(cur.begin(), cur.end(), out.begin() + at))
            return false;
        std::copy(cur.begin(), cur.end(), out.begin() + at);
        return true;
    };

    if (!runWorklistSteps(cfg, work, /*backward=*/false,
                          absintStepCap(cfg), steps, step)) {
        // Sound degradation: everything wild everywhere.
        r.converged = false;
        std::fill(r.in.begin(), r.in.end(), 0);
        for (std::size_t id = 0; id < nodes; ++id)
            r.in[id * r.words] = 1;
        return r;
    }

    // Def-use chains over the fixpoint.
    for (const CfgNode& n : cfg.nodes()) {
        const Addr pc = n.di.pc;
        if (!r.reachable(n.id) || n.di.totalParcels <= 0)
            continue;
        const std::uint64_t* s = stateAt(r, n.id);
        const AbsState& pre = preStateAt(ai, n);
        const auto use = [&](LocKey k) {
            const int l = locIndex(r, k);
            if (l >= 0 && presentAt(r, s, l))
                forEachDef(r, s, l, [&](Addr d) { r.defUses[d].insert(pc); });
        };
        for (const auto& [op, is_dst] : bodyReads(n.di).ops) {
            switch (op->mode) {
              case AddrMode::kAccum:
                use(kAccumLoc);
                break;
              case AddrMode::kStack:
              case AddrMode::kAbs:
                if (const auto a = resolve(*op, pre))
                    use(static_cast<LocKey>(*a));
                break;
              default:
                break;
            }
        }
        if (n.di.hasCondBranch()) {
            // The branch reads the flag *after* the body.
            if (!n.di.loneBranch && isCompare(n.di.body.op))
                r.defUses[pc].insert(pc);
            else
                use(kFlagLoc);
        }
    }
    return r;
}

std::vector<ConstUse>
findConstPropUses(const Cfg& cfg, const ReachDefsResult& rd,
                  const AbsIntResult& ai)
{
    std::vector<ConstUse> uses;
    for (const CfgNode& n : cfg.nodes()) {
        if (!rd.reachable(n.id) || n.di.totalParcels <= 0)
            continue;
        const AbsState& pre = preStateAt(ai, n);
        for (const auto& [op, is_dst] : bodyReads(n.di).ops) {
            if (op->mode != AddrMode::kStack &&
                op->mode != AddrMode::kAbs) {
                continue;
            }
            const auto a = resolve(*op, pre);
            if (!a)
                continue;
            const auto d = rd.uniqueDef(n.id, static_cast<LocKey>(*a));
            if (!d || !cfg.has(*d))
                continue;
            const CfgNode& dn = cfg.node(*d);
            const DecodedInst& ddi = dn.di;
            if (ddi.loneBranch || ddi.body.op != Opcode::kMov ||
                ddi.body.src.mode != AddrMode::kImm) {
                continue;
            }
            const auto da = resolve(ddi.body.dst, preStateAt(ai, dn));
            if (!da || *da != *a)
                continue;
            uses.push_back({n.di.pc, is_dst, ddi.body.src.value, *d});
        }
    }
    return uses;
}

std::vector<RedundantCopy>
findRedundantCopies(const Cfg& cfg, const ReachDefsResult& rd,
                    const AbsIntResult& ai)
{
    std::vector<RedundantCopy> found;
    for (const CfgNode& n : cfg.nodes()) {
        if (!rd.reachable(n.id) || n.di.totalParcels <= 0 ||
            n.di.loneBranch || n.di.body.op != Opcode::kMov) {
            continue;
        }
        const Addr pc = n.di.pc;
        const Instruction& b = n.di.body;
        const AbsState& pre = preStateAt(ai, n);
        const auto a = resolve(b.dst, pre);
        const auto bb = resolve(b.src, pre);
        if (!a || !bb || *a == *bb)
            continue;

        // The reaching definition of the destination must be a copy
        // between the same two words...
        const std::optional<Addr> cand =
            rd.uniqueDef(n.id, static_cast<LocKey>(*a));

        // ...and, to rule out a redefinition of the source anywhere
        // between, the copy must sit in the same single-entry chain:
        // walk unique predecessors, crossing only issue points that
        // disturb neither word. This covers every path because each
        // crossed node is its successor's only way in.
        Addr cur = pc;
        for (int depth = 0; depth < 64; ++depth) {
            const CfgNode& cn = cfg.node(cur);
            if (cn.preds.size() != 1)
                break;
            const Addr p = cn.preds[0];
            if (!cfg.has(p))
                break;
            const CfgNode& pn = cfg.node(p);
            const DecodedInst& pdi = pn.di;
            if (pdi.ctl == Ctl::kCall && cur == pdi.callRetPc)
                break; // havocked return edge
            if (pdi.totalParcels <= 0)
                break;
            const Instruction& pb = pdi.body;
            const bool is_inst = !pdi.loneBranch;
            if (is_inst && pb.op == Opcode::kMov) {
                const AbsState& ppre = preStateAt(ai, pn);
                const auto pd = resolve(pb.dst, ppre);
                const auto ps = resolve(pb.src, ppre);
                if (pd && ps &&
                    ((*pd == *a && *ps == *bb) ||
                     (*pd == *bb && *ps == *a))) {
                    if (!cand || *cand == p)
                        found.push_back({pc, p});
                    break;
                }
            }
            if (is_inst &&
                (pb.op == Opcode::kMov || isAlu2(pb.op) ||
                 pb.op == Opcode::kCall)) {
                // Does it disturb either word? Unresolved or indirect
                // stores might; resolved stores to other words do not.
                if (pb.op == Opcode::kCall)
                    break;
                const AbsState& ppre = preStateAt(ai, pn);
                if (pb.dst.mode == AddrMode::kInd)
                    break;
                const auto pd = resolve(pb.dst, ppre);
                if (pb.dst.mode != AddrMode::kAccum &&
                    (!pd || *pd == *a || *pd == *bb)) {
                    break;
                }
            }
            cur = p;
        }
    }
    return found;
}

} // namespace crisp::analysis
