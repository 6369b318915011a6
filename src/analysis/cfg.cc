/**
 * @file
 * Issue-point CFG construction: entry-closure discovery, jump-table
 * candidate collection, basic-block formation, DOT output.
 */

#include "cfg.hh"

#include <algorithm>
#include <sstream>

namespace crisp::analysis
{

namespace
{

/** Word-aligned little-endian data words naming aligned text addresses. */
std::set<Addr>
collectIndirectCandidates(const Program& prog)
{
    std::set<Addr> out;
    const Addr text_end = prog.textEnd();
    for (std::size_t i = 0; i + kWordBytes <= prog.data.size();
         i += kWordBytes) {
        const Addr v = static_cast<Addr>(prog.data[i]) |
                       (static_cast<Addr>(prog.data[i + 1]) << 8) |
                       (static_cast<Addr>(prog.data[i + 2]) << 16) |
                       (static_cast<Addr>(prog.data[i + 3]) << 24);
        if (v >= prog.textBase && v < text_end && v % kParcelBytes == 0)
            out.insert(v);
    }
    return out;
}

} // namespace

Cfg::Cfg(const Program& prog, FoldPolicy policy)
    : prog_(prog), policy_(policy),
      indTargets_(collectIndirectCandidates(prog))
{
    discover();
    buildBlocks();
}

std::vector<Addr>
Cfg::successorsOf(const DecodedInst& di, Addr pc)
{
    std::vector<Addr> raw;
    switch (di.ctl) {
      case Ctl::kSeq:
        raw.push_back(di.seqPc);
        break;
      case Ctl::kJmp:
        raw.push_back(di.takenPc);
        break;
      case Ctl::kCondT:
      case Ctl::kCondF:
        raw.push_back(di.takenPc);
        raw.push_back(di.seqPc);
        break;
      case Ctl::kCall:
        // The callee, plus the return site the pushed address names.
        // The direct call -> return-site edge under-approximates the
        // real path through the callee, which is the sound direction
        // for the min-distance dataflow built on these edges.
        raw.push_back(di.takenPc);
        raw.push_back(di.callRetPc);
        break;
      case Ctl::kRet:
        // Return sites are already reachable through their call edges.
        break;
      case Ctl::kIndirect:
        hasIndirect_ = true;
        raw.insert(raw.end(), indTargets_.begin(), indTargets_.end());
        break;
      case Ctl::kHalt:
        break;
    }

    std::vector<Addr> out;
    for (const Addr t : raw) {
        if (t % kParcelBytes != 0 || !prog_.inText(t)) {
            badTargets_.emplace_back(pc, t);
            continue;
        }
        out.push_back(t);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

void
Cfg::discover()
{
    const FoldDecoder decoder(policy_);
    const Addr text_end = prog_.textEnd();

    // Nodes are found and decoded in FIFO order (nodes_ doubles as the
    // queue), then renumbered in address order below. index_ marks the
    // parcels already queued, holding discovery positions until then.
    index_.assign(prog_.text.size(), -1);
    auto enqueue = [&](Addr pc) {
        int& slot = index_[(pc - prog_.textBase) / kParcelBytes];
        if (slot < 0) {
            slot = static_cast<int>(nodes_.size());
            nodes_.emplace_back();
            nodes_.back().di.pc = pc;
        }
    };

    if (prog_.entry % kParcelBytes == 0 && prog_.inText(prog_.entry)) {
        enqueue(prog_.entry);
    } else {
        badTargets_.emplace_back(prog_.entry, prog_.entry);
    }

    bool indirect_seeded = false;
    // enqueue() grows nodes_, so no reference into it is held across
    // a call.
    for (std::size_t k = 0; k < nodes_.size(); ++k) {
        const Addr pc = nodes_[k].di.pc;
        const std::size_t idx = (pc - prog_.textBase) / kParcelBytes;
        const std::span<const Parcel> window{prog_.text.data() + idx,
                                             prog_.text.size() - idx};
        std::optional<DecodedInst> di;
        try {
            di = decoder.decodeAt(pc, window, /*at_end=*/true);
        } catch (const CrispError& e) {
            decodeErrors_.emplace_back(pc, e.what());
        }
        if (!di) {
            if (decodeErrors_.empty() || decodeErrors_.back().first != pc)
                decodeErrors_.emplace_back(
                    pc, "instruction truncated by end of text segment");
            // Keep the node as a zero-length placeholder so edges to it
            // stay representable; totalParcels = 0 marks "no decode".
            nodes_[k].di.totalParcels = 0;
            continue;
        }
        if (di->ctl == Ctl::kSeq && di->seqPc >= text_end) {
            decodeErrors_.emplace_back(
                pc, "control falls through the end of the text segment");
        }

        std::vector<Addr> succs = successorsOf(*di, pc);
        for (const Addr s : succs)
            enqueue(s);

        // The first reachable indirect jump makes every jump-table
        // candidate a root; later indirect jumps share the same set.
        if (di->ctl == Ctl::kIndirect && !indirect_seeded) {
            indirect_seeded = true;
            for (const Addr t : indTargets_)
                enqueue(t);
        }
        nodes_[k].di = *di;
        nodes_[k].succs = std::move(succs);
    }

    // Number the nodes in address order.
    std::sort(nodes_.begin(), nodes_.end(),
              [](const CfgNode& a, const CfgNode& b) {
                  return a.di.pc < b.di.pc;
              });
    for (std::size_t id = 0; id < nodes_.size(); ++id) {
        CfgNode& n = nodes_[id];
        n.id = static_cast<int>(id);
        index_[(n.di.pc - prog_.textBase) / kParcelBytes] = n.id;
    }

    // Nodes that never decoded (errors) keep empty succs, and edges to
    // them stay: a predecessor's edge to a malformed address is real
    // and the diagnostics layer reports the decode error there. Walking
    // the nodes in address order appends each pred list already sorted
    // and free of duplicates (every succ list is). The id lists keep
    // the order of the address lists they mirror.
    for (CfgNode& n : nodes_) {
        for (const Addr s : n.succs) {
            CfgNode& t = nodes_[static_cast<std::size_t>(indexOf(s))];
            t.preds.push_back(n.di.pc);
            t.predIds.push_back(n.id);
            n.succIds.push_back(t.id);
        }
    }
}

std::vector<bool>
Cfg::reachableFromEntry() const
{
    std::vector<bool> seen(size(), false);
    const int entry = indexOf(prog_.entry);
    if (entry < 0)
        return seen;
    std::vector<int> stack{entry};
    seen[static_cast<std::size_t>(entry)] = true;
    while (!stack.empty()) {
        const int id = stack.back();
        stack.pop_back();
        for (const int s : at(id).succIds) {
            if (!seen[static_cast<std::size_t>(s)]) {
                seen[static_cast<std::size_t>(s)] = true;
                stack.push_back(s);
            }
        }
    }
    return seen;
}

void
Cfg::buildBlocks()
{
    // A node starts a block when it is not the unique fall-in of a
    // unique predecessor.
    auto is_leader = [&](const CfgNode& n) {
        if (n.predIds.size() != 1)
            return true;
        return at(n.predIds.front()).succIds.size() != 1;
    };

    for (CfgNode& n : nodes_) {
        if (n.block != -1 || !is_leader(n))
            continue;
        const int id = static_cast<int>(blocks_.size());
        blocks_.emplace_back();
        CfgBlock& b = blocks_.back();
        int cur = n.id;
        for (;;) {
            CfgNode& cn = nodes_[static_cast<std::size_t>(cur)];
            cn.block = id;
            b.entries.push_back(cn.di.pc);
            if (cn.succIds.size() != 1)
                break;
            const CfgNode& nx = at(cn.succIds.front());
            if (nx.predIds.size() != 1 || nx.block != -1)
                break;
            cur = nx.id;
        }
    }
    // Cycles with no leader (a loop whose every node has one pred):
    // pick the lowest-address unassigned node as a leader and repeat.
    for (CfgNode& n : nodes_) {
        if (n.block != -1)
            continue;
        const int id = static_cast<int>(blocks_.size());
        blocks_.emplace_back();
        CfgBlock& b = blocks_.back();
        int cur = n.id;
        while (at(cur).block == -1) {
            CfgNode& cn = nodes_[static_cast<std::size_t>(cur)];
            cn.block = id;
            b.entries.push_back(cn.di.pc);
            if (cn.succIds.size() != 1)
                break;
            cur = cn.succIds.front();
        }
    }

    for (CfgBlock& b : blocks_) {
        for (const int s : node(b.entries.back()).succIds) {
            const int t = at(s).block;
            if (std::find(b.succs.begin(), b.succs.end(), t) ==
                b.succs.end()) {
                b.succs.push_back(t);
            }
        }
    }
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
        for (const int s : blocks_[i].succs)
            blocks_[static_cast<std::size_t>(s)].preds.push_back(
                static_cast<int>(i));
    }
}

std::vector<std::pair<Addr, Addr>>
Cfg::unreachableRanges() const
{
    const Addr base = prog_.textBase;
    const std::size_t parcels = prog_.text.size();
    std::vector<bool> covered(parcels, false);
    for (const CfgNode& n : nodes_) {
        if (n.di.totalParcels <= 0)
            continue; // decode error: nothing covered
        const std::size_t first = (n.di.pc - base) / kParcelBytes;
        for (int i = 0; i < n.di.totalParcels; ++i) {
            if (first + static_cast<std::size_t>(i) < parcels)
                covered[first + static_cast<std::size_t>(i)] = true;
        }
    }

    std::vector<std::pair<Addr, Addr>> out;
    std::size_t i = 0;
    while (i < parcels) {
        if (covered[i]) {
            ++i;
            continue;
        }
        std::size_t j = i;
        while (j < parcels && !covered[j])
            ++j;
        out.emplace_back(base + static_cast<Addr>(i) * kParcelBytes,
                         base + static_cast<Addr>(j) * kParcelBytes);
        i = j;
    }
    return out;
}

std::string
Cfg::toDot() const
{
    std::ostringstream os;
    os << "digraph cfg {\n"
       << "  node [shape=box, fontname=\"monospace\"];\n";
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
        const CfgBlock& b = blocks_[i];
        os << "  b" << i << " [label=\"";
        for (const Addr pc : b.entries) {
            // Graphviz escaping: backslashes and double quotes must
            // be backslash-escaped inside a quoted label — mangling
            // quotes into apostrophes changes the text, and a bare
            // backslash starts an escape sequence dot may reject.
            for (const char c : node(pc).di.toString()) {
                if (c == '"' || c == '\\')
                    os << '\\';
                os << c;
            }
            os << "\\l";
        }
        os << "\"];\n";
    }
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
        const CfgNode& last = node(blocks_[i].entries.back());
        const bool indirect = last.di.ctl == Ctl::kIndirect;
        for (const int s : blocks_[i].succs) {
            os << "  b" << i << " -> b" << s;
            if (indirect)
                os << " [style=dashed]";
            os << ";\n";
        }
    }
    os << "}\n";
    return os.str();
}

} // namespace crisp::analysis
