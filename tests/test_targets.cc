/**
 * @file
 * Edge-case tests for the interprocedural indirect-target analysis
 * (analysis/targets.hh): empty/zeroed jump tables, index intervals
 * running past the table, table slots straddling the unmapped gap
 * before the data segment, and the dense-switch site a consumer can act
 * on. The tampered-proof torture path (invariant 8) is
 * pinned in test_analysis.cc; the dense-switch positive path in
 * test_analysis.cc and test_cc_switch.cc.
 */

#include <gtest/gtest.h>

#include "analysis/checks.hh"
#include "analysis/oracle.hh"
#include "cc/compiler.hh"
#include "interp/memory_image.hh"
#include "isa/encoding.hh"

namespace
{

using namespace crisp;
using namespace crisp::analysis;

bool
hasRule(const AnalysisResult& r, const std::string& rule)
{
    for (const Diagnostic& d : r.diags) {
        if (d.rule == rule)
            return true;
    }
    return false;
}

/** The indirect-jump site entries of an analysis (issue-point keyed). */
std::vector<const SiteTargets*>
jumpSites(const AnalysisResult& r)
{
    std::vector<const SiteTargets*> out;
    for (const auto& [pc, s] : r.targets.sites) {
        if (s.kind == TargetSiteKind::kIndirectJump)
            out.push_back(&s);
    }
    return out;
}

/** A proof a consumer (devirtualization, invariant 8) may act on:
 *  enforceable, resolved, non-empty, and free of out-of-table values. */
bool
cleanProof(const SiteTargets& s)
{
    return s.enforceable && s.resolved && !s.targets.empty() &&
           s.invalidTargets == 0;
}

void
pokeDataWord(Program& p, Addr addr, Word v)
{
    const std::size_t off = addr - p.dataBase;
    if (p.data.size() < off + kWordBytes)
        p.data.resize(off + kWordBytes, 0);
    p.data[off] = static_cast<std::uint8_t>(v);
    p.data[off + 1] = static_cast<std::uint8_t>(v >> 8);
    p.data[off + 2] = static_cast<std::uint8_t>(v >> 16);
    p.data[off + 3] = static_cast<std::uint8_t>(v >> 24);
}

TEST(Targets, EmptyTableResolvesToInvalidTargetAndLints)
{
    // A dispatch through a table that was never emitted: the slot
    // word is a load-image zero, which the analysis must prove (it is
    // immutable) and then count as an out-of-table value rather than
    // silently dropping it — the branch event fires before the fetch
    // fault, so invariant 8 needs the value in the set.
    Program p;
    p.append(Instruction::branchFar(Opcode::kJmp, BranchMode::kIndAbs,
                                    kDataBase));
    p.append(Instruction::halt());
    const AnalysisResult r = analyzeProgram(p, {});
    const auto sites = jumpSites(r);
    ASSERT_EQ(sites.size(), 1u);
    EXPECT_TRUE(sites[0]->resolved);
    EXPECT_EQ(sites[0]->targets.size(), 1u);
    EXPECT_EQ(*sites[0]->targets.begin(), 0u);
    EXPECT_EQ(sites[0]->invalidTargets, 1u);
    EXPECT_TRUE(hasRule(r, "indirect.out-of-table")) << r.toString();
    // An all-invalid proof must never pass for a clean one: the "one
    // possible target" is a fetch fault.
    EXPECT_FALSE(cleanProof(*sites[0])) << r.targetsTableText();
}

TEST(Targets, IndexIntervalPastTableKeepsInvalidValues)
{
    // A hand-rolled dense-switch dispatch whose loop index runs to 6
    // against a 4-entry table, with no range guard: slots 4 and 5
    // read load-image zeros past the table. The analysis must keep
    // the table hits *and* the zero, flag the overflow, and never
    // present the site as a clean proof.
    const Addr table = kDataBase;
    Program p;
    // s0 = i, s1 = scratch address, s2 = target word
    p.append(Instruction::enter(4));
    p.append(Instruction::mov(Operand::stack(0), Operand::imm(0)));
    const Addr loop = p.textEnd();
    p.append(Instruction::mov(Operand::stack(1), Operand::stack(0)));
    p.append(Instruction::alu(Opcode::kShl, Operand::stack(1),
                              Operand::imm(2)));
    p.append(Instruction::alu(Opcode::kAdd, Operand::stack(1),
                              Operand::imm(static_cast<Word>(table))));
    p.append(Instruction::mov(Operand::stack(2), Operand::ind(1)));
    p.append(Instruction::branchFar(Opcode::kJmp, BranchMode::kIndSp,
                                    2));
    std::vector<Addr> arms;
    for (int c = 0; c < 4; ++c) {
        arms.push_back(p.textEnd());
        p.append(Instruction::alu(Opcode::kAdd, Operand::stack(0),
                                  Operand::imm(1)));
        p.append(Instruction::cmp(Opcode::kCmpLt, Operand::stack(0),
                                  Operand::imm(6)));
        const Addr br = p.textEnd();
        p.append(Instruction::branchRel(
            Opcode::kIfTJmp, static_cast<std::int32_t>(loop - br),
            true));
        p.append(Instruction::halt());
    }
    for (int c = 0; c < 4; ++c)
        pokeDataWord(p, table + static_cast<Addr>(c) * kWordBytes,
                     static_cast<Word>(arms[static_cast<Addr>(c)]));
    const AnalysisResult r = analyzeProgram(p, {});
    ASSERT_FALSE(r.hasErrors()) << r.toString();
    const auto sites = jumpSites(r);
    ASSERT_FALSE(sites.empty());
    for (const SiteTargets* s : sites) {
        if (!s->resolved)
            continue;
        // Soundness: every real arm must be in the proven set, and
        // the out-of-table zero must be visible, not filtered.
        for (const Addr a : arms)
            EXPECT_TRUE(s->targets.count(a)) << r.targetsTableText();
        EXPECT_GT(s->invalidTargets, 0u) << r.targetsTableText();
    }
    for (const SiteTargets* s : sites)
        EXPECT_FALSE(cleanProof(*s)) << r.targetsTableText();
}

TEST(Targets, SlotStraddlingGapBeforeDataStaysSound)
{
    // The slot word sits two bytes before the data segment: read32
    // (alignment-permissive) splices two unmapped-gap zero bytes with
    // the first two data bytes. Whatever the analysis claims must
    // match what the memory image actually serves — or it must give
    // up (unresolved fallback). It must never prove a clean wrong
    // value.
    Program p;
    const Addr slot = kDataBase - 2;
    p.append(Instruction::branchFar(Opcode::kJmp, BranchMode::kIndAbs,
                                    slot));
    const Addr arm = p.textEnd();
    p.append(Instruction::halt());
    // data[0..1] hold the low half of an address-looking word; the
    // straddling read sees (data[0] << 16) | (data[1] << 24).
    pokeDataWord(p, kDataBase, static_cast<Word>(arm));

    MemoryImage mem;
    mem.load(p);
    const Word served = static_cast<Word>(mem.read32(slot));

    const AnalysisResult r = analyzeProgram(p, {});
    const auto sites = jumpSites(r);
    ASSERT_EQ(sites.size(), 1u);
    if (sites[0]->resolved) {
        ASSERT_EQ(sites[0]->targets.size(), 1u);
        EXPECT_EQ(*sites[0]->targets.begin(),
                  static_cast<Addr>(served))
            << r.targetsTableText();
    } else {
        EXPECT_FALSE(sites[0]->enforceable);
    }
}

TEST(Targets, DenseSwitchProvesOneSiteCoveringAllCases)
{
    const char* src = R"(
        int main() {
            int i; int s;
            s = 0;
            for (i = 0; i < 12; i = i + 1) {
                switch (i - (i / 4) * 4) {
                    case 0: s = s + 1; break;
                    case 1: s = s + 2; break;
                    case 2: s = s + 3; break;
                    default: s = s + 5; break;
                }
            }
            return s;
        }
    )";
    const cc::CompileResult res = cc::compile(src, {});
    const AnalysisResult r = analyzeProgram(res.program, {});
    ASSERT_FALSE(r.hasErrors()) << r.toString();
    const auto sites = jumpSites(r);
    ASSERT_EQ(sites.size(), 1u) << r.targetsTableText();
    const SiteTargets& s = *sites[0];
    EXPECT_TRUE(cleanProof(s)) << r.targetsTableText();
    // The three case arms come through the table; the default arm is
    // reached by the range-guard direct branch, not a table slot.
    EXPECT_GE(s.targets.size(), 3u);
    for (const Addr t : s.targets) {
        EXPECT_TRUE(r.cfg->indirectTargets().count(t))
            << "proven target outside the global candidate set";
    }
    // And the retire-time oracle agrees end to end.
    const OracleReport o = runStaticOracle(res.program, SimConfig{});
    EXPECT_TRUE(o.applicable);
    EXPECT_TRUE(o.ok()) << o.toString();
}

} // namespace
