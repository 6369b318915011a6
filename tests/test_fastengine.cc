/**
 * @file
 * FastEngine tests: the 200-seed x 3-policy three-way differential
 * (fast engine vs. interpreter vs. cycle pipeline), translation-layer
 * superblock structure, and directed tests for the engine's contracts —
 * cancel at superblock boundaries, reset-replay equals a fresh run,
 * self-modifying-image invalidation, and the instruction budget.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

#include "interp/interpreter.hh"
#include "sim/cpu.hh"
#include "sim/fastengine.hh"
#include "sim/translate.hh"
#include "verify/enginediff.hh"
#include "verify/eventstream.hh"
#include "verify/generator.hh"
#include "verify/lockstep.hh"

namespace crisp
{
namespace
{

using verify::Divergence;
using verify::LockstepOptions;
using verify::LockstepReport;

// A program whose hot loop is long enough to cross several cancel-poll
// windows: counts a global up to `limit`, then halts.
Program
countingLoop(std::int32_t limit)
{
    Program p;
    const Operand counter = Operand::abs(kDataBase);
    p.append(Instruction::mov(counter, Operand::imm(0)));
    const Addr loop =
        p.append(Instruction::alu(Opcode::kAdd, counter,
                                  Operand::imm(1)));
    const Addr cmp_at = p.append(Instruction::cmp(
        Opcode::kCmpLt, counter, Operand::imm(limit)));
    (void)cmp_at;
    const Addr br = p.textEnd();
    p.append(Instruction::branchRel(
        Opcode::kIfTJmp, static_cast<std::int32_t>(loop - br), true));
    p.append(Instruction::halt());
    return p;
}

// Store a little-endian word into the program's data segment at
// @p addr (grows the segment as needed).
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

// An indirect dispatch through a one-entry jump table at kDataBase:
// the load-image entry points at armA. When @p retarget is set the
// program first copies armB's address (held in a second data word)
// over the entry, so a translation that predicted the load-image word
// must take the runtime-guard miss path. The taken arm's signature
// lands in the accumulator.
Program
mutableDispatch(bool retarget)
{
    Program p;
    const Addr table = kDataBase;
    const Addr alt = kDataBase + kWordBytes;
    if (retarget) {
        p.append(Instruction::mov(Operand::abs(table),
                                  Operand::abs(alt)));
    }
    p.append(Instruction::branchFar(Opcode::kJmp, BranchMode::kIndAbs,
                                    table));
    const Addr arm_a = p.textEnd();
    p.append(Instruction::alu(Opcode::kAdd, Operand::accum(),
                              Operand::imm(11)));
    p.append(Instruction::halt());
    const Addr arm_b = p.textEnd();
    p.append(Instruction::alu(Opcode::kAdd, Operand::accum(),
                              Operand::imm(77)));
    p.append(Instruction::halt());
    pokeDataWord(p, table, static_cast<Word>(arm_a));
    pokeDataWord(p, alt, static_cast<Word>(arm_b));
    return p;
}

// ------------------------------------------- three-way differential

TEST(FastEngineDiff, ThreeWaySweep200Seeds)
{
    const FoldPolicy policies[] = {FoldPolicy::kNone, FoldPolicy::kCrisp,
                                   FoldPolicy::kAll};
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        const Program prog = verify::generate(seed).link();
        for (const FoldPolicy policy : policies) {
            LockstepOptions opt;
            opt.cfg.foldPolicy = policy;
            const LockstepReport fast =
                verify::runFastLockstep(prog, opt);
            ASSERT_TRUE(fast.ok())
                << "fast vs interp, seed " << seed << " policy "
                << static_cast<int>(policy) << "\n"
                << fast.toString();
            const LockstepReport cycle = verify::runLockstep(prog, opt);
            ASSERT_TRUE(cycle.ok())
                << "cycle vs interp, seed " << seed << " policy "
                << static_cast<int>(policy) << "\n"
                << cycle.toString();
            // Close the triangle: both engines agree with the
            // interpreter on the apparent instruction count.
            EXPECT_EQ(fast.sim.apparent, cycle.sim.apparent);
            EXPECT_EQ(fast.sim.engine, EngineKind::kFast);
            EXPECT_EQ(cycle.sim.engine, EngineKind::kCycle);
            EXPECT_EQ(fast.sim.cycles, 0u);
        }
    }
}

TEST(FastEngineDiff, ObservedAndFreeRunningModesAgree)
{
    // The observer selects a different (per-instruction) loop; both
    // flavours must produce bit-identical statistics and state.
    for (std::uint64_t seed = 300; seed < 320; ++seed) {
        const Program prog = verify::generate(seed).link();
        FastEngine free_run(prog);
        free_run.run();
        FastEngine observed(prog);
        verify::RefRecorder rec;
        observed.run(&rec);
        EXPECT_EQ(free_run.stats(), observed.stats()) << "seed " << seed;
        EXPECT_EQ(free_run.accum(), observed.accum());
        EXPECT_EQ(free_run.sp(), observed.sp());
        EXPECT_EQ(free_run.memory().bytes(), observed.memory().bytes());
    }
}

// ------------------------------------------------- translation layer

TEST(Translation, SuperblockChainsCoverStraightLineRuns)
{
    // Three sequential ops followed by a folded conditional: the entry
    // superblock must span exactly the three bodies (the compare folds
    // with the branch, which terminates the chain).
    Program p = countingLoop(10);
    Translation tr(p, FoldPolicy::kCrisp);
    const std::uint32_t entry = tr.entryIndex();
    ASSERT_NE(entry, kNoIdx);
    const TOp& first = tr.ops()[entry];
    EXPECT_EQ(first.kind, TKind::kChain);
    // mov; add; then cmp folds with iftjmp -> a trace of 2, ending at
    // the folded conditional.
    EXPECT_EQ(first.trace, 2u);
    EXPECT_EQ(first.traceInstr, 2u);
    // Walk to the trace's terminator and check it is the folded branch.
    std::uint32_t ip = entry;
    for (std::uint32_t n = first.trace; n > 0; --n)
        ip = tr.ops()[ip].seqIdx;
    ASSERT_NE(ip, kNoIdx);
    const TOp& branch = tr.ops()[ip];
    EXPECT_EQ(branch.kind, TKind::kCond);
    EXPECT_TRUE(branch.folded);
    EXPECT_EQ(branch.bodyOp, Opcode::kCmpLt);
    EXPECT_EQ(branch.branchOp, Opcode::kIfTJmp);
    EXPECT_NE(branch.takenIdx, kNoIdx);

    // Under kNone nothing folds: the trace also swallows the compare.
    Translation none(p, FoldPolicy::kNone);
    EXPECT_EQ(none.ops()[none.entryIndex()].trace, 3u);
    EXPECT_EQ(none.ops()[none.entryIndex()].traceInstr, 3u);
}

TEST(Translation, RebuildBumpsEpoch)
{
    const Program p = countingLoop(5);
    Translation tr(p, FoldPolicy::kCrisp);
    EXPECT_EQ(tr.epoch(), 1u);
    tr.rebuild();
    EXPECT_EQ(tr.epoch(), 2u);
}

// --------------------------------------------------- directed: cancel

TEST(FastEngine, CancelStopsAtSuperblockBoundaryAndResumes)
{
    const Program prog = countingLoop(20'000);

    FastEngine straight(prog);
    straight.run();
    ASSERT_TRUE(straight.halted());

    FastEngine eng(prog);
    std::atomic<bool> cancel{true};
    eng.setCancelFlag(&cancel);
    eng.run();
    EXPECT_TRUE(eng.stats().cancelled);
    EXPECT_FALSE(eng.halted());
    EXPECT_FALSE(eng.stats().timedOut);
    // The stop happened on a poll boundary, mid-program.
    EXPECT_GT(eng.stats().apparent, 0u);
    EXPECT_LT(eng.stats().apparent, straight.stats().apparent);

    // Resuming after the flag clears must converge to the exact same
    // final state and cumulative statistics as the uncancelled run —
    // the boundary stop corrupted nothing.
    cancel.store(false);
    eng.run();
    EXPECT_TRUE(eng.halted());
    EXPECT_FALSE(eng.stats().cancelled);
    EXPECT_EQ(eng.stats(), straight.stats());
    EXPECT_EQ(eng.accum(), straight.accum());
    EXPECT_EQ(eng.sp(), straight.sp());
    EXPECT_EQ(eng.memory().bytes(), straight.memory().bytes());
}

TEST(FastEngine, InstructionBudgetSetsTimedOut)
{
    const Program prog = countingLoop(100'000);
    SimConfig cfg;
    cfg.maxCycles = 5'000; // apparent-instruction budget
    FastEngine eng(prog, cfg);
    eng.run();
    EXPECT_TRUE(eng.stats().timedOut);
    EXPECT_FALSE(eng.halted());
    EXPECT_FALSE(eng.stats().cancelled);
    EXPECT_GE(eng.stats().apparent, 5'000u);
    // Overshoot is bounded by the poll interval plus one superblock.
    EXPECT_LT(eng.stats().apparent, 5'000u + 8'192u);
}

// ---------------------------------------------- directed: reset/replay

TEST(FastEngine, ResetReplayEqualsFreshRun)
{
    for (std::uint64_t seed = 700; seed < 710; ++seed) {
        const Program prog = verify::generate(seed).link();
        FastEngine fresh(prog);
        fresh.run();

        FastEngine replay(prog);
        replay.run();
        replay.reset();
        EXPECT_FALSE(replay.halted());
        EXPECT_EQ(replay.stats().apparent, 0u);
        replay.run();

        EXPECT_EQ(replay.stats(), fresh.stats()) << "seed " << seed;
        EXPECT_EQ(replay.accum(), fresh.accum());
        EXPECT_EQ(replay.flag(), fresh.flag());
        EXPECT_EQ(replay.sp(), fresh.sp());
        EXPECT_EQ(replay.memory().bytes(), fresh.memory().bytes());
    }
}

// ------------------------------------- directed: self-modifying image

TEST(FastEngine, ImageRevertDropsStaleTranslations)
{
    // The program stores into its own text window. Program text is
    // immutable for execution on every engine (fetch reads the linked
    // image, not data memory), but the memory image is dirtied — and a
    // reset's revert must rebuild the translation so it provably
    // derives from the restored bytes, never the dirtied ones.
    Program p;
    p.append(Instruction::mov(Operand::abs(kTextBase),
                              Operand::imm(0x1234)));
    p.append(Instruction::halt());

    FastEngine eng(p);
    EXPECT_EQ(eng.translationEpoch(), 1u);
    eng.run();
    ASSERT_TRUE(eng.halted());
    eng.reset();
    EXPECT_EQ(eng.translationEpoch(), 2u)
        << "text-window store must invalidate the translation";
    eng.run();
    ASSERT_TRUE(eng.halted());

    FastEngine fresh(p);
    fresh.run();
    EXPECT_EQ(eng.stats(), fresh.stats());
    EXPECT_EQ(eng.memory().bytes(), fresh.memory().bytes());

    // A program that never touches its text keeps its translation.
    const Program clean = countingLoop(10);
    FastEngine keep(clean);
    keep.run();
    keep.reset();
    EXPECT_EQ(keep.translationEpoch(), 1u);
}

// ------------------------------------------- directed: trace chaining

// A short straight-line program whose middle jump is fold-provable:
//   mov a,1; add a,2 (folds with) jmp; add a,3; halt
// Under kCrisp the jump folds with the preceding add and the whole
// program is one superblock trace; the halt terminates it.
Program
foldedJumpRun()
{
    Program p;
    p.append(Instruction::mov(Operand::accum(), Operand::imm(1)));
    p.append(Instruction::alu(Opcode::kAdd, Operand::accum(),
                              Operand::imm(2)));
    p.append(Instruction::branchRel(Opcode::kJmp, 2));
    p.append(Instruction::alu(Opcode::kAdd, Operand::accum(),
                              Operand::imm(3)));
    p.append(Instruction::halt());
    return p;
}

// Straight-line accumulator blocks stitched by unconditional jumps
// (the bench_perf chain_dense shape, smaller).
Program
jumpChain(int blocks, int ops_per_block)
{
    Program p;
    p.append(Instruction::mov(Operand::accum(), Operand::imm(0)));
    for (int b = 0; b < blocks; ++b) {
        for (int k = 0; k < ops_per_block; ++k)
            p.append(Instruction::alu(Opcode::kAdd, Operand::accum(),
                                      Operand::imm(1)));
        p.append(Instruction::branchRel(Opcode::kJmp, 2));
    }
    p.append(Instruction::halt());
    return p;
}

TEST(Translation, TracesChainAcrossFoldedAlwaysTakenJump)
{
    const Program p = foldedJumpRun();
    Translation tr(p, FoldPolicy::kCrisp);
    const std::uint32_t entry = tr.entryIndex();
    ASSERT_NE(entry, kNoIdx);
    const TOp& head = tr.ops()[entry];
    ASSERT_EQ(head.kind, TKind::kChain);
    // The sequential run stops at the jump; the trace walks through
    // it: mov, then the folded (add+jmp) pair, then the trailing add —
    // 3 entries for 4 architectural instructions.
    EXPECT_EQ(head.trace, 3u);
    EXPECT_EQ(head.traceInstr, 4u);
    const TOp& jump = tr.ops()[head.seqIdx];
    ASSERT_EQ(jump.kind, TKind::kJmp);
    EXPECT_TRUE(jump.folded);
    EXPECT_FALSE(jump.dynTarget);
    // The jump heads its own (shorter) trace: itself plus the add.
    EXPECT_EQ(jump.trace, 2u);
    EXPECT_EQ(jump.traceInstr, 3u);

    // Chaining off: a kChain op's trace covers exactly the run of
    // sequential ops starting there; control ops are not walkable.
    Translation flat(p, FoldPolicy::kCrisp, nullptr,
                     /*enable_chaining=*/false);
    for (std::uint32_t i = 0; i < flat.size(); ++i) {
        const TOp& t = flat.ops()[i];
        std::uint32_t run = 0;
        for (std::uint32_t j = i;
             j != kNoIdx && flat.ops()[j].kind == TKind::kChain;
             j = flat.ops()[j].seqIdx) {
            ++run;
        }
        EXPECT_EQ(t.trace, run);
        EXPECT_EQ(t.traceInstr, run);
    }
}

TEST(Translation, TraceLengthIsCappedAtKTraceCap)
{
    // 3 x kTraceCap walkable entries in one straight run: every trace
    // the walker can enter must stay within the cap (this is what
    // bounds the budget/cancel poll overshoot).
    const Program p =
        jumpChain(static_cast<int>(kTraceCap) / 2, 5);
    Translation tr(p, FoldPolicy::kCrisp);
    std::uint32_t longest = 0;
    for (std::uint32_t i = 0; i < tr.size(); ++i) {
        longest = std::max(longest, tr.ops()[i].trace);
        EXPECT_LE(tr.ops()[i].traceInstr, 2 * kTraceCap);
    }
    EXPECT_EQ(longest, kTraceCap);
}

TEST(FastEngine, ChainingOffMatchesChainingOnEverywhere)
{
    for (std::uint64_t seed = 500; seed < 540; ++seed) {
        const Program prog = verify::generate(seed).link();
        FastEngine on(prog);
        on.run();
        SimConfig off_cfg;
        off_cfg.enableChaining = false;
        FastEngine off(prog, off_cfg);
        off.run();
        EXPECT_EQ(on.stats(), off.stats()) << "seed " << seed;
        EXPECT_EQ(on.accum(), off.accum());
        EXPECT_EQ(on.sp(), off.sp());
        EXPECT_EQ(on.memory().bytes(), off.memory().bytes());
    }
}

TEST(FastEngine, BudgetOvershootStaysWithinPollPlusTraceCap)
{
    // A chain-dense program is the worst case for the budget poll: the
    // walker debits a whole trace up front and polls once per trace.
    const Program prog = jumpChain(1200, 8);
    SimConfig cfg;
    cfg.maxCycles = 5'000;
    FastEngine eng(prog, cfg);
    eng.run();
    EXPECT_TRUE(eng.stats().timedOut);
    EXPECT_GE(eng.stats().apparent, 5'000u);
    EXPECT_LT(eng.stats().apparent, 5'000u + 4'096u + 2 * kTraceCap);
}

// ------------------------------------------ directed: indirect exits

TEST(FastEngine, IndAbsDispatchEndsTrace)
{
    // An indirect exit has no static successor: it never joins a
    // trace, and its handler resolves the target word it reads.
    const Program prog = mutableDispatch(false);
    Translation trans(prog, FoldPolicy::kCrisp);
    const std::uint32_t bi = trans.indexOf(prog.entry);
    ASSERT_NE(bi, kNoIdx);
    const TOp& jmp = trans.ops()[bi];
    ASSERT_EQ(jmp.kind, TKind::kJmp);
    ASSERT_TRUE(jmp.dynTarget);
    EXPECT_EQ(jmp.trace, 0u);

    FastEngine eng(prog);
    eng.run();
    ASSERT_TRUE(eng.halted());
    EXPECT_EQ(eng.accum(), 11);

    Interpreter interp(prog);
    interp.run();
    EXPECT_EQ(eng.accum(), interp.accum());
    EXPECT_EQ(eng.stats().branches, 1u);
}

TEST(FastEngine, MispredictedIndirectTakesGuardPath)
{
    // The program overwrites its own jump table before dispatching:
    // the target must come from the word read at run time, never from
    // the load image, with fully interpreter-equivalent state.
    const Program prog = mutableDispatch(true);
    FastEngine eng(prog);
    eng.run();
    ASSERT_TRUE(eng.halted());
    EXPECT_EQ(eng.accum(), 77);

    Interpreter interp(prog);
    const InterpResult ir = interp.run();
    EXPECT_EQ(eng.accum(), interp.accum());
    EXPECT_EQ(eng.stats().apparent, ir.instructions);
}

TEST(FastEngine, IndSpDispatchEndsTrace)
{
    // The trace headed by the mov stops before the kIndSp jump, which
    // is not walkable itself, with chaining on.
    Program p;
    const Addr table = kDataBase;
    p.append(Instruction::mov(Operand::stack(0), Operand::abs(table)));
    const Addr branch_pc = p.textEnd();
    p.append(Instruction::branchFar(Opcode::kJmp, BranchMode::kIndSp,
                                    0));
    const Addr arm_a = p.textEnd();
    p.append(Instruction::alu(Opcode::kAdd, Operand::accum(),
                              Operand::imm(11)));
    p.append(Instruction::halt());
    pokeDataWord(p, table, static_cast<Word>(arm_a));

    Translation trans(p, FoldPolicy::kCrisp);
    ASSERT_TRUE(trans.chaining());
    const std::uint32_t bi = trans.indexOf(branch_pc);
    ASSERT_NE(bi, kNoIdx);
    EXPECT_TRUE(trans.ops()[bi].dynTarget);
    EXPECT_EQ(trans.ops()[bi].trace, 0u);
    EXPECT_EQ(trans.ops()[trans.entryIndex()].trace, 1u);

    FastEngine eng(p);
    eng.run();
    ASSERT_TRUE(eng.halted());
    EXPECT_EQ(eng.accum(), 11);

    Interpreter interp(p);
    interp.run();
    EXPECT_EQ(eng.accum(), interp.accum());
}

// ------------------------------------------- directed: text-dirty reset

TEST(FastEngine, TextDirtyResetReplaysLikeFirstRun)
{
    // Store into the text window, then loop through a call so every
    // return resolves its target. The reset must invalidate the
    // translation, and the replay must reproduce the first run.
    Program p;
    const Addr jmp_at = p.textEnd();
    p.append(Instruction::branchRel(Opcode::kJmp, 4));
    const Addr leaf = p.textEnd();
    p.append(Instruction::ret(0));
    EXPECT_EQ(p.textEnd(), jmp_at + 4);
    p.append(Instruction::mov(Operand::abs(kTextBase),
                              Operand::imm(0x5151)));
    const Operand counter = Operand::abs(kDataBase);
    p.append(Instruction::mov(counter, Operand::imm(0)));
    const Addr loop = p.textEnd();
    p.append(Instruction::branchFar(Opcode::kCall, BranchMode::kAbs,
                                    leaf));
    p.append(Instruction::alu(Opcode::kAdd, counter, Operand::imm(1)));
    p.append(Instruction::cmp(Opcode::kCmpLt, counter,
                              Operand::imm(50)));
    const Addr br = p.textEnd();
    p.append(Instruction::branchRel(
        Opcode::kIfTJmp, static_cast<std::int32_t>(loop - br), true));
    p.append(Instruction::halt());

    FastEngine eng(p);
    eng.run();
    ASSERT_TRUE(eng.halted());
    const SimStats first = eng.stats();
    const Word first_accum = eng.accum();
    const Addr first_sp = eng.sp();
    const std::vector<std::uint8_t> first_mem = eng.memory().bytes();
    EXPECT_EQ(eng.translationEpoch(), 1u);

    eng.reset();
    EXPECT_EQ(eng.translationEpoch(), 2u);
    eng.run();
    ASSERT_TRUE(eng.halted());
    EXPECT_EQ(eng.stats(), first);
    EXPECT_EQ(eng.accum(), first_accum);
    EXPECT_EQ(eng.sp(), first_sp);
    EXPECT_EQ(eng.memory().bytes(), first_mem);
}

// ------------------------------------- directed: shared translations

TEST(FastEngine, SharedTranslationMatchesPrivateAcrossReplays)
{
    for (std::uint64_t seed = 900; seed < 910; ++seed) {
        const Program prog = verify::generate(seed).link();
        PredecodeCache shared(prog);
        const Translation warm(prog, FoldPolicy::kCrisp, &shared);

        SimConfig cfg;
        FastEngine warm_eng(prog, cfg, &shared, &warm);
        FastEngine cold_eng(prog, cfg);
        for (int r = 0; r < 3; ++r) {
            if (r != 0) {
                warm_eng.reset();
                cold_eng.reset();
            }
            warm_eng.run();
            cold_eng.run();
            EXPECT_EQ(warm_eng.stats(), cold_eng.stats())
                << "seed " << seed << " replay " << r;
            EXPECT_EQ(warm_eng.accum(), cold_eng.accum());
            EXPECT_EQ(warm_eng.memory().bytes(),
                      cold_eng.memory().bytes());
        }
    }
}

TEST(FastEngine, SharedTranslationRejectsMismatchedConfig)
{
    const Program prog = countingLoop(10);
    const Translation warm(prog, FoldPolicy::kCrisp);
    SimConfig cfg;
    cfg.foldPolicy = FoldPolicy::kAll;
    EXPECT_THROW(FastEngine(prog, cfg, nullptr, &warm), CrispError);
    SimConfig flat;
    flat.enableChaining = false;
    EXPECT_THROW(FastEngine(prog, flat, nullptr, &warm), CrispError);
}

TEST(FastEngine, SharedTranslationStaysPinnedAcrossTextDirtyReset)
{
    // Text-dirty replays on a shared translation: the shared table is
    // immutable (it derives from the Program, not the image), so the
    // engine keeps borrowing it — only the epoch reacts. Results must
    // still match a fresh private engine exactly.
    Program p;
    p.append(Instruction::mov(Operand::abs(kTextBase),
                              Operand::imm(0x2222)));
    p.append(Instruction::mov(Operand::accum(), Operand::imm(9)));
    p.append(Instruction::halt());

    const Translation warm(p, FoldPolicy::kCrisp);
    FastEngine eng(p, SimConfig{}, nullptr, &warm);
    eng.run();
    eng.reset();
    EXPECT_EQ(eng.translationEpoch(), 2u);
    eng.run();
    ASSERT_TRUE(eng.halted());

    FastEngine fresh(p);
    fresh.run();
    EXPECT_EQ(eng.stats(), fresh.stats());
    EXPECT_EQ(eng.memory().bytes(), fresh.memory().bytes());
}

// --------------------------------------------------------- misc state

TEST(FastEngine, StatsCarryEngineKindAndNoTiming)
{
    const Program prog = countingLoop(100);
    FastEngine eng(prog);
    const SimStats& st = eng.run();
    EXPECT_EQ(st.engine, EngineKind::kFast);
    EXPECT_EQ(st.cycles, 0u);
    EXPECT_EQ(st.dicHits, 0u);
    EXPECT_TRUE(st.halted);

    Interpreter interp(prog);
    const InterpResult ir = interp.run();
    EXPECT_EQ(st.apparent, ir.instructions);
    EXPECT_EQ(st.branches, ir.branches);
    EXPECT_EQ(st.opcodeCounts, ir.opcodeCounts);
    EXPECT_EQ(eng.accum(), interp.accum());
}

TEST(FastEngine, SharedPredecodeCacheMatchesPrivate)
{
    const Program prog = verify::generate(42).link();
    PredecodeCache shared(prog);
    shared.warmAll(FoldPolicy::kCrisp);
    FastEngine with_shared(prog, {}, &shared);
    with_shared.run();
    FastEngine private_cache(prog);
    private_cache.run();
    EXPECT_EQ(with_shared.stats(), private_cache.stats());
    EXPECT_EQ(with_shared.memory().bytes(),
              private_cache.memory().bytes());
}

} // namespace
} // namespace crisp
