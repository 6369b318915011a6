/**
 * @file
 * Fast-engine differential runner implementation.
 */

#include "enginediff.hh"

#include <sstream>
#include <vector>

#include "eventstream.hh"
#include "interp/interpreter.hh"
#include "isa/program.hh"
#include "sim/fastengine.hh"

namespace crisp::verify
{

LockstepReport
runFastLockstep(const Program& prog, const LockstepOptions& opt)
{
    LockstepReport rep;

    Interpreter interp(prog);
    RefRecorder ref;
    bool ref_faulted = false;
    std::string ref_fault_reason;
    InterpResult ires;
    try {
        ires = interp.run(opt.maxSteps, &ref);
    } catch (const CrispError& e) {
        // Faulting programs stay in scope here: the fast engine must
        // reproduce the fault exactly (shrink candidates routinely
        // mutate into faulting programs).
        ref_faulted = true;
        ref_fault_reason = e.what();
        ires = interp.result();
    }
    rep.refInstructions = ires.instructions;
    if (!ref_faulted && !ires.halted) {
        rep.kind = Divergence::kGeneratorNonTerminating;
        rep.detail = "reference interpreter hit the step limit";
        return rep;
    }

    SimConfig cfg = opt.cfg;
    // For the functional engine maxCycles bounds apparent instructions;
    // the margin only has to absorb superblock-boundary overshoot.
    cfg.maxCycles = opt.cycleBudget != 0 ? opt.cycleBudget
                                         : ires.instructions + 50'000;

    FastEngine eng(prog, cfg);
    if (opt.cancel != nullptr)
        eng.setCancelFlag(opt.cancel);
    CheckingObserver obs(ref.events);
    eng.run(&obs);
    rep.sim = eng.stats();

    std::ostringstream ctx;
    ctx << " [fast: accum=" << eng.accum()
        << " flag=" << (eng.flag() ? 1 : 0) << " sp=0x" << std::hex
        << eng.sp() << std::dec << " next-pc=0x" << std::hex
        << eng.nextPc() << std::dec << "]";

    if (rep.sim.cancelled) {
        rep.kind = Divergence::kTimeout;
        rep.detail =
            "wall-clock watchdog cancelled the fast-engine run" +
            ctx.str();
        return rep;
    }
    if (obs.mismatch) {
        rep.kind = Divergence::kEventMismatch;
        rep.eventIndex = obs.index;
        rep.detail = obs.detail + ctx.str();
        return rep;
    }
    if (rep.sim.faulted || ref_faulted) {
        if (!rep.sim.faulted) {
            rep.kind = Divergence::kMachineFault;
            rep.detail = "interpreter faulted (" + ref_fault_reason +
                         ") but the fast engine did not" + ctx.str();
            return rep;
        }
        if (!ref_faulted) {
            rep.kind = Divergence::kMachineFault;
            rep.detail = "fast engine faulted (" +
                         rep.sim.faultReason +
                         ") but the interpreter did not" + ctx.str();
            return rep;
        }
        if (rep.sim.faultReason != ref_fault_reason) {
            rep.kind = Divergence::kMachineFault;
            rep.detail = "fault reason mismatch: interpreter \"" +
                         ref_fault_reason + "\", fast engine \"" +
                         rep.sim.faultReason + "\"" + ctx.str();
            return rep;
        }
        // Both faulted identically; fall through to the count and
        // state comparison at the fault point.
    } else if (!eng.halted()) {
        rep.kind = Divergence::kCycleLimit;
        rep.detail = "fast engine did not halt within " +
                     std::to_string(cfg.maxCycles) + " instructions" +
                     ctx.str();
        return rep;
    }
    if (obs.index != ref.events.size()) {
        rep.kind = Divergence::kEventCountMismatch;
        rep.eventIndex = obs.index;
        rep.detail = "fast engine stopped after " +
                     std::to_string(obs.index) + " of " +
                     std::to_string(ref.events.size()) +
                     " reference events" + ctx.str();
        return rep;
    }

    // Streams agree; verify final architectural state, plus the
    // functional-only extras the cycle lockstep cannot pin: the exact
    // opcode histogram and dynamic branch count.
    std::ostringstream diff;
    if (eng.accum() != interp.accum()) {
        diff << "accum " << eng.accum() << " != " << interp.accum()
             << "; ";
    }
    if (eng.flag() != interp.flag())
        diff << "flag " << eng.flag() << " != " << interp.flag() << "; ";
    if (eng.sp() != interp.sp()) {
        diff << "sp 0x" << std::hex << eng.sp() << " != 0x"
             << interp.sp() << std::dec << "; ";
    }
    if (rep.sim.apparent != ires.instructions) {
        diff << "apparent " << rep.sim.apparent
             << " != " << ires.instructions << "; ";
    }
    if (rep.sim.branches != ires.branches) {
        diff << "branches " << rep.sim.branches
             << " != " << ires.branches << "; ";
    }
    for (std::size_t i = 0; i < rep.sim.opcodeCounts.size(); ++i) {
        if (rep.sim.opcodeCounts[i] != ires.opcodeCounts[i]) {
            diff << "count[" << opcodeName(static_cast<Opcode>(i))
                 << "] " << rep.sim.opcodeCounts[i]
                 << " != " << ires.opcodeCounts[i] << "; ";
            break;
        }
    }
    diffMemory(diff, eng.memory().bytes(), interp.memory().bytes());
    const std::string d = diff.str();
    if (!d.empty()) {
        rep.kind = Divergence::kFinalStateMismatch;
        rep.detail = d + ctx.str();
    }
    return rep;
}

} // namespace crisp::verify
