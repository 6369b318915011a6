/**
 * @file
 * Lockstep differential runner implementation.
 */

#include "lockstep.hh"

#include <sstream>
#include <vector>

#include "eventstream.hh"
#include "interp/interpreter.hh"
#include "isa/program.hh"
#include "sim/cpu.hh"

namespace crisp::verify
{

std::string_view
divergenceName(Divergence d)
{
    switch (d) {
      case Divergence::kNone:
        return "none";
      case Divergence::kEventMismatch:
        return "event-mismatch";
      case Divergence::kEventCountMismatch:
        return "event-count-mismatch";
      case Divergence::kFinalStateMismatch:
        return "final-state-mismatch";
      case Divergence::kMachineFault:
        return "machine-fault";
      case Divergence::kDicCorruptionDetected:
        return "dic-corruption-detected";
      case Divergence::kCycleLimit:
        return "cycle-limit";
      case Divergence::kGeneratorNonTerminating:
        return "generator-non-terminating";
      case Divergence::kTimeout:
        return "timeout";
    }
    return "?";
}

std::string
LockstepReport::toString() const
{
    std::ostringstream os;
    os << "lockstep: " << divergenceName(kind);
    if (kind == Divergence::kEventMismatch ||
        kind == Divergence::kEventCountMismatch) {
        os << " at event #" << eventIndex;
    }
    if (!detail.empty())
        os << "\n  " << detail;
    os << "\n  ref instructions: " << refInstructions
       << ", sim apparent: " << sim.apparent
       << ", cycles: " << sim.cycles;
    if (sim.faulted) {
        os << "\n  fault at 0x" << std::hex << sim.faultPc << std::dec
           << ": " << sim.faultReason;
    }
    return os.str();
}

LockstepReport
runLockstep(const Program& prog, const LockstepOptions& opt)
{
    LockstepReport rep;

    Interpreter interp(prog);
    RefRecorder ref;
    const InterpResult ires = interp.run(opt.maxSteps, &ref);
    rep.refInstructions = ires.instructions;
    if (!ires.halted) {
        rep.kind = Divergence::kGeneratorNonTerminating;
        rep.detail = "reference interpreter hit the step limit";
        return rep;
    }

    SimConfig cfg = opt.cfg;
    const std::uint64_t budget =
        opt.cycleBudget != 0 ? opt.cycleBudget
                             : ires.instructions * 48 + 50'000;
    cfg.maxCycles = budget;

    CrispCpu cpu(prog, cfg);
    if (opt.hooks != nullptr)
        cpu.setFaultHooks(opt.hooks);
    if (opt.cancel != nullptr)
        cpu.setCancelFlag(opt.cancel);
    CheckingObserver obs(ref.events);
    while (cpu.tick(&obs)) {
        if (obs.mismatch || cpu.stats().cycles >= budget)
            break;
    }
    rep.sim = cpu.stats();

    std::ostringstream ctx;
    ctx << " [sim: accum=" << cpu.accum()
        << " flag=" << (cpu.flag() ? 1 : 0) << " sp=0x" << std::hex
        << cpu.sp() << std::dec << " next-pc=0x" << std::hex
        << cpu.nextIssuePc() << std::dec << "]";

    if (rep.sim.dicCorruption) {
        rep.kind = Divergence::kDicCorruptionDetected;
        rep.detail = rep.sim.faultReason;
        return rep;
    }
    if (rep.sim.faulted) {
        rep.kind = Divergence::kMachineFault;
        rep.detail = rep.sim.faultReason;
        return rep;
    }
    if (obs.mismatch) {
        rep.kind = Divergence::kEventMismatch;
        rep.eventIndex = obs.index;
        rep.detail = obs.detail + ctx.str();
        return rep;
    }
    if (rep.sim.cancelled) {
        rep.kind = Divergence::kTimeout;
        rep.detail = "wall-clock watchdog cancelled the pipeline run" +
                     ctx.str();
        return rep;
    }
    if (!cpu.halted()) {
        rep.kind = Divergence::kCycleLimit;
        rep.detail = "pipeline did not halt within " +
                     std::to_string(budget) + " cycles" + ctx.str();
        return rep;
    }
    if (obs.index != ref.events.size()) {
        rep.kind = Divergence::kEventCountMismatch;
        rep.eventIndex = obs.index;
        rep.detail = "pipeline halted after " +
                     std::to_string(obs.index) + " of " +
                     std::to_string(ref.events.size()) +
                     " reference events" + ctx.str();
        return rep;
    }

    // Streams agree; verify final architectural state.
    std::ostringstream diff;
    if (cpu.accum() != interp.accum()) {
        diff << "accum " << cpu.accum() << " != " << interp.accum()
             << "; ";
    }
    if (cpu.flag() != interp.flag())
        diff << "flag " << cpu.flag() << " != " << interp.flag() << "; ";
    if (cpu.sp() != interp.sp()) {
        diff << "sp 0x" << std::hex << cpu.sp() << " != 0x"
             << interp.sp() << std::dec << "; ";
    }
    if (rep.sim.apparent != ires.instructions) {
        diff << "apparent " << rep.sim.apparent
             << " != " << ires.instructions << "; ";
    }
    diffMemory(diff, cpu.memory().bytes(), interp.memory().bytes());
    const std::string d = diff.str();
    if (!d.empty()) {
        rep.kind = Divergence::kFinalStateMismatch;
        rep.detail = d + ctx.str();
    }
    return rep;
}

} // namespace crisp::verify
