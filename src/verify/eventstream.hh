/**
 * @file
 * Architectural event-stream recording and checking, shared by the
 * lockstep runners (cycle pipeline vs. interpreter in lockstep.cc,
 * fast engine vs. interpreter in enginediff.cc).
 *
 * Both engines emit the same stream through ExecObserver: one
 * onInstruction per executed instruction, one onBranch per executed
 * branch. The reference stream is recorded from the interpreter; the
 * engine under test is then run with a CheckingObserver that compares
 * each event as it happens and latches the first mismatch.
 *
 * Hint fields (the static prediction bit, the short-form encoding
 * flag) are excluded from the comparison by design: faults injected
 * into them must remain invisible here.
 */

#ifndef CRISP_VERIFY_EVENTSTREAM_HH
#define CRISP_VERIFY_EVENTSTREAM_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "interp/trace.hh"

namespace crisp::verify
{

/** One architectural event: an instruction retirement or a branch. */
struct Ev
{
    bool branch = false;
    Addr pc = 0;
    Opcode op = Opcode::kNop;
    bool conditional = false;
    bool taken = false;
    Addr target = 0;
    Addr fallThrough = 0;

    bool
    operator==(const Ev&) const = default;

    std::string
    toString() const
    {
        std::ostringstream os;
        os << (branch ? "branch " : "inst ") << opcodeName(op) << " @0x"
           << std::hex << pc;
        if (branch) {
            os << std::dec << (conditional ? " cond" : " uncond");
            if (taken)
                os << " taken->0x" << std::hex << target;
            else
                os << " not-taken (target 0x" << std::hex << target
                   << ")";
        }
        return os.str();
    }
};

/** Records the reference interpreter's event stream. */
class RefRecorder : public ExecObserver
{
  public:
    void
    onInstruction(Addr pc, Opcode op) override
    {
        events.push_back(Ev{false, pc, op, false, false, 0, 0});
    }

    void
    onBranch(const BranchEvent& ev) override
    {
        events.push_back(Ev{true, ev.pc, ev.op, ev.conditional,
                            ev.taken, ev.target, ev.fallThrough});
    }

    std::vector<Ev> events;
};

/** Compares an engine's retire stream against the reference. */
class CheckingObserver : public ExecObserver
{
  public:
    explicit CheckingObserver(const std::vector<Ev>& ref) : ref_(ref) {}

    void
    onInstruction(Addr pc, Opcode op) override
    {
        check(Ev{false, pc, op, false, false, 0, 0});
    }

    void
    onBranch(const BranchEvent& ev) override
    {
        check(Ev{true, ev.pc, ev.op, ev.conditional, ev.taken,
                 ev.target, ev.fallThrough});
    }

    bool mismatch = false;
    std::size_t index = 0;
    std::string detail;

  private:
    void
    check(const Ev& got)
    {
        if (mismatch)
            return;
        if (index >= ref_.size()) {
            mismatch = true;
            detail = "pipeline retired an event past the end of the "
                     "reference stream: " +
                     got.toString();
            return;
        }
        if (!(ref_[index] == got)) {
            mismatch = true;
            detail = "expected " + ref_[index].toString() + ", got " +
                     got.toString();
            return;
        }
        ++index;
    }

    const std::vector<Ev>& ref_;
};

/**
 * Final-memory comparison shared by both runners: append to @p diff a
 * note naming the first differing byte of @p got against @p ref (or
 * their sizes), nothing when the images match. The images are 256 KiB,
 * so the equal case is one memcmp; bytes are walked only on a mismatch.
 */
inline void
diffMemory(std::ostringstream& diff, const std::vector<std::uint8_t>& got,
           const std::vector<std::uint8_t>& ref)
{
    if (got.size() != ref.size()) {
        diff << "memory size " << got.size() << " != " << ref.size()
             << "; ";
        return;
    }
    if (got.empty() ||
        std::memcmp(got.data(), ref.data(), got.size()) == 0) {
        return;
    }
    const auto at = std::mismatch(got.begin(), got.end(), ref.begin());
    diff << "memory[0x" << std::hex << (at.first - got.begin()) << "] 0x"
         << static_cast<int>(*at.first) << " != 0x"
         << static_cast<int>(*at.second) << std::dec << "; ";
}

} // namespace crisp::verify

#endif // CRISP_VERIFY_EVENTSTREAM_HH
