/**
 * @file
 * Golden digest of the static analyzer over generated programs.
 *
 * analyzeProgram runs on generator seeds 1-300 under fold policies
 * none, crisp and all. Every result is printed in a form that does not
 * depend on how the passes store their state (reports, tables, counts,
 * per-node states walked in address order) and hashed. The hash is
 * pinned: a change to the analysis's data structures must leave it
 * bit-identical, so any drift in a verdict, a fixpoint step count or a
 * per-node state shows here first. The five lint goldens cover only
 * hand-written fixtures.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "analysis/checks.hh"
#include "analysis/reachdefs.hh"
#include "verify/generator.hh"

namespace
{

using namespace crisp;
using namespace crisp::analysis;

/** The digest of the analysis results on the fixed program set. */
constexpr std::uint64_t kGoldenDigest = 0x1515165af623ddcaull;

std::uint64_t
fnv1a(const std::string& s, std::uint64_t h)
{
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

void
printInterval(std::ostream& os, const Interval& v)
{
    os << '[' << v.lo << ',' << v.hi << ']';
}

void
printAbs(std::ostream& os, const AbsState& s)
{
    os << (s.reachable ? 'R' : 'U');
    printInterval(os, s.accum);
    printInterval(os, s.sp);
    os << s.flag.mayTrue << s.flag.mayFalse << '{';
    for (const auto& [a, v] : s.mem) {
        os << a << ':';
        printInterval(os, v);
    }
    os << '}';
}

void
printLive(std::ostream& os, const LiveSet& s)
{
    os << s.accum << s.flag << s.mem.all << '{';
    for (const Addr a : s.mem.words)
        os << a << ',';
    os << '}';
}

void
printRd(std::ostream& os, const ReachDefsResult& rd, int id)
{
    os << (rd.reachable(id) ? 'R' : 'U') << '{';
    for (const LocKey k : rd.trackedAt(id)) {
        os << k << ':';
        for (const Addr d : rd.defsOf(id, k))
            os << d << ',';
        os << ';';
    }
    os << '}';
}

/** Everything the analyzer derived for one program, as text. */
std::string
describe(const AnalysisResult& r)
{
    std::ostringstream os;
    os << r.toJson() << '\n' << r.costTableText() << '\n'
       << r.targetsTableText() << '\n';

    const Cfg& cfg = *r.cfg;
    const AbsIntResult& ai = r.sccp.state;
    os << "sccp " << ai.steps << ' ' << ai.widenings << ' '
       << ai.converged << '\n';
    os << "live " << r.live.converged << " rd " << r.reachdefs.converged
       << '\n';
    for (std::size_t id = 0; id < cfg.size(); ++id) {
        const CfgNode& n = cfg.at(static_cast<int>(id));
        os << n.di.pc << " b" << n.block << " s";
        for (const int s : n.succIds)
            os << s << ',';
        os << " p";
        for (const int p : n.predIds)
            os << p << ',';
        os << "\n ai ";
        printAbs(os, ai.in[id]);
        printAbs(os, ai.out[id]);
        os << "\n lv ";
        printLive(os, r.live.in[id]);
        printLive(os, r.live.out[id]);
        os << "\n rd ";
        printRd(os, r.reachdefs, static_cast<int>(id));
        os << '\n';
    }

    os << "defuse";
    for (const auto& [d, uses] : r.reachdefs.defUses) {
        os << ' ' << d << ':';
        for (const Addr u : uses)
            os << u << ',';
    }
    os << "\nconstprop";
    for (const ConstUse& u : findConstPropUses(cfg, r.reachdefs, ai))
        os << ' ' << u.pc << ',' << u.dstOperand << ',' << u.value << ','
           << u.defPc;
    os << "\ncopies";
    for (const RedundantCopy& c : findRedundantCopies(cfg, r.reachdefs, ai))
        os << ' ' << c.pc << ',' << c.defPc;
    os << "\ndead";
    for (const DeadStore& d : r.live.dead)
        os << ' ' << d.pc << ',' << static_cast<int>(d.kind) << ','
           << d.addr;
    os << '\n';
    return os.str();
}

TEST(AnalysisDigest, GeneratedProgramsMatchGolden)
{
    constexpr FoldPolicy kPolicies[] = {FoldPolicy::kNone,
                                        FoldPolicy::kCrisp,
                                        FoldPolicy::kAll};
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        const Program prog = verify::generate(seed).link();
        for (const FoldPolicy policy : kPolicies) {
            AnalysisOptions opt;
            opt.policy = policy;
            h = fnv1a(describe(analyzeProgram(prog, opt)), h);
        }
    }
    std::ostringstream hex;
    hex << "0x" << std::hex << h;
    EXPECT_EQ(h, kGoldenDigest) << "digest " << hex.str();
}

} // namespace
