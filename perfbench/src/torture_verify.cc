/**
 * @file
 * torture_verify: seeded generator programs, each checked the way
 * crisptorture checks them, under fold policies none, crisp and all:
 * lockstep interpreter-vs-cycle, lockstep interpreter-vs-fast (the
 * observer path, so threaded dispatch is bypassed), analyzeProgram,
 * and a SiteRecorder run of the cycle model cross-checked against the
 * analysis. The static analyzer is expected to dominate.
 *
 * Every unit is one (program, policy) check; any divergence, oracle
 * mismatch or non-halting run is a failed unit.
 */

#include "analysis/checks.hh"
#include "analysis/cost.hh"
#include "analysis/oracle.hh"
#include "bench.hh"
#include "isa/objfile.hh"
#include "sim/cpu.hh"
#include "trace.hh"
#include "verify/enginediff.hh"
#include "verify/generator.hh"
#include "verify/lockstep.hh"

namespace perfbench
{

namespace
{

using namespace crisp;

constexpr FoldPolicy kPolicies[] = {FoldPolicy::kNone, FoldPolicy::kCrisp,
                                    FoldPolicy::kAll};

class TortureVerify : public UnitWorkload
{
  public:
    // unit_p99_ms rests on the few programs whose analysis costs most,
    // so it takes many programs per seed to repeat across seeds.
    explicit TortureVerify(const Options& opt)
        : opt_(opt), programs_(opt.shortMode ? 12 : 2048)
    {}

    void
    setup(References&) override
    {
        std::uint64_t h = fnv("torture_verify", 14);
        // Generator seeds are disjoint from the ones the ctest sweeps
        // start at (0..), and disjoint between benchmark seeds.
        const std::uint64_t base = 1'000'000 + opt_.seed * 10'000;
        for (std::size_t i = 0; i < programs_; ++i) {
            verify::GenProgram gp;
            {
                Span s(SpanKind::kVerifyGenerate, i);
                gp = verify::generate(base + i);
            }
            Span s(SpanKind::kVerifyLink, i);
            progs_.push_back(gp.link());
            const std::vector<std::uint8_t> img = saveObject(progs_.back());
            h = fnv(img.data(), img.size(), h);
        }
        digest_ = hex64(h);
    }

    std::size_t
    unitCount() const override
    {
        return progs_.size() * std::size(kPolicies);
    }

    void
    runUnit(std::size_t i, std::uint64_t id, UnitOut& out) override
    {
        const Program& prog = progs_[i / std::size(kPolicies)];
        const FoldPolicy policy = kPolicies[i % std::size(kPolicies)];
        const std::string who =
            "program " + std::to_string(i / std::size(kPolicies)) +
            " policy " + std::to_string(static_cast<int>(policy)) + ": ";

        verify::LockstepOptions lo;
        lo.cfg.foldPolicy = policy;
        verify::LockstepReport cyc;
        {
            Span s(SpanKind::kLockstepCycle, id);
            cyc = verify::runLockstep(prog, lo);
        }
        verify::LockstepReport fast;
        {
            Span s(SpanKind::kLockstepFast, id);
            fast = verify::runFastLockstep(prog, lo);
        }
        out.counts.refInstructions += cyc.refInstructions;
        out.counts.divergences += (cyc.ok() ? 0 : 1) + (fast.ok() ? 0 : 1);
        out.counts.fastApparent += fast.sim.apparent;

        analysis::AnalysisOptions ao;
        ao.policy = policy;
        ao.predict = analysis::PredictConvention::kNone;
        ao.stackCacheWords = lo.cfg.stackCacheWords;
        ao.foldInfo = false;
        ao.costPredict = analysis::predictSourceFor(lo.cfg);
        analysis::AnalysisResult st;
        {
            Span s(SpanKind::kAnalyze, id);
            st = analysis::analyzeProgram(prog, ao);
        }
        ++out.counts.analyzeCalls;
        out.counts.branchSites +=
            static_cast<std::uint64_t>(st.staticBranchSites);

        // The oracle run: same budget rule as the lockstep runner.
        SimConfig cfg = lo.cfg;
        cfg.maxCycles = cyc.refInstructions * 48 + 50'000;
        analysis::SiteRecorder rec;
        std::unique_ptr<CrispCpu> cpu;
        {
            Span s(SpanKind::kCycleConstruct, id);
            cpu = std::make_unique<CrispCpu>(prog, cfg);
        }
        {
            Span s(SpanKind::kCycleRun, id);
            cpu->run(&rec);
        }
        const SimStats& dyn = cpu->stats();
        out.counts.addCycle(dyn);
        analysis::OracleReport orc;
        {
            Span s(SpanKind::kCrossCheck, id);
            orc = analysis::crossCheck(st, dyn, rec);
        }
        out.counts.crosscheckMismatches += orc.mismatches.size() +
                                           orc.costViolations.size() +
                                           orc.targetViolations.size();
        out.simulated =
            cyc.sim.apparent + fast.sim.apparent + dyn.apparent;

        Span s(SpanKind::kCheck, id);
        if (!cyc.ok())
            out.failure = who + "cycle lockstep: " + cyc.toString();
        else if (!fast.ok())
            out.failure = who + "fast lockstep: " + fast.toString();
        else if (!dyn.halted || dyn.apparent != cyc.refInstructions)
            out.failure = who + "oracle run did not halt cleanly";
        else if (!orc.ok())
            out.failure = who + "oracle: " + orc.toString();
    }

    std::string inputDigest() const override { return digest_; }

  private:
    const Options& opt_;
    const std::size_t programs_;
    std::vector<Program> progs_;
    std::string digest_;
};

} // namespace

std::unique_ptr<UnitWorkload>
makeTortureVerify(const Options& opt)
{
    return std::make_unique<TortureVerify>(opt);
}

} // namespace perfbench
