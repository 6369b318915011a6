/**
 * @file
 * paper_cycle: every registry workload compiled for every Table 4 case
 * (A-E), each unit run on a freshly constructed CrispCpu with a cold
 * DIC and a private, lazily filled predecode cache -- how the paper
 * tables and crisprun use the cycle model. Analysis, the fast engine
 * and the service do no work here.
 *
 * The inputs are fixed by the paper; the seed only orders the units.
 * Each unit is checked against the registry's golden globals and
 * accumulator and against the committed cycles/issued/apparent digest
 * (paper_cycle_digest.txt).
 */

#include <fstream>
#include <sstream>

#include "bench.hh"
#include "cc/compiler.hh"
#include "isa/objfile.hh"
#include "sim/cpu.hh"
#include "trace.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

namespace
{

using namespace crisp;

struct Table4Case
{
    char name;
    FoldPolicy fold;
    cc::PredictMode predict;
    bool spread;
};

constexpr Table4Case kCases[] = {
    {'A', FoldPolicy::kNone, cc::PredictMode::kAllNotTaken, false},
    {'B', FoldPolicy::kNone, cc::PredictMode::kBackwardTaken, false},
    {'C', FoldPolicy::kCrisp, cc::PredictMode::kBackwardTaken, false},
    {'D', FoldPolicy::kCrisp, cc::PredictMode::kBackwardTaken, true},
    {'E', FoldPolicy::kNone, cc::PredictMode::kBackwardTaken, true},
};

/** Cycle budget for a unit with no digest entry (digest regeneration). */
constexpr std::uint64_t kNoDigestBudget = 500'000'000;

struct Expected
{
    std::uint64_t cycles = 0;
    std::uint64_t issued = 0;
    std::uint64_t apparent = 0;
};

struct Unit
{
    const Workload* w = nullptr;
    char caseName = 'A';
    Program prog;
    SimConfig cfg;
    bool hasDigest = false;
    Expected expect;
};

class PaperCycle : public UnitWorkload
{
  public:
    explicit PaperCycle(const Options& opt) : opt_(opt) {}

    void
    setup(References&) override
    {
        const std::map<std::string, Expected> digest = readDigest();
        std::uint64_t h = fnv("paper_cycle", 11);
        for (const Workload& w : allWorkloads()) {
            for (const Table4Case& c : kCases) {
                Unit u;
                u.w = &w;
                u.caseName = c.name;
                cc::CompileOptions copts;
                copts.spread = c.spread;
                copts.predict = c.predict;
                {
                    Span s(SpanKind::kCcCompile, units_.size());
                    u.prog = cc::compile(w.source, copts).program;
                }
                u.cfg.foldPolicy = c.fold;
                const auto it = digest.find(key(w.name, c.name));
                u.hasDigest = it != digest.end();
                if (u.hasDigest)
                    u.expect = it->second;
                u.cfg.maxCycles = u.hasDigest
                                      ? u.expect.cycles * 2 + 100'000
                                      : kNoDigestBudget;
                const std::vector<std::uint8_t> img = saveObject(u.prog);
                h = fnv(img.data(), img.size(), h);
                units_.push_back(std::move(u));
            }
        }
        digest_ = hex64(h);
    }

    std::size_t unitCount() const override { return units_.size(); }

    void
    runUnit(std::size_t i, std::uint64_t id, UnitOut& out) override
    {
        const Unit& u = units_[i];
        std::unique_ptr<CrispCpu> cpu;
        {
            Span s(SpanKind::kCycleConstruct, id);
            cpu = std::make_unique<CrispCpu>(u.prog, u.cfg);
        }
        {
            Span s(SpanKind::kCycleRun, id);
            cpu->run();
        }
        Span s(SpanKind::kCheck, id);
        const SimStats& st = cpu->stats();
        out.simulated = st.apparent;
        out.counts.addCycle(st);
        const std::string who =
            u.w->name + "/" + std::string(1, u.caseName) + ": ";
        if (!st.halted) {
            out.failure = who + "did not halt (timedOut=" +
                          std::to_string(st.timedOut) + " faulted=" +
                          std::to_string(st.faulted) + ")";
            return;
        }
        for (const auto& [name, want] : u.w->expectedGlobals) {
            if (cpu->wordAt(name) != want) {
                out.failure = who + "global " + name + " mismatch";
                return;
            }
        }
        if (u.w->checkAccum && cpu->accum() != u.w->expectedAccum) {
            out.failure = who + "accumulator mismatch";
            return;
        }
        if (!u.hasDigest) {
            // The line to add to the digest, once the run is trusted.
            out.failure = "no digest entry; measured: " + u.w->name +
                          " " + std::string(1, u.caseName) + " " +
                          std::to_string(st.cycles) + " " +
                          std::to_string(st.issued) + " " +
                          std::to_string(st.apparent);
            return;
        }
        if (st.cycles != u.expect.cycles ||
            st.issued != u.expect.issued ||
            st.apparent != u.expect.apparent) {
            out.failure = who + "cycles/issued/apparent " +
                          std::to_string(st.cycles) + "/" +
                          std::to_string(st.issued) + "/" +
                          std::to_string(st.apparent) +
                          " differ from the digest";
        }
    }

    std::string inputDigest() const override { return digest_; }

  private:
    static std::string
    key(const std::string& w, char c)
    {
        return w + " " + std::string(1, c);
    }

    std::map<std::string, Expected>
    readDigest() const
    {
        std::map<std::string, Expected> d;
        std::ifstream f(opt_.dataDir + "/paper_cycle_digest.txt");
        std::string line;
        while (std::getline(f, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::istringstream is(line);
            std::string w;
            char c = 0;
            Expected e;
            if (is >> w >> c >> e.cycles >> e.issued >> e.apparent)
                d[key(w, c)] = e;
        }
        return d;
    }

    const Options& opt_;
    std::vector<Unit> units_;
    std::string digest_;
};

} // namespace

std::unique_ptr<UnitWorkload>
makePaperCycle(const Options& opt)
{
    return std::make_unique<PaperCycle>(opt);
}

} // namespace perfbench
