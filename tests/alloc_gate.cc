/**
 * @file
 * Heap-allocation gate for the static analyzer.
 *
 * A counting global operator new tallies every allocation while each
 * analysis pass runs over a fixed program set: generator seeds 1-300
 * under fold policies none, crisp and all (the set the golden digest in
 * test_analysis_digest.cc pins). The table printed per pass (cfg,
 * spread, sites, sccp, liveness, reachdefs, callgraph, targets, cost)
 * and for the whole analyzeProgram call gives allocations and
 * microseconds per call. The allocation counts are deterministic, so
 * the gate is exact where wall clock is not: the run fails when
 * whole-call allocations exceed kCeiling, which is the count measured
 * when the ceiling was set plus 5%. A per-node std::map brought back
 * into a fixpoint's state shows here as a failed count, not as noise.
 *
 * Usage: test_alloc_gate   (exit 0 under the ceiling, 1 over it)
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "analysis/checks.hh"
#include "verify/generator.hh"

namespace
{

std::uint64_t g_allocs = 0;

void*
countedAlloc(std::size_t n)
{
    ++g_allocs;
    if (void* p = std::malloc(n != 0 ? n : 1))
        return p;
    throw std::bad_alloc();
}

void*
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    ++g_allocs;
    const auto a = static_cast<std::size_t>(al);
    if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

} // namespace

// Every replaceable form is replaced, nothrow ones included (stable_sort
// takes its buffer through them), so each allocation is counted once and
// freed by the allocator that made it.
void* operator new(std::size_t n) { return countedAlloc(n); }
void* operator new[](std::size_t n) { return countedAlloc(n); }
void*
operator new(std::size_t n, const std::nothrow_t&) noexcept
{
    ++g_allocs;
    return std::malloc(n != 0 ? n : 1);
}
void*
operator new[](std::size_t n, const std::nothrow_t&) noexcept
{
    ++g_allocs;
    return std::malloc(n != 0 ? n : 1);
}
void*
operator new(std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void*
operator new[](std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void
operator delete[](void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace
{

using namespace crisp;
using namespace crisp::analysis;

/**
 * Whole-analyzeProgram allocations over the program set: 1,857,116
 * (2,063 per call) with flat per-node state, plus 5%. Node-based
 * std::map/std::set state made 8,501,333 (9,446 per call).
 */
constexpr std::uint64_t kCeiling = 1'949'972;

enum Pass
{
    kCfg,
    kSpread,
    kSites,
    kSccp,
    kLiveness,
    kReachdefs,
    kCallgraph,
    kTargets,
    kCost,
    kWhole,
    kPasses
};

constexpr const char* kPassNames[kPasses] = {
    "cfg",       "spread",    "sites",   "sccp", "liveness",
    "reachdefs", "callgraph", "targets", "cost", "analyzeProgram"};

struct Tally
{
    std::uint64_t allocs = 0;
    double seconds = 0;
};

/** Run @p f, charging its allocations and time to @p t. */
template <class F>
auto
measure(Tally& t, F f)
{
    const std::uint64_t a0 = g_allocs;
    const auto t0 = std::chrono::steady_clock::now();
    auto r = f();
    t.seconds += std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    t.allocs += g_allocs - a0;
    return r;
}

} // namespace

int
main()
{
    constexpr FoldPolicy kPolicies[] = {FoldPolicy::kNone,
                                        FoldPolicy::kCrisp,
                                        FoldPolicy::kAll};
    Tally tally[kPasses];
    std::uint64_t calls = 0;
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        const Program prog = verify::generate(seed).link();
        for (const FoldPolicy policy : kPolicies) {
            ++calls;
            // The passes one by one, in analyzeProgram's order...
            const auto cfg = measure(tally[kCfg], [&] {
                return std::make_shared<Cfg>(prog, policy);
            });
            const auto spread = measure(tally[kSpread],
                                        [&] { return analyzeSpread(*cfg); });
            const auto sites = measure(tally[kSites], [&] {
                return collectBranchSites(*cfg, spread);
            });
            const auto sc =
                measure(tally[kSccp], [&] { return sccp(*cfg); });
            measure(tally[kLiveness],
                    [&] { return computeLiveness(*cfg, sc.state); });
            measure(tally[kReachdefs],
                    [&] { return computeReachDefs(*cfg, sc.state); });
            const auto cg = measure(tally[kCallgraph], [&] {
                return std::make_shared<CallGraph>(*cfg);
            });
            const auto targets = measure(tally[kTargets], [&] {
                return analyzeTargets(*cfg, *cg, sc);
            });
            measure(tally[kCost], [&] {
                return computeCost(*cfg, spread, sites, sc.state,
                                   PredictSource::kStaticBit, &targets);
            });
            // ...and the whole call, diagnostics included.
            AnalysisOptions opt;
            opt.policy = policy;
            measure(tally[kWhole],
                    [&] { return analyzeProgram(prog, opt); });
        }
    }

    std::printf("%-15s %14s %12s %10s\n", "pass", "allocs", "allocs/call",
                "us/call");
    for (int p = 0; p < kPasses; ++p) {
        std::printf("%-15s %14llu %12.1f %10.1f\n", kPassNames[p],
                    static_cast<unsigned long long>(tally[p].allocs),
                    static_cast<double>(tally[p].allocs) /
                        static_cast<double>(calls),
                    tally[p].seconds * 1e6 / static_cast<double>(calls));
    }
    const std::uint64_t whole = tally[kWhole].allocs;
    std::printf("%llu calls; analyzeProgram allocations %llu, ceiling "
                "%llu\n",
                static_cast<unsigned long long>(calls),
                static_cast<unsigned long long>(whole),
                static_cast<unsigned long long>(kCeiling));
    if (whole > kCeiling) {
        std::printf("FAIL: analyzeProgram allocations over the ceiling\n");
        return 1;
    }
    std::printf("ok\n");
    return 0;
}
