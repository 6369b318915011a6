#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>

#include "bench.hh"
#include "interp/memory_image.hh"
#include "isa/program.hh"

namespace perfbench
{

void
Counts::addCycle(const crisp::SimStats& s)
{
    cycles += s.cycles;
    cycleApparent += s.apparent;
    issued += s.issued;
    squashed += s.squashed;
    dicHits += s.dicHits;
    dicMisses += s.dicMisses;
    pduFills += s.pduFills;
    foldedBranches += s.foldedBranches;
    mispredicts += s.mispredicts;
    issueStallCycles += s.issueStallCycles;
}

void
Counts::add(const Counts& o)
{
    cycles += o.cycles;
    cycleApparent += o.cycleApparent;
    issued += o.issued;
    squashed += o.squashed;
    dicHits += o.dicHits;
    dicMisses += o.dicMisses;
    pduFills += o.pduFills;
    foldedBranches += o.foldedBranches;
    mispredicts += o.mispredicts;
    issueStallCycles += o.issueStallCycles;
    fastApparent += o.fastApparent;
    analyzeCalls += o.analyzeCalls;
    branchSites += o.branchSites;
    crosscheckMismatches += o.crosscheckMismatches;
    refInstructions += o.refInstructions;
    divergences += o.divergences;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
trimmedMean(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t cut = v.size() / 10;
    double sum = 0;
    for (std::size_t i = cut; i < v.size() - cut; ++i)
        sum += v[i];
    return sum / static_cast<double>(v.size() - 2 * cut);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    // Nearest rank: the smallest sample with at least p of the samples
    // at or below it.
    auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

std::uint64_t
fnv(const void* data, std::size_t n, std::uint64_t h)
{
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::uint64_t
stateDigest(const crisp::Program& prog, const crisp::MemoryImage& mem,
            crisp::Word accum)
{
    std::uint64_t h = fnv(&accum, sizeof(accum));
    const std::size_t words = prog.data.size() / 4;
    for (std::size_t i = 0; i < words; ++i) {
        const std::uint32_t w =
            mem.read32(prog.dataBase + static_cast<crisp::Addr>(4 * i));
        h = fnv(&w, sizeof(w), h);
    }
    return h;
}

std::vector<std::size_t>
shuffledOrder(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    // Fisher-Yates with a fixed engine, so the order is the same on
    // every platform (std::shuffle's algorithm is unspecified).
    std::mt19937_64 rng(seed);
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng() % i]);
    return order;
}

} // namespace perfbench
