#include "hostspeed.hh"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <new>
#include <stdexcept>

namespace perfbench
{

namespace
{

/**
 * Table words: 1 MB, the size of a simulator's hot state. A slice with
 * a 16 KB table slowed about 0.6 times as much as the workloads did in
 * the host's slow spells; with 1 MB it slowed as much as they did.
 */
constexpr std::size_t kTableWords = 1u << 18;
/** A scratch page after the table: its offset from the table is fixed. */
constexpr std::size_t kScratchWords = 1024;
constexpr std::size_t kCodeLen = 64;
constexpr std::size_t kPage = 4096;
/** Steps of one slice; a little over a millisecond on a 4-vCPU Xeon. */
constexpr int kSliceSteps = 500'000;
/**
 * The slice time that stands for the reference host speed. Only the
 * ratio of two runs' results matters; this fixes the scale so the
 * reported values read like the raw ones on an average spell.
 */
constexpr double kNominalSliceS = 1.7e-3;
/** Half-width of the window scaleAt() averages slices over, seconds. */
constexpr double kWindowS = 0.5;

/** The fixed program of a slice, one cache line. */
struct alignas(64) Code
{
    std::array<std::uint8_t, kCodeLen> op{};

    Code()
    {
        std::uint64_t x = 0x243f6a8885a308d3ull;
        for (auto& o : op) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            o = static_cast<std::uint8_t>((x >> 33) % 8);
        }
    }
};

/**
 * One slice: a small switch-dispatched machine running a fixed
 * program -- table loads, stores to a scratch page, multiplies and
 * shifts, with a dispatch sequence the branch predictors learn, as in
 * a simulator's hot loop. It starts from the same state every time, so
 * every slice does the same work and returns the same checksum.
 *
 * Its speed depends on where its code and data lie: two builds that
 * placed this function 32 bytes apart timed it 18% apart. So the
 * function is page-aligned, the program sits in one aligned cache line,
 * the table is page-aligned and the scratch page lies right after it;
 * then changes to the rest of the binary cannot move any of them
 * relative to the cache and branch-predictor geometry.
 */
__attribute__((noinline, aligned(4096))) std::uint64_t
slice(std::uint32_t* mem)
{
    static const Code code;
    const std::uint32_t* table = mem;
    std::uint32_t* scratch = mem + kTableWords;
    std::fill(scratch, scratch + kScratchWords, 0u);
    std::uint64_t acc = 0x9e3779b97f4a7c15ull;
    std::uint64_t b = 3;
    std::uint32_t x = 1;
    std::size_t pc = 0;
    const std::size_t mask = kTableWords - 1;
    for (int step = 0; step < kSliceSteps; ++step) {
        const std::uint8_t op = code.op[pc];
        pc = (pc + 1) % kCodeLen;
        switch (op) {
          case 0:
            acc += table[(acc >> 7) & mask];
            break;
          case 1:
            scratch[x & 1023] = static_cast<std::uint32_t>(acc);
            break;
          case 2:
            x ^= static_cast<std::uint32_t>(acc >> 11);
            break;
          case 3:
            b = b * 0x100000001b3ull + acc;
            break;
          case 4:
            acc ^= scratch[(b >> 3) & 1023];
            break;
          case 5:
            b += x;
            x += 7;
            break;
          case 6:
            x += table[x & mask];
            break;
          default:
            acc = (acc << 13) | (acc >> 51);
            break;
        }
    }
    return acc ^ x ^ b;
}

} // namespace

HostSpeed::HostSpeed()
    : table_(static_cast<std::uint32_t*>(std::aligned_alloc(
          kPage, (kTableWords + kScratchWords) * sizeof(std::uint32_t))))
{
    if (!table_)
        throw std::bad_alloc();
    std::uint32_t v = 2463534242u;
    for (std::size_t i = 0; i < kTableWords; ++i) {
        v ^= v << 13;
        v ^= v >> 17;
        v ^= v << 5;
        table_.get()[i] = v;
    }
    expect_ = slice(table_.get());
}

void
HostSpeed::sample()
{
    // Bring the table back into the caches first: the work measured
    // before the slice evicts it, by an amount that depends on that
    // work, and the slice must time the host only.
    std::uint32_t touch = 0;
    for (std::size_t i = 0; i < kTableWords + kScratchWords; i += 16)
        touch += table_.get()[i];
    touched_ = touch;
    const auto t0 = Clock::now();
    const std::uint64_t got = slice(table_.get());
    const double dt = secondsSince(t0);
    times_.push_back(dt);
    at_.push_back(clockS(t0) + dt / 2);
    if (got != expect_)
        throw std::runtime_error("host-speed reference slice miscomputed");
}

double
HostSpeed::scale() const
{
    const double m = trimmedMean(times_);
    return m > 0 ? kNominalSliceS / m : 1.0;
}

void
HostSpeed::finish()
{
    local_.assign(times_.size(), 1.0);
    std::size_t lo = 0;
    std::size_t hi = 0;
    for (std::size_t i = 0; i < times_.size(); ++i) {
        while (at_[lo] < at_[i] - kWindowS)
            ++lo;
        while (hi < at_.size() && at_[hi] <= at_[i] + kWindowS)
            ++hi;
        const double m = trimmedMean(std::vector<double>(
            times_.begin() + static_cast<std::ptrdiff_t>(lo),
            times_.begin() + static_cast<std::ptrdiff_t>(hi)));
        local_[i] = m > 0 ? kNominalSliceS / m : 1.0;
    }
}

double
HostSpeed::scaleAt(double t) const
{
    if (local_.empty())
        return scale();
    // The slice nearest to t.
    const auto it = std::lower_bound(at_.begin(), at_.end(), t);
    std::size_t i = static_cast<std::size_t>(it - at_.begin());
    if (i == at_.size() || (i > 0 && t - at_[i - 1] < at_[i] - t))
        --i;
    return local_[i];
}

} // namespace perfbench
