/**
 * @file
 * Shared vocabulary of the benchmark: run options, the exact
 * per-round work counters, the single-threaded unit-workload interface
 * and the small statistics helpers.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "isa/types.hh"
#include "sim/stats.hh"

namespace crisp
{
class MemoryImage;
class Program;
} // namespace crisp

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Small inputs and a short timed phase; every check stays on. */
    bool shortMode = false;
    /** Directory holding the committed reference data. */
    std::string dataDir = "perfbench";
    /** Where the traced run writes its spans. */
    std::string workDir = ".";
    std::string commit = "unknown";
    std::string sourceDigest = "unknown";
};

/**
 * Exact work counters of one round (every unit run once). A change
 * that only speeds the simulator up must leave all of them identical
 * for the same seed.
 */
struct Counts
{
    std::uint64_t cycles = 0;
    std::uint64_t cycleApparent = 0;
    std::uint64_t issued = 0;
    std::uint64_t squashed = 0;
    std::uint64_t dicHits = 0;
    std::uint64_t dicMisses = 0;
    std::uint64_t pduFills = 0;
    std::uint64_t foldedBranches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t issueStallCycles = 0;
    std::uint64_t fastApparent = 0;
    std::uint64_t analyzeCalls = 0;
    std::uint64_t branchSites = 0;
    std::uint64_t crosscheckMismatches = 0;
    std::uint64_t refInstructions = 0;
    std::uint64_t divergences = 0;

    /** Add one cycle-model run's statistics. */
    void addCycle(const crisp::SimStats& s);
    void add(const Counts& o);
};

/** Reference results of one program, from a run outside the timed path. */
struct Reference
{
    std::uint64_t instructions = 0;
    crisp::Word accum = 0;
    /** stateDigest() of the final state. */
    std::uint64_t state = 0;
    /** Cycle-model cycles (only where a workload needs them). */
    std::uint64_t cycles = 0;
};

/**
 * Reference results by program-image digest. A first, untimed set-up
 * fills it; the timed set-ups find every entry already there, so
 * setup_s measures building the inputs and warming up, not the
 * reference runs that check them.
 */
class References
{
  public:
    const Reference&
    get(std::uint64_t image_digest, const std::function<Reference()>& run)
    {
        auto it = refs_.find(image_digest);
        if (it == refs_.end())
            it = refs_.emplace(image_digest, run()).first;
        return it->second;
    }

  private:
    std::map<std::uint64_t, Reference> refs_;
};

/** What one unit reports back besides pass/fail. */
struct UnitOut
{
    /** Engine-simulated architectural instructions of this unit. */
    std::uint64_t simulated = 0;
    Counts counts;
    /** First failed check, empty when the unit passed. */
    std::string failure;
};

/**
 * A single-threaded workload: a fixed list of independent units built
 * by setup() from the seed, each re-runnable any number of times.
 */
class UnitWorkload
{
  public:
    virtual ~UnitWorkload() = default;

    /** Build every input from the seed (once per object). */
    virtual void setup(References& refs) = 0;
    virtual std::size_t unitCount() const = 0;
    /** Run unit @p i once and check its result. */
    virtual void runUnit(std::size_t i, std::uint64_t unit_id,
                         UnitOut& out) = 0;
    /** Digest of the generated inputs (stable for one seed). */
    virtual std::string inputDigest() const = 0;
};

std::unique_ptr<UnitWorkload> makePaperCycle(const Options& opt);
std::unique_ptr<UnitWorkload> makeTortureVerify(const Options& opt);
std::unique_ptr<UnitWorkload> makeEngineReplay(const Options& opt);

/** Metrics by name -> (value, unit). */
using MetricMap = std::map<std::string, std::pair<double, std::string>>;

/** Everything one workload run measured. */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Median set-up time over the repetitions. */
    double setupS = 0;
    /** Untraced timed phase. */
    double unitsPerS = 0;
    double minstrPerS = 0;
    double p50Ms = 0;
    double p99Ms = 0;
    /** Latency samples behind the percentiles. */
    std::uint64_t samples = 0;
    /**
     * The end-to-end times above are at the reference host speed: the
     * raw measurements scaled by the host-speed reference (HostSpeed)
     * sampled in the same phase. The raw values are kept for the
     * record.
     */
    struct Raw
    {
        double setupS = 0;
        double unitsPerS = 0;
        double minstrPerS = 0;
        double p50Ms = 0;
        double p99Ms = 0;
    } raw;
    double setupScale = 1;
    double phaseScale = 1;
    std::uint64_t slices = 0;
    /**
     * Trace mode only: traced over untraced time of the same work,
     * minus one, in percent, from samples interleaved in one phase.
     */
    double traceOverheadPct = 0;
    /** Rounds of traced units; per-layer times are per round. */
    double tracedRounds = 1;
    /** Exact work counters of one round. */
    Counts counts;
    /** Workload-specific per-layer metrics. */
    MetricMap perLayer;
    std::string inputDigest;
};

/**
 * serve_mix; set-up runs @p setup_reps times with @p setup_slices
 * host-speed reference slices before each and after the last.
 */
Result runServeMix(const Options& opt, int setup_reps, int setup_slices);

// --- helpers ------------------------------------------------------------

double median(std::vector<double> v);
/** Mean without the lowest and highest tenth of the samples. */
double trimmedMean(std::vector<double> v);
/** Nearest-rank percentile, @p p in [0, 1]. */
double percentile(std::vector<double> v, double p);

/** FNV-1a, chainable. */
std::uint64_t fnv(const void* data, std::size_t n,
                  std::uint64_t h = 1469598103934665603ull);
std::string hex64(std::uint64_t v);

/** Digest of the accumulator plus every word of the data segment. */
std::uint64_t stateDigest(const crisp::Program& prog,
                          const crisp::MemoryImage& mem,
                          crisp::Word accum);

/** Deterministic seeded shuffle of 0..n-1. */
std::vector<std::size_t> shuffledOrder(std::size_t n, std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
