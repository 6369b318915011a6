/**
 * @file
 * perfbench -- the repository benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--short] [--data-dir DIR] [--work-dir DIR]
 *             [--commit C] [--source-digest D]
 *
 * NAME is paper_cycle, torture_verify, engine_replay or serve_mix
 * (perfbench/NOTES.md says why each exists and which layer it loads).
 * Inputs are built from the seed in set-up, which runs 15 times after
 * an untimed one that computes the reference results; setup_s is the
 * median of the 15. The timed phase then runs for S seconds.
 * Host-speed reference slices (hostspeed.hh) run in between, and every
 * end-to-end time is reported at the reference host speed; the raw
 * values go to the meta line.
 *
 * With --trace 0 the end-to-end metrics are printed; with --trace 1
 * traced and untraced units are interleaved in the timed phase, the
 * per-layer metrics come from the spans of the traced ones, and the
 * spans are written to DIR/trace-NAME.tsv.
 *
 * The last line of standard output is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * preceded by one {"meta": ...} line recording the commit, compiler,
 * build type, nproc, seed and input digest. The exit code is 0 only
 * when every unit passed its checks.
 */

#include <malloc.h>
#include <sys/personality.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "hostspeed.hh"
#include "trace.hh"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{

namespace
{

/** Set-up runs this often; setup_s is the median. */
constexpr int kSetupReps = 15;
/** Measured work between two host-speed reference slices, seconds. */
constexpr double kSliceEveryS = 10e-3;
/** Reference slices around each set-up. */
constexpr int kSetupSlices = 4;

const char* const kWorkloads[] = {"paper_cycle", "torture_verify",
                                  "engine_replay", "serve_mix"};

/** Every per-layer metric and its unit, in report order. */
const std::vector<std::pair<std::string, std::string>>&
perLayerNames()
{
    static const std::vector<std::pair<std::string, std::string>> k = [] {
        std::vector<std::pair<std::string, std::string>> v = {
            {"sim.cycle.construct_s", "s"},
            {"sim.cycle.run_s", "s"},
            {"sim.cycle.ns_per_cycle", "ns"},
            {"sim.cycle.cycles", "count"},
            {"sim.cycle.apparent", "count"},
            {"sim.cycle.issued", "count"},
            {"sim.cycle.squashed", "count"},
            {"sim.cycle.dic_hit_ratio", "ratio"},
            {"sim.cycle.pdu_fills", "count"},
            {"sim.cycle.folded_branches", "count"},
            {"sim.cycle.mispredicts", "count"},
            {"sim.cycle.issue_stall_cycles", "count"},
            {"sim.predecode.warm_s", "s"},
            {"sim.translate.build_s", "s"},
            {"sim.fast.construct_s", "s"},
            {"sim.fast.run_s", "s"},
            {"sim.fast.reset_s", "s"},
            {"sim.fast.ns_per_instr", "ns"},
            {"sim.fast.apparent", "count"},
            {"analysis.analyze_s", "s"},
            {"analysis.analyze_calls", "count"},
            {"analysis.branch_sites", "count"},
            {"analysis.crosscheck_s", "s"},
            {"analysis.crosscheck_mismatches", "count"},
            {"verify.lockstep_cycle_s", "s"},
            {"verify.lockstep_fast_s", "s"},
            {"verify.ref_instructions", "count"},
            {"verify.divergences", "count"},
            {"verify.generate_s", "s"},
            {"cc.compile_s", "s"},
            {"service.protocol.encode_s", "s"},
            {"service.protocol.parse_s", "s"},
            {"service.submit_us_p50", "us"},
            {"service.submit_us_p99", "us"},
            {"service.hit_job_ms_p50", "ms"},
            {"service.cold_job_ms_p99", "ms"},
            {"service.cycle_job_ms_p50", "ms"},
            {"service.result_cache_hit_ratio", "ratio"},
            {"service.predecode_shares", "count"},
            {"service.translation_shares", "count"},
            {"service.shed", "count"},
            {"service.retries", "count"},
            {"service.timed_out", "count"},
        };
        for (const std::string& l : layers())
            v.emplace_back("self_pct." + l, "%");
        v.emplace_back("trace.overhead_pct", "%");
        v.emplace_back("trace.spans", "count");
        return v;
    }();
    return k;
}

/** Throughput and latency of one phase. */
struct Timing
{
    double unitsPerS = 0;
    double minstrPerS = 0;
    double p50Ms = 0;
    double p99Ms = 0;
};

struct PhaseOut
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    Counts round;
    std::uint64_t roundSimulated = 0;
    /**
     * Units per second, simulated instructions per second and the
     * latency percentiles, all from each unit's trimmed mean time over
     * the rounds: the trim drops a stray descheduled sample, and the
     * mean, unlike a median, averages over the host's slower and
     * faster spells inside the phase instead of picking one of them.
     * In `scaled` every sample is first put at the reference host
     * speed (HostSpeed::scaleAt); `raw` is as measured.
     */
    Timing scaled;
    Timing raw;
    /** Trace mode: rounds of traced samples. */
    double tracedRounds = 0;
    /** Trace mode: traced over untraced unit time, minus one, %. */
    double overheadPct = 0;
};

/** One timed run of a unit. */
struct Sample
{
    std::size_t unit = 0;
    bool traced = false;
    /** Mid-time, clockS(). */
    double at = 0;
    double seconds = 0;
};

std::uint64_t gNextUnitId = 1;
int gFailuresPrinted = 0;

/** Sum over the units of each one's trimmed mean time, seconds. */
double
roundSeconds(const std::vector<std::vector<double>>& per_unit_s)
{
    double s = 0;
    for (const auto& v : per_unit_s)
        s += trimmedMean(v);
    return s;
}

/**
 * Run the units in @p order round after round until @p seconds have
 * passed, always completing the first round, so every unit has at
 * least one sample and the round counters are whole. Host-speed
 * reference slices run in between, after every kSliceEveryS of units.
 *
 * With @p traced, every slot runs its unit twice back to back, once
 * with tracing off and once with it on, alternating which goes first.
 * The two samples of a pair see the same host speed, so their ratio is
 * the cost of recording spans and not a drift of the host between two
 * halves of the phase.
 */
PhaseOut
runPhase(UnitWorkload& w, const std::vector<std::size_t>& order,
         double seconds, bool traced, HostSpeed& hs)
{
    const std::size_t n = order.size();
    PhaseOut p;
    std::vector<Sample> samples;
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    hs.sample();
    std::size_t done = 0;
    for (;; ++done) {
        if (done >= n && Clock::now() >= deadline)
            break;
        const std::size_t k = order[done % n];
        for (int pass = 0; pass < (traced ? 2 : 1); ++pass) {
            const bool on = traced && (pass == 0) == (done % 2 == 1);
            const std::uint64_t id = gNextUnitId++;
            UnitOut out;
            setTracing(on);
            const auto t0 = Clock::now();
            {
                Span s(SpanKind::kUnit, id);
                try {
                    w.runUnit(k, id, out);
                } catch (const std::exception& e) {
                    out.failure = std::string("exception: ") + e.what();
                }
            }
            const double dt = secondsSince(t0);
            setTracing(false);
            samples.push_back({k, on, clockS(t0) + dt / 2, dt});
            hs.maybeSample(dt, kSliceEveryS);
            ++p.attempted;
            if (done < n && !on) {
                p.round.add(out.counts);
                p.roundSimulated += out.simulated;
            }
            if (!out.failure.empty()) {
                ++p.failed;
                // Every failure of the first round, then a few more.
                if (done < n || gFailuresPrinted++ < 5)
                    std::fprintf(stderr, "perfbench: unit failed: %s\n",
                                 out.failure.c_str());
            }
        }
    }
    hs.sample();
    hs.finish();

    std::vector<std::vector<double>> plain_s(n);
    std::vector<std::vector<double>> traced_s(n);
    const auto timing = [&](bool scaled) {
        for (std::size_t k = 0; k < n; ++k) {
            plain_s[k].clear();
            traced_s[k].clear();
        }
        for (const Sample& x : samples)
            (x.traced ? traced_s : plain_s)[x.unit].push_back(
                x.seconds * (scaled ? hs.scaleAt(x.at) : 1.0));
        Timing t;
        std::vector<double> unit_ms;
        for (const auto& v : plain_s)
            unit_ms.push_back(trimmedMean(v) * 1e3);
        t.p50Ms = percentile(unit_ms, 0.50);
        t.p99Ms = percentile(unit_ms, 0.99);
        const double round_s = roundSeconds(plain_s);
        if (round_s > 0) {
            t.unitsPerS = static_cast<double>(n) / round_s;
            t.minstrPerS =
                static_cast<double>(p.roundSimulated) / round_s * 1e-6;
        }
        return t;
    };
    p.raw = timing(false);
    p.scaled = timing(true);
    if (traced) {
        p.tracedRounds = static_cast<double>(done) / static_cast<double>(n);
        const double round_s = roundSeconds(plain_s);
        if (round_s > 0)
            p.overheadPct = 100.0 * (roundSeconds(traced_s) / round_s - 1);
    }
    return p;
}

std::unique_ptr<UnitWorkload>
makeWorkload(const Options& opt)
{
    if (opt.workload == "paper_cycle")
        return makePaperCycle(opt);
    if (opt.workload == "torture_verify")
        return makeTortureVerify(opt);
    return makeEngineReplay(opt);
}

Result
runUnits(const Options& opt)
{
    Result r;
    References refs;
    // An untimed first set-up computes the reference results.
    std::unique_ptr<UnitWorkload> w = makeWorkload(opt);
    w->setup(refs);
    HostSpeed hs;
    std::vector<double> setups;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        hs.sampleMany(kSetupSlices);
        w.reset();
        setTracing(opt.trace && rep == kSetupReps - 1);
        const auto t0 = Clock::now();
        w = makeWorkload(opt);
        w->setup(refs);
        setups.push_back(secondsSince(t0));
    }
    hs.sampleMany(kSetupSlices);
    setTracing(false);
    r.raw.setupS = median(setups);
    r.setupScale = hs.scale();
    r.setupS = r.raw.setupS * r.setupScale;
    r.inputDigest = w->inputDigest();

    const std::vector<std::size_t> order =
        shuffledOrder(w->unitCount(), opt.seed);
    setPhase(Phase::kTimed);
    hs.clear();
    const PhaseOut p = runPhase(*w, order, opt.seconds, opt.trace, hs);
    r.phaseScale = hs.scale();
    r.slices = hs.samples();
    r.attempted = p.attempted;
    r.failed = p.failed;
    r.unitsPerS = p.scaled.unitsPerS;
    r.minstrPerS = p.scaled.minstrPerS;
    r.p50Ms = p.scaled.p50Ms;
    r.p99Ms = p.scaled.p99Ms;
    r.raw.unitsPerS = p.raw.unitsPerS;
    r.raw.minstrPerS = p.raw.minstrPerS;
    r.raw.p50Ms = p.raw.p50Ms;
    r.raw.p99Ms = p.raw.p99Ms;
    r.samples = p.attempted;
    r.counts = p.round;
    r.tracedRounds = p.tracedRounds;
    r.traceOverheadPct = p.overheadPct;
    return r;
}

/** The per-layer metrics of a traced run. */
MetricMap
perLayerMetrics(const Result& r)
{
    const SpanSummary setup = summarize(Phase::kSetup);
    const SpanSummary timed = summarize(Phase::kTimed);
    const double rounds = r.tracedRounds > 0 ? r.tracedRounds : 1;
    const auto per_round = [&](SpanKind k) {
        return timed.totalS[static_cast<std::size_t>(k)] / rounds;
    };
    const auto in_setup = [&](SpanKind k) {
        return setup.totalS[static_cast<std::size_t>(k)];
    };
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
    const Counts& c = r.counts;
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };

    MetricMap m;
    m["sim.cycle.construct_s"].first = per_round(SpanKind::kCycleConstruct);
    m["sim.cycle.run_s"].first = per_round(SpanKind::kCycleRun);
    m["sim.cycle.ns_per_cycle"].first =
        ratio(per_round(SpanKind::kCycleRun) * 1e9, d(c.cycles));
    m["sim.cycle.cycles"].first = d(c.cycles);
    m["sim.cycle.apparent"].first = d(c.cycleApparent);
    m["sim.cycle.issued"].first = d(c.issued);
    m["sim.cycle.squashed"].first = d(c.squashed);
    m["sim.cycle.dic_hit_ratio"].first =
        ratio(d(c.dicHits), d(c.dicHits + c.dicMisses));
    m["sim.cycle.pdu_fills"].first = d(c.pduFills);
    m["sim.cycle.folded_branches"].first = d(c.foldedBranches);
    m["sim.cycle.mispredicts"].first = d(c.mispredicts);
    m["sim.cycle.issue_stall_cycles"].first = d(c.issueStallCycles);
    m["sim.predecode.warm_s"].first = in_setup(SpanKind::kPredecodeWarm);
    m["sim.translate.build_s"].first = in_setup(SpanKind::kTranslateBuild);
    m["sim.fast.construct_s"].first = in_setup(SpanKind::kFastConstruct);
    m["sim.fast.run_s"].first = per_round(SpanKind::kFastRun);
    m["sim.fast.reset_s"].first = per_round(SpanKind::kFastReset);
    m["sim.fast.ns_per_instr"].first =
        ratio(per_round(SpanKind::kFastRun) * 1e9, d(c.fastApparent));
    m["sim.fast.apparent"].first = d(c.fastApparent);
    m["analysis.analyze_s"].first = per_round(SpanKind::kAnalyze);
    m["analysis.analyze_calls"].first = d(c.analyzeCalls);
    m["analysis.branch_sites"].first = d(c.branchSites);
    m["analysis.crosscheck_s"].first = per_round(SpanKind::kCrossCheck);
    m["analysis.crosscheck_mismatches"].first = d(c.crosscheckMismatches);
    m["verify.lockstep_cycle_s"].first = per_round(SpanKind::kLockstepCycle);
    m["verify.lockstep_fast_s"].first = per_round(SpanKind::kLockstepFast);
    m["verify.ref_instructions"].first = d(c.refInstructions);
    m["verify.divergences"].first = d(c.divergences);
    m["verify.generate_s"].first = in_setup(SpanKind::kVerifyGenerate) +
                                   in_setup(SpanKind::kVerifyLink);
    m["cc.compile_s"].first = in_setup(SpanKind::kCcCompile);
    m["service.protocol.encode_s"].first = per_round(SpanKind::kProtoEncode);
    m["service.protocol.parse_s"].first = per_round(SpanKind::kProtoParse);

    double self_total = 0;
    for (const double v : timed.layerSelfS)
        self_total += v;
    for (std::size_t i = 0; i < layers().size(); ++i)
        m["self_pct." + layers()[i]].first =
            ratio(100.0 * timed.layerSelfS[i], self_total);
    m["trace.overhead_pct"].first = r.traceOverheadPct;
    m["trace.spans"].first = d(spanCount());

    for (const auto& [name, v] : r.perLayer)
        m[name] = v;
    // Layers a workload does not reach report 0; units come from the
    // one list so every workload prints the same metric set.
    MetricMap out;
    for (const auto& [name, unit] : perLayerNames())
        out[name] = {m.count(name) ? m[name].first : 0.0, unit};
    return out;
}

/**
 * Peak resident set of this process image, MB. VmHWM is reset by
 * execve; getrusage's ru_maxrss is not (it keeps the launching
 * process's peak), so it is only the fallback.
 */
double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024;
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonStr(const std::string& s)
{
    std::string o = "\"";
    for (const char ch : s) {
        if (ch == '"' || ch == '\\')
            o += '\\';
        if (static_cast<unsigned char>(ch) >= 0x20)
            o += ch;
    }
    return o + "\"";
}

/**
 * Keep freed heap memory mapped. By default glibc hands freed memory
 * back to the kernel and takes it again page by page, a minor fault
 * each time: one torture_verify round took 560-780 thousand faults and
 * 1.1-1.6 s of system time, and what a fault costs on a shared host
 * moved that workload's rate between runs by several percent, in a way
 * the host-speed reference does not see. With the memory kept, a round
 * takes about 2,000 faults; malloc and free still do all their work.
 */
void
keepFreedMemory()
{
    mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
    // The largest threshold glibc accepts on 64-bit hosts.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "paper_cycle|torture_verify|engine_replay|serve_mix "
                 "--seed N --seconds S --trace 0|1 [--short] "
                 "[--data-dir DIR] [--work-dir DIR] [--commit C] "
                 "[--source-digest D]\n");
    return 2;
}

} // namespace

} // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    keepFreedMemory();
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--short") {
            opt.shortMode = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage();
        const std::string v = argv[++i];
        try {
            if (a == "--workload")
                opt.workload = v;
            else if (a == "--seed")
                opt.seed = std::stoull(v);
            else if (a == "--seconds")
                opt.seconds = std::stod(v);
            else if (a == "--trace")
                opt.trace = std::stoi(v) != 0;
            else if (a == "--data-dir")
                opt.dataDir = v;
            else if (a == "--work-dir")
                opt.workDir = v;
            else if (a == "--commit")
                opt.commit = v;
            else if (a == "--source-digest")
                opt.sourceDigest = v;
            else
                return usage();
        } catch (const std::exception&) {
            return usage();
        }
    }
    bool known = false;
    for (const char* w : kWorkloads)
        known = known || opt.workload == w;
    if (!known || !(opt.seconds > 0))
        return usage();

    Result r;
    try {
        r = opt.workload == "serve_mix" ? runServeMix(opt, kSetupReps, kSetupSlices)
                                        : runUnits(opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(),
                     e.what());
        return 1;
    }

    MetricMap metrics;
    std::string trace_file;
    if (!opt.trace) {
        metrics["setup_s"] = {r.setupS, "s"};
        metrics["units_per_s"] = {r.unitsPerS, "1/s"};
        metrics["sim_minstr_per_s"] = {r.minstrPerS, "Minstr/s"};
        metrics["unit_p50_ms"] = {r.p50Ms, "ms"};
        metrics["unit_p99_ms"] = {r.p99Ms, "ms"};
        metrics["peak_rss_mb"] = {peakRssMb(), "MB"};
    } else {
        metrics = perLayerMetrics(r);
        trace_file = opt.workDir + "/trace-" + opt.workload + ".tsv";
        if (!writeSpans(trace_file)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         trace_file.c_str());
            return 1;
        }
    }

    std::ostringstream meta;
    meta << "{\"meta\": {\"workload\": " << jsonStr(opt.workload)
         << ", \"seed\": " << opt.seed << ", \"seconds\": " << num(opt.seconds)
         << ", \"trace\": " << (opt.trace ? 1 : 0)
         << ", \"short\": " << (opt.shortMode ? "true" : "false")
         << ", \"commit\": " << jsonStr(opt.commit)
         << ", \"source_digest\": " << jsonStr(opt.sourceDigest)
         << ", \"compiler\": " << jsonStr(PERFBENCH_COMPILER)
         << ", \"build_type\": " << jsonStr(PERFBENCH_BUILD_TYPE)
         << ", \"nproc\": " << std::thread::hardware_concurrency()
         << ", \"aslr\": "
         << ((personality(0xffffffff) & ADDR_NO_RANDOMIZE) ? "false" : "true")
         << ", \"input_digest\": " << jsonStr(r.inputDigest)
         << ", \"unit_samples\": " << r.samples
         << ", \"host_slices\": " << r.slices
         << ", \"host_scale\": " << num(r.phaseScale)
         << ", \"setup_host_scale\": " << num(r.setupScale)
         << ", \"raw\": {\"setup_s\": " << num(r.raw.setupS)
         << ", \"units_per_s\": " << num(r.raw.unitsPerS)
         << ", \"sim_minstr_per_s\": " << num(r.raw.minstrPerS)
         << ", \"unit_p50_ms\": " << num(r.raw.p50Ms)
         << ", \"unit_p99_ms\": " << num(r.raw.p99Ms) << "}"
         << ", \"traced_rounds\": " << num(r.tracedRounds)
         << ", \"trace_file\": " << jsonStr(trace_file) << "}}";
    std::printf("%s\n", meta.str().c_str());

    std::ostringstream os;
    os << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, v] : metrics) {
        os << (first ? "" : ", ") << jsonStr(name) << ": {\"value\": "
           << num(v.first) << ", \"unit\": " << jsonStr(v.second) << "}";
        first = false;
    }
    os << "}}";
    std::printf("%s\n", os.str().c_str());
    std::fflush(stdout);
    return r.failed == 0 && r.attempted > 0 ? 0 : 1;
}
