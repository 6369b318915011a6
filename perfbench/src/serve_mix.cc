/**
 * @file
 * serve_mix: SimService in-process under a closed loop of 4 clients
 * and 2 service workers, so queueing shows. Every request and every
 * result crosses the wire codec (JobRequest/JobResult encode/decode
 * framed by appendFrame and parsed by FrameParser), as they would
 * between crispd and a client, but without a socket.
 *
 * The traffic is bench_serve's (bench/serve_harness.cc): its job
 * program, a counted loop of kLoop = 50,000 iterations, and one job
 * class per bench_serve scenario, in equal shares, as bench_serve runs
 * each scenario with the same number of jobs:
 *  - cold (bench_serve's cold): a distinct program per job, the loop
 *    with a distinct count, cycled through a pool four times the
 *    registry cap: registry insert, predecode + translate, eviction.
 *    bench_serve runs these on the cycle model; here they run on the
 *    fast engine, so translation is on the cold path;
 *  - warm (warm_engine): the shared program with a distinct budget on
 *    the fast engine: registry hit, result-cache miss, shared
 *    translation;
 *  - hit (hot_cache): one identical request: result-cache hit, no
 *    simulation;
 *  - cycle (shared_predecode): the shared program with a distinct
 *    budget on the cycle model.
 * The shared program and the repeated request are submitted once,
 * untimed, in set-up, so first-miss warm-up stays out of steady state.
 *
 * unit_p50_ms and unit_p99_ms are taken over the cold, warm and hit
 * jobs. A cycle job is a cycle-model run several times longer than any
 * of them, so over all jobs the p99 would be the cycle model's own
 * run time; the cycle jobs' latency is reported on its own in the
 * traced run instead.
 *
 * Each result is checked against the interpreter reference (exit
 * value, instruction count) and, for cycle jobs, the cycle-model
 * reference; the ledger invariant is checked at the end. The
 * references are computed once, outside the timed set-ups.
 */

#include <array>
#include <deque>
#include <future>
#include <random>
#include <thread>

#include "asm/assembler.hh"
#include "bench.hh"
#include "hostspeed.hh"
#include "interp/interpreter.hh"
#include "isa/objfile.hh"
#include "service/protocol.hh"
#include "service/service.hh"
#include "sim/cpu.hh"
#include "trace.hh"

namespace perfbench
{

namespace
{

using namespace crisp;
using namespace crisp::service;

constexpr int kClients = 4;
constexpr int kWorkers = 2;
constexpr std::size_t kProgramCacheCap = 16;
/** bench_serve's loop length. */
constexpr int kLoop = 50'000;
/** Distinct programs, cycled through: four times the registry cap. */
constexpr int kDistinct = 64;
constexpr std::uint32_t kDeadlineMs = 30'000;
/** Pause between two host-speed reference slices in the phase. */
constexpr auto kSliceGap = std::chrono::milliseconds(20);
/** Client-side wait bound; the service deadline fires long before. */
constexpr auto kClientWait = std::chrono::seconds(60);

enum class Kind : std::uint8_t { kCold, kWarm, kHit, kCycle, kCount };
constexpr std::size_t kKinds = static_cast<std::size_t>(Kind::kCount);

/** bench_serve's job program: a loop of @p count iterations. */
Program
countedLoop(int count)
{
    std::string src = R"(
        .entry s
        .local i 0
s:      enter 1
        mov i, 0
top:    add i, 1
        cmp.s< i, %N%
        iftjmpy top
        halt
    )";
    const std::string key = "%N%";
    src.replace(src.find(key), key.size(), std::to_string(count));
    return assemble(src);
}

struct ProgRef
{
    std::vector<std::uint8_t> image;
    Reference ref;
};

struct JobRec
{
    double latencyMs = 0;
    /** Mid-time of the job, clockS(). */
    double at = 0;
    std::uint64_t simulated = 0;
    std::uint64_t id = 0;
    Kind kind = Kind::kCold;
    bool ok = false;
};

/** Frame @p payload, parse the frame back and decode it as a @p T. */
template <typename T>
T
overWire(FrameType type, const std::vector<std::uint8_t>& payload,
         std::uint64_t id)
{
    std::vector<std::uint8_t> wire;
    {
        Span s(SpanKind::kProtoEncode, id);
        appendFrame(wire, type, payload);
    }
    Span s(SpanKind::kProtoParse, id);
    FrameParser parser;
    parser.feed(wire.data(), wire.size());
    std::optional<Frame> f = parser.next();
    if (!f || f->type != type || parser.buffered() != 0)
        throw ProtocolError("frame did not round-trip");
    return T::decode(f->payload);
}

/** Latencies, ms, by unit-id parity (odd ids are traced) and kind. */
using LatencyTable = std::array<std::array<std::vector<double>, kKinds>, 2>;

/** One closed-loop phase. */
struct PhaseStats
{
    double unitsPerS = 0;
    double minstrPerS = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** At the reference host speed (HostSpeed::scaleAt). */
    LatencyTable latMs;
    /** As measured. */
    LatencyTable rawLatMs;

    /** Every latency of the given kinds. */
    std::vector<double>
    of(std::initializer_list<Kind> kinds, bool raw = false) const
    {
        std::vector<double> v;
        for (const auto& by_kind : raw ? rawLatMs : latMs) {
            for (const Kind k : kinds) {
                const auto& l = by_kind[static_cast<std::size_t>(k)];
                v.insert(v.end(), l.begin(), l.end());
            }
        }
        return v;
    }

    /**
     * Mean latency of the odd-id jobs over that of the even-id jobs,
     * minus one, in percent, with each kind weighted by its job count
     * so a different mix on the two sides does not count.
     */
    double
    oddOverEvenPct() const
    {
        double odd = 0;
        double even = 0;
        for (std::size_t k = 0; k < kKinds; ++k) {
            const auto& e = latMs[0][k];
            const auto& o = latMs[1][k];
            if (e.empty() || o.empty())
                continue;
            const double n = static_cast<double>(e.size() + o.size());
            const auto mean = [](const std::vector<double>& v) {
                double sum = 0;
                for (const double x : v)
                    sum += x;
                return sum / static_cast<double>(v.size());
            };
            odd += n * mean(o);
            even += n * mean(e);
        }
        return even > 0 ? 100.0 * (odd / even - 1) : 0;
    }
};

/** One completed job's latency and mid-time (clockS()). */
struct Latency
{
    float ms = 0;
    double at = 0;
};

/**
 * Per-client accumulation. Latencies are kept in deques, so the
 * harness's own memory grows in small steps with the job count and
 * never in doubling steps that peak_rss_mb would pick up.
 */
struct ClientAgg
{
    std::array<std::array<std::deque<Latency>, kKinds>, 2> latMs;
    std::uint64_t simulated = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    add(const JobRec& r)
    {
        ++attempted;
        if (!r.ok) {
            ++failed;
            return;
        }
        simulated += r.simulated;
        latMs[r.id % 2][static_cast<std::size_t>(r.kind)].push_back(
            {static_cast<float>(r.latencyMs), r.at});
    }
};

class ServeMix
{
  public:
    ServeMix(const Options& opt, References& refs) : opt_(opt), refs_(refs)
    {}

    ServeMix(const ServeMix&) = delete;
    ServeMix& operator=(const ServeMix&) = delete;

    void
    setup()
    {
        // bench_serve gives the shared program kLoop iterations and
        // each cold job a distinct count above it; here the seed picks
        // where the pool's counts start.
        std::mt19937_64 rng(opt_.seed);
        const int distinct = opt_.shortMode ? 24 : kDistinct;
        const int first = kLoop + 1 + static_cast<int>(rng() % 10'000);
        std::uint64_t h = fnv("serve_mix", 9);
        for (int i = 0; i <= distinct; ++i) {
            const bool shared = i == distinct;
            const Program prog = countedLoop(shared ? kLoop : first + i);
            ProgRef r;
            r.image = saveObject(prog);
            h = fnv(r.image.data(), r.image.size(), h);
            r.ref = refs_.get(fnv(r.image.data(), r.image.size()), [&] {
                return reference(prog, static_cast<std::uint64_t>(i),
                                 shared);
            });
            if (shared)
                shared_ = std::move(r);
            else
                distinct_.push_back(std::move(r));
        }
        digest_ = hex64(h);

        {
            Span s(SpanKind::kServiceStart, 0);
            ServiceConfig cfg;
            cfg.workers = kWorkers;
            cfg.queueCap = 4 * kClients;
            cfg.programCacheCap = kProgramCacheCap;
            svc_ = std::make_unique<SimService>(cfg);
        }
        // Warm the shared program for both engines and seed the result
        // cache with the repeated request.
        for (const Kind k : {Kind::kHit, Kind::kCycle}) {
            JobRec rec;
            oneJob(k, rec);
            if (!rec.ok)
                throw CrispError("serve_mix: warm-up job failed: " +
                                 lastFailure());
        }
    }

    /**
     * One closed-loop phase: clients start jobs for @p seconds while
     * this thread samples the host speed into @p hs.
     */
    PhaseStats
    phase(double seconds, std::uint64_t stream, HostSpeed& hs)
    {
        std::vector<ClientAgg> per(kClients);
        const auto t0 = Clock::now();
        const auto until =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; ++c) {
            clients.emplace_back([&, c] {
                std::mt19937_64 rng(opt_.seed * 1'000'003 + stream * 101 +
                                    static_cast<std::uint64_t>(c));
                ClientAgg& agg = per[static_cast<std::size_t>(c)];
                while (Clock::now() < until) {
                    JobRec rec;
                    oneJob(static_cast<Kind>(rng() % kKinds), rec);
                    agg.add(rec);
                    if (!rec.ok)
                        break;
                }
            });
        }
        while (Clock::now() < until) {
            hs.sample();
            std::this_thread::sleep_for(kSliceGap);
        }
        for (std::thread& t : clients)
            t.join();
        const double elapsed = secondsSince(t0);
        hs.finish();

        PhaseStats p;
        std::uint64_t simulated = 0;
        std::uint64_t completed = 0;
        for (const ClientAgg& a : per) {
            p.attempted += a.attempted;
            p.failed += a.failed;
            completed += a.attempted - a.failed;
            simulated += a.simulated;
            for (std::size_t par = 0; par < 2; ++par) {
                for (std::size_t k = 0; k < kKinds; ++k) {
                    for (const Latency& l : a.latMs[par][k]) {
                        p.rawLatMs[par][k].push_back(l.ms);
                        p.latMs[par][k].push_back(l.ms * hs.scaleAt(l.at));
                    }
                }
            }
        }
        p.unitsPerS = static_cast<double>(completed) / elapsed;
        p.minstrPerS = static_cast<double>(simulated) / elapsed * 1e-6;
        return p;
    }

    SimService& service() { return *svc_; }
    const std::string& inputDigest() const { return digest_; }
    std::string lastFailure() const
    {
        const std::lock_guard<std::mutex> lock(failMu_);
        return lastFailure_;
    }

  private:
    /**
     * Interpreter reference, plus the cycle model's cycle count for
     * the program cycle jobs run.
     */
    static Reference
    reference(const Program& prog, std::uint64_t id, bool with_cycles)
    {
        Reference ref;
        {
            Span s(SpanKind::kInterpReference, id);
            Interpreter interp(prog);
            if (!interp.run(10'000'000).halted)
                throw CrispError("serve_mix: reference did not halt");
            ref.accum = interp.accum();
            ref.instructions = interp.result().instructions;
        }
        if (with_cycles) {
            Span s(SpanKind::kCycleRun, id);
            ref.cycles = CrispCpu(prog, SimConfig{}).run().cycles;
        }
        return ref;
    }

    /** Submit one job over the wire codec, wait, decode, check. */
    void
    oneJob(Kind kind, JobRec& rec)
    {
        const std::uint64_t id = nextId_.fetch_add(1);
        const ProgRef& prog =
            kind == Kind::kCold
                ? distinct_[coldCursor_.fetch_add(1) % distinct_.size()]
                : shared_;
        const Reference& ref = prog.ref;
        JobRequest req;
        req.jobId = id;
        req.deadlineMs = kDeadlineMs;
        req.engine = kind == Kind::kCycle ? EngineKind::kCycle
                                          : EngineKind::kFast;
        req.image = prog.image;
        // A budget the run cannot reach; distinct per job except for
        // the repeated request, so only repeats hit the result cache.
        const std::uint64_t budget = kind == Kind::kCycle
                                         ? ref.cycles * 2 + 50'000
                                         : ref.instructions + 50'000;
        req.maxCycles = kind == Kind::kHit ? budget : budget + id;
        rec.kind = kind;
        rec.id = id;

        Span unit(SpanKind::kUnit, id);
        const auto start = Clock::now();
        try {
            std::vector<std::uint8_t> payload;
            {
                Span s(SpanKind::kProtoEncode, id);
                payload = req.encode();
            }
            const auto got =
                overWire<JobRequest>(FrameType::kSubmit, payload, id);
            auto reply =
                std::make_shared<std::promise<std::vector<std::uint8_t>>>();
            std::future<std::vector<std::uint8_t>> fut = reply->get_future();
            std::string why;
            SubmitStatus st;
            {
                Span s(SpanKind::kServiceSubmit, id);
                st = svc_->submit(
                    got,
                    [reply](const JobResult& r) {
                        // The span ends before set_value, so this
                        // thread's span writes happen-before the
                        // client (and later the summary) reads them.
                        std::vector<std::uint8_t> bytes;
                        {
                            Span s2(SpanKind::kProtoEncode, r.jobId);
                            bytes = r.encode();
                        }
                        reply->set_value(std::move(bytes));
                    },
                    &why);
            }
            if (st != SubmitStatus::kAccepted)
                return fail(id, "rejected: " + why);
            {
                Span s(SpanKind::kServiceWait, id);
                if (fut.wait_for(kClientWait) != std::future_status::ready)
                    return fail(id, "no terminal state within the wait "
                                    "bound");
            }
            const auto res =
                overWire<JobResult>(FrameType::kResult, fut.get(), id);
            const auto end = Clock::now();
            rec.latencyMs =
                std::chrono::duration<double, std::milli>(end - start)
                    .count();
            rec.at = (clockS(start) + clockS(end)) / 2;
            rec.simulated = res.cacheHit ? 0 : res.instructions;

            Span s(SpanKind::kCheck, id);
            if (res.jobId != id || res.state != JobState::kDone)
                return fail(id, std::string("terminal state ") +
                                    std::string(jobStateName(res.state)) +
                                    " " + res.detail);
            if (res.engine != req.engine ||
                res.exitValue != static_cast<std::uint32_t>(ref.accum) ||
                res.instructions != ref.instructions)
                return fail(id, "result differs from the interpreter "
                                "reference");
            const std::uint64_t want_cycles =
                kind == Kind::kCycle ? ref.cycles : 0;
            if (res.cycles != want_cycles)
                return fail(id, "cycles differ from the cycle-model "
                                "reference");
            rec.ok = true;
        } catch (const std::exception& e) {
            fail(id, e.what());
        }
    }

    void
    fail(std::uint64_t id, const std::string& why)
    {
        const std::lock_guard<std::mutex> lock(failMu_);
        lastFailure_ = "job " + std::to_string(id) + ": " + why;
    }

    const Options& opt_;
    References& refs_;
    std::vector<ProgRef> distinct_;
    /** The program warm, hit and cycle jobs run. */
    ProgRef shared_;
    std::string digest_;
    std::atomic<std::uint64_t> nextId_{1};
    std::atomic<std::uint64_t> coldCursor_{0};
    mutable std::mutex failMu_;
    std::string lastFailure_;
    /** Last member: destroyed first, while the refs above are alive. */
    std::unique_ptr<SimService> svc_;
};

} // namespace

Result
runServeMix(const Options& opt, int setup_reps, int setup_slices)
{
    Result out;
    References refs;
    // An untimed first set-up computes the reference results.
    auto mix = std::make_unique<ServeMix>(opt, refs);
    mix->setup();
    HostSpeed hs;
    std::vector<double> setups;
    for (int rep = 0; rep < setup_reps; ++rep) {
        hs.sampleMany(setup_slices);
        mix.reset();
        setTracing(opt.trace && rep == setup_reps - 1);
        const auto t0 = Clock::now();
        mix = std::make_unique<ServeMix>(opt, refs);
        mix->setup();
        setups.push_back(secondsSince(t0));
    }
    hs.sampleMany(setup_slices);
    setTracing(false);
    out.raw.setupS = median(setups);
    out.setupScale = hs.scale();
    out.setupS = out.raw.setupS * out.setupScale;
    out.inputDigest = mix->inputDigest();

    // A traced run records the jobs with an odd id only, so the traced
    // and untraced jobs share the phase and its host speed.
    setPhase(Phase::kTimed);
    const LedgerSnapshot before = mix->service().ledger();
    setTracing(opt.trace, true);
    hs.clear();
    const PhaseStats ps = mix->phase(opt.seconds, 1, hs);
    setTracing(false);
    const LedgerSnapshot after = mix->service().ledger();
    out.attempted = ps.attempted;
    out.failed = ps.failed;
    const std::vector<double> lat =
        ps.of({Kind::kCold, Kind::kWarm, Kind::kHit});
    out.raw.unitsPerS = ps.unitsPerS;
    out.raw.minstrPerS = ps.minstrPerS;
    const std::vector<double> raw_lat =
        ps.of({Kind::kCold, Kind::kWarm, Kind::kHit}, true);
    out.raw.p50Ms = percentile(raw_lat, 0.50);
    out.raw.p99Ms = percentile(raw_lat, 0.99);
    out.phaseScale = hs.scale();
    out.slices = hs.samples();
    out.unitsPerS = out.raw.unitsPerS / out.phaseScale;
    out.minstrPerS = out.raw.minstrPerS / out.phaseScale;
    out.p50Ms = percentile(lat, 0.50);
    out.p99Ms = percentile(lat, 0.99);
    out.samples = lat.size();

    if (opt.trace) {
        out.traceOverheadPct = ps.oddOverEvenPct();
        const SpanSummary sum = summarize(Phase::kTimed);
        auto& m = out.perLayer;
        const auto& sub = sum.durationsS[static_cast<std::size_t>(
            SpanKind::kServiceSubmit)];
        m["service.submit_us_p50"] = {percentile(sub, 0.50) * 1e6, "us"};
        m["service.submit_us_p99"] = {percentile(sub, 0.99) * 1e6, "us"};
        m["service.hit_job_ms_p50"] = {
            percentile(ps.of({Kind::kHit}), 0.50), "ms"};
        m["service.cold_job_ms_p99"] = {
            percentile(ps.of({Kind::kCold}), 0.99), "ms"};
        m["service.cycle_job_ms_p50"] = {
            percentile(ps.of({Kind::kCycle}), 0.50), "ms"};
        const auto delta = [&](std::uint64_t LedgerSnapshot::*f) {
            return static_cast<double>(after.*f - before.*f);
        };
        const double accepted = delta(&LedgerSnapshot::accepted);
        m["service.result_cache_hit_ratio"] = {
            accepted > 0
                ? delta(&LedgerSnapshot::resultCacheHits) / accepted
                : 0.0,
            "ratio"};
        m["service.predecode_shares"] = {
            delta(&LedgerSnapshot::predecodeShares), "count"};
        m["service.translation_shares"] = {
            delta(&LedgerSnapshot::translationShares), "count"};
        m["service.shed"] = {delta(&LedgerSnapshot::shed), "count"};
        m["service.retries"] = {delta(&LedgerSnapshot::retriesScheduled),
                                "count"};
        m["service.timed_out"] = {delta(&LedgerSnapshot::timedOut),
                                  "count"};
    }

    mix->service().shutdown(true);
    const LedgerSnapshot l = mix->service().ledger();
    if (!l.consistent() || l.queued != 0 || l.inFlight != 0 ||
        l.rejected != 0 || l.failed != 0 || l.shed != 0 ||
        l.timedOut != 0 || l.done != l.accepted) {
        ++out.failed;
        std::fprintf(stderr, "serve_mix: ledger invariant violated\n");
    }
    if (out.failed != 0)
        std::fprintf(stderr, "serve_mix: %s\n",
                     mix->lastFailure().c_str());
    return out;
}

} // namespace perfbench
