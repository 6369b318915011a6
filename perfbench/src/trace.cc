#include "trace.hh"

#include <algorithm>
#include <fstream>
#include <memory>
#include <mutex>

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

struct KindInfo
{
    const char* name;
    const char* layer;
};

constexpr KindInfo kKinds[kSpanKinds] = {
    {"unit", "bench"},
    {"check", "bench"},
    {"cc.compile", "cc"},
    {"verify.generate", "verify"},
    {"verify.link", "verify"},
    {"interp.reference", "interp"},
    {"sim.cycle.construct", "sim.cycle"},
    {"sim.cycle.run", "sim.cycle"},
    {"sim.predecode.warm", "sim.predecode"},
    {"sim.translate.build", "sim.translate"},
    {"sim.fast.construct", "sim.fast"},
    {"sim.fast.run", "sim.fast"},
    {"sim.fast.reset", "sim.fast"},
    {"analysis.analyze", "analysis"},
    {"analysis.crosscheck", "analysis"},
    {"verify.lockstep_cycle", "verify"},
    {"verify.lockstep_fast", "verify"},
    {"service.protocol.encode", "service.protocol"},
    {"service.protocol.parse", "service.protocol"},
    {"service.start", "service"},
    {"service.submit", "service"},
    {"service.wait", "service"},
};

struct Rec
{
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::uint64_t unit = 0;
    std::int32_t parent = -1;
    SpanKind kind = SpanKind::kUnit;
    Phase phase = Phase::kSetup;
};

struct ThreadBuf
{
    std::vector<Rec> spans;
    std::vector<std::int32_t> open;
};

std::atomic<bool> gOn{false};
std::atomic<bool> gOddUnitsOnly{false};
std::atomic<Phase> gPhase{Phase::kSetup};
std::mutex gBufsMu;
std::vector<std::unique_ptr<ThreadBuf>> gBufs;

ThreadBuf&
localBuf()
{
    thread_local ThreadBuf* buf = nullptr;
    if (buf == nullptr) {
        auto owned = std::make_unique<ThreadBuf>();
        buf = owned.get();
        const std::lock_guard<std::mutex> lock(gBufsMu);
        gBufs.push_back(std::move(owned));
    }
    return *buf;
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

std::size_t
layerIndex(SpanKind k)
{
    const auto& ls = layers();
    const std::string l = spanLayer(k);
    return static_cast<std::size_t>(
        std::find(ls.begin(), ls.end(), l) - ls.begin());
}

} // namespace

const char*
spanName(SpanKind k)
{
    return kKinds[static_cast<std::size_t>(k)].name;
}

const char*
spanLayer(SpanKind k)
{
    return kKinds[static_cast<std::size_t>(k)].layer;
}

const std::vector<std::string>&
layers()
{
    static const std::vector<std::string> kLayers = {
        "bench",         "cc",           "verify",   "interp",
        "sim.cycle",     "sim.predecode", "sim.translate",
        "sim.fast",      "analysis",     "service",
        "service.protocol"};
    return kLayers;
}

void
setTracing(bool on, bool odd_units_only)
{
    gOddUnitsOnly.store(odd_units_only, std::memory_order_relaxed);
    gOn.store(on, std::memory_order_relaxed);
}

void
setPhase(Phase p)
{
    gPhase.store(p, std::memory_order_relaxed);
}

Span::Span(SpanKind kind, std::uint64_t unit)
{
    if (!gOn.load(std::memory_order_relaxed) ||
        (unit % 2 == 0 && gOddUnitsOnly.load(std::memory_order_relaxed)))
        return;
    ThreadBuf& b = localBuf();
    Rec r;
    r.kind = kind;
    r.unit = unit;
    r.phase = gPhase.load(std::memory_order_relaxed);
    r.parent = b.open.empty() ? -1 : b.open.back();
    idx_ = static_cast<std::int32_t>(b.spans.size());
    b.open.push_back(idx_);
    r.startNs = nowNs();
    b.spans.push_back(r);
}

Span::~Span()
{
    if (idx_ < 0)
        return;
    ThreadBuf& b = localBuf();
    b.spans[static_cast<std::size_t>(idx_)].endNs = nowNs();
    b.open.pop_back();
}

SpanSummary
summarize(Phase phase)
{
    SpanSummary s;
    s.layerSelfS.assign(layers().size(), 0.0);
    const std::lock_guard<std::mutex> lock(gBufsMu);
    for (const auto& b : gBufs) {
        const std::vector<Rec>& sp = b->spans;
        std::vector<std::int64_t> childNs(sp.size(), 0);
        for (const Rec& r : sp) {
            if (r.parent >= 0)
                childNs[static_cast<std::size_t>(r.parent)] +=
                    r.endNs - r.startNs;
        }
        for (std::size_t i = 0; i < sp.size(); ++i) {
            const Rec& r = sp[i];
            if (r.phase != phase)
                continue;
            const auto k = static_cast<std::size_t>(r.kind);
            const double dur = static_cast<double>(r.endNs - r.startNs) *
                               1e-9;
            s.totalS[k] += dur;
            s.durationsS[k].push_back(dur);
            s.layerSelfS[layerIndex(r.kind)] +=
                dur - static_cast<double>(childNs[i]) * 1e-9;
        }
    }
    return s;
}

std::uint64_t
spanCount()
{
    const std::lock_guard<std::mutex> lock(gBufsMu);
    std::uint64_t n = 0;
    for (const auto& b : gBufs)
        n += b->spans.size();
    return n;
}

bool
writeSpans(const std::string& path)
{
    std::ofstream f(path);
    f << "thread\tindex\tparent\tunit\tphase\tname\tlayer\tstart_ns\t"
         "end_ns\n";
    const std::lock_guard<std::mutex> lock(gBufsMu);
    for (std::size_t t = 0; t < gBufs.size(); ++t) {
        const std::vector<Rec>& sp = gBufs[t]->spans;
        for (std::size_t i = 0; i < sp.size(); ++i) {
            const Rec& r = sp[i];
            f << t << '\t' << i << '\t' << r.parent << '\t' << r.unit
              << '\t' << (r.phase == Phase::kTimed ? "timed" : "setup")
              << '\t' << spanName(r.kind) << '\t' << spanLayer(r.kind)
              << '\t' << r.startNs << '\t' << r.endNs << '\n';
        }
    }
    return static_cast<bool>(f);
}

} // namespace perfbench
