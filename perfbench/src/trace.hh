/**
 * @file
 * In-memory span tracing for the benchmark's traced run.
 *
 * Spans are recorded only in the benchmark's own code, around each
 * public call it makes into a layer of the simulator. Each span has a
 * kind (name + layer), a start and end on the steady clock, the span
 * that was open on the same thread when it began (its parent), the id
 * of the unit it belongs to, and the phase (set-up or timed) it ran
 * in. Recording is off by default; a disabled Span costs one relaxed
 * atomic load.
 *
 * Every thread appends to its own buffer, registered once, so client
 * and service worker threads never contend. Buffers live until the
 * process exits; they are read only after every recording thread has
 * stopped.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

enum class SpanKind : std::uint8_t {
    kUnit,
    kCheck,
    kCcCompile,
    kVerifyGenerate,
    kVerifyLink,
    kInterpReference,
    kCycleConstruct,
    kCycleRun,
    kPredecodeWarm,
    kTranslateBuild,
    kFastConstruct,
    kFastRun,
    kFastReset,
    kAnalyze,
    kCrossCheck,
    kLockstepCycle,
    kLockstepFast,
    kProtoEncode,
    kProtoParse,
    kServiceStart,
    kServiceSubmit,
    kServiceWait,
    kCount,
};

inline constexpr std::size_t kSpanKinds =
    static_cast<std::size_t>(SpanKind::kCount);

/** Span name, e.g. "sim.cycle.run". */
const char* spanName(SpanKind k);

/** Layer the span's self time is charged to, e.g. "sim.cycle". */
const char* spanLayer(SpanKind k);

/** The layers, in report order. */
const std::vector<std::string>& layers();

enum class Phase : std::uint8_t { kSetup = 0, kTimed = 1 };

/**
 * Turn recording on or off. With @p odd_units_only, only spans of
 * units with an odd id are recorded, so concurrent units can be split
 * into a traced and an untraced half of one phase.
 */
void setTracing(bool on, bool odd_units_only = false);
void setPhase(Phase p);

/** RAII span; records nothing while tracing is off. */
class Span
{
  public:
    Span(SpanKind kind, std::uint64_t unit);
    ~Span();

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    std::int32_t idx_ = -1;
};

/** Aggregates over the recorded spans of one phase. */
struct SpanSummary
{
    /** Sum of span durations per kind, seconds. */
    std::array<double, kSpanKinds> totalS{};
    /** Self time (duration minus child coverage) per layer, seconds,
     *  indexed like layers(). */
    std::vector<double> layerSelfS;
    /** Every span duration per kind, seconds (for percentiles). */
    std::array<std::vector<double>, kSpanKinds> durationsS;
};

SpanSummary summarize(Phase phase);

/** Total number of recorded spans. */
std::uint64_t spanCount();

/**
 * Write every span as one tab-separated line
 * (thread, index, parent, unit, phase, name, layer, start_ns, end_ns)
 * to @p path. @return false when the file cannot be written.
 */
bool writeSpans(const std::string& path);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
