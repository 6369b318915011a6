/**
 * @file
 * engine_replay: the registry workloads (Table 4 case D build) plus
 * seeded generator programs, each replayed many times on one
 * FastEngine that borrows a shared, warm Translation, with reset()
 * between replays -- the warm-replay pattern crispd and crisptorture
 * rely on. Predecode warm-up, translation and engine construction are
 * set-up; the timed units are reset()+run() only, so the threaded
 * dispatch loop does nearly all the work. The interpreter references
 * are computed once, outside the timed set-ups (see References).
 *
 * Every replay is checked: registry programs against their golden
 * globals/accumulator, generated programs against an interpreter
 * reference (accumulator plus a digest of the data segment), and both
 * against the reference instruction count.
 */

#include "bench.hh"
#include "cc/compiler.hh"
#include "interp/interpreter.hh"
#include "isa/objfile.hh"
#include "sim/fastengine.hh"
#include "sim/predecode.hh"
#include "sim/translate.hh"
#include "trace.hh"
#include "verify/generator.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

namespace
{

using namespace crisp;

/** Interpreter step limit for the set-up references. */
constexpr std::uint64_t kRefSteps = 200'000'000;

struct Replay
{
    /** Null for generated programs. */
    const Workload* w = nullptr;
    std::string name;
    // Declaration order is destruction order in reverse: the engine
    // borrows the translation, which borrows the table and program.
    std::unique_ptr<Program> prog;
    std::unique_ptr<PredecodeCache> predecode;
    std::unique_ptr<Translation> translation;
    std::unique_ptr<FastEngine> engine;
    std::uint64_t refInstructions = 0;
    Word refAccum = 0;
    std::uint64_t refState = 0;
};

class EngineReplay : public UnitWorkload
{
  public:
    explicit EngineReplay(const Options& opt)
        : opt_(opt), generated_(opt.shortMode ? 8 : 96)
    {}

    void
    setup(References& refs) override
    {
        std::uint64_t h = fnv("engine_replay", 13);
        std::uint64_t id = 0;
        for (const Workload& w : allWorkloads()) {
            auto r = std::make_unique<Replay>();
            r->w = &w;
            r->name = w.name;
            Span s(SpanKind::kCcCompile, id++);
            r->prog = std::make_unique<Program>(
                cc::compile(w.source).program);
            replays_.push_back(std::move(r));
        }
        const std::uint64_t base = 2'000'000 + opt_.seed * 10'000;
        for (std::size_t i = 0; i < generated_; ++i) {
            auto r = std::make_unique<Replay>();
            r->name = "gen" + std::to_string(base + i);
            verify::GenProgram gp;
            {
                Span s(SpanKind::kVerifyGenerate, id);
                gp = verify::generate(base + i);
            }
            Span s(SpanKind::kVerifyLink, id++);
            r->prog = std::make_unique<Program>(gp.link());
            replays_.push_back(std::move(r));
        }
        id = 0;
        for (auto& r : replays_) {
            const std::vector<std::uint8_t> img = saveObject(*r->prog);
            h = fnv(img.data(), img.size(), h);
            const Reference& ref =
                refs.get(fnv(img.data(), img.size()), [&] {
                    return reference(*r, id);
                });
            r->refInstructions = ref.instructions;
            r->refAccum = ref.accum;
            r->refState = ref.state;
            prepare(*r, id++);
        }
        digest_ = hex64(h);
    }

    std::size_t unitCount() const override { return replays_.size(); }

    void
    runUnit(std::size_t i, std::uint64_t id, UnitOut& out) override
    {
        Replay& r = *replays_[i];
        {
            Span s(SpanKind::kFastReset, id);
            r.engine->reset();
        }
        {
            Span s(SpanKind::kFastRun, id);
            r.engine->run();
        }
        Span s(SpanKind::kCheck, id);
        const SimStats& st = r.engine->stats();
        out.simulated = st.apparent;
        out.counts.fastApparent += st.apparent;
        const std::string who = r.name + ": ";
        if (!st.halted) {
            out.failure = who + "did not halt";
        } else if (st.apparent != r.refInstructions) {
            out.failure = who + "instruction count differs from the "
                                "interpreter reference";
        } else if (r.engine->accum() != r.refAccum) {
            out.failure = who + "accumulator differs from the "
                                "interpreter reference";
        } else if (r.w != nullptr) {
            for (const auto& [name, want] : r.w->expectedGlobals) {
                if (r.engine->wordAt(name) != want) {
                    out.failure = who + "global " + name + " mismatch";
                    return;
                }
            }
            if (r.w->checkAccum && r.engine->accum() != r.w->expectedAccum)
                out.failure = who + "accumulator mismatch";
        } else if (stateDigest(*r.prog, r.engine->memory(),
                               r.engine->accum()) != r.refState) {
            out.failure = who + "data segment differs from the "
                                "interpreter reference";
        }
    }

    std::string inputDigest() const override { return digest_; }

  private:
    static Reference
    reference(const Replay& r, std::uint64_t id)
    {
        Span s(SpanKind::kInterpReference, id);
        Interpreter interp(*r.prog);
        const InterpResult ir = interp.run(kRefSteps);
        if (!ir.halted)
            throw CrispError(r.name + ": reference did not halt");
        Reference ref;
        ref.instructions = ir.instructions;
        ref.accum = interp.accum();
        ref.state = stateDigest(*r.prog, interp.memory(), ref.accum);
        return ref;
    }

    /** Warm tables, translation and engine. */
    void
    prepare(Replay& r, std::uint64_t id)
    {
        SimConfig cfg;
        // The budget only has to absorb superblock-boundary overshoot
        // (the engine-diff runner's margin).
        cfg.maxCycles = r.refInstructions + 50'000;
        r.predecode = std::make_unique<PredecodeCache>(*r.prog);
        {
            Span s(SpanKind::kPredecodeWarm, id);
            r.predecode->warmAll(cfg.foldPolicy);
        }
        {
            Span s(SpanKind::kTranslateBuild, id);
            r.translation = std::make_unique<Translation>(
                *r.prog, cfg.foldPolicy, r.predecode.get(),
                cfg.enableChaining);
        }
        Span s(SpanKind::kFastConstruct, id);
        r.engine = std::make_unique<FastEngine>(
            *r.prog, cfg, r.predecode.get(), r.translation.get());
    }

    const Options& opt_;
    const std::size_t generated_;
    std::vector<std::unique_ptr<Replay>> replays_;
    std::string digest_;
};

} // namespace

std::unique_ptr<UnitWorkload>
makeEngineReplay(const Options& opt)
{
    return std::make_unique<EngineReplay>(opt);
}

} // namespace perfbench
