/**
 * @file
 * The host-speed reference: a fixed slice of work, owned by the
 * benchmark and independent of the simulator, timed in between the
 * measured units.
 *
 * A shared host runs the same code faster or slower in spells that
 * last from seconds to minutes, by up to a quarter and more. Every
 * slice does exactly the same work, so the time of a slice measures
 * nothing but the host's speed at that moment. Dividing a measured
 * time by the mean slice time around it (and multiplying by the
 * nominal slice time) reports it at one reference host speed: a
 * change to the simulator moves it, a change of the host's speed does
 * not.
 */

#ifndef PERFBENCH_HOSTSPEED_HH
#define PERFBENCH_HOSTSPEED_HH

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench.hh"

namespace perfbench
{

class HostSpeed
{
  public:
    HostSpeed();

    /** Run one reference slice and record its time. */
    void sample();

    void
    sampleMany(int n)
    {
        for (int i = 0; i < n; ++i)
            sample();
    }

    /**
     * Run a slice when at least @p every_s seconds of measured work
     * have passed since the last one (the caller adds them with
     * @p worked_s), so slices take a fixed share of the phase.
     */
    void
    maybeSample(double worked_s, double every_s)
    {
        sinceLast_ += worked_s;
        if (sinceLast_ >= every_s) {
            sinceLast_ = 0;
            sample();
        }
    }

    std::size_t samples() const { return times_.size(); }

    /**
     * Nominal slice time over the trimmed mean slice time: multiply a
     * measured time by it to get the time at the reference speed.
     * 1 when nothing was sampled.
     */
    double scale() const;

    /**
     * The same factor for a measurement made at @p t (seconds on the
     * steady clock, see clockS()), from the slices within half a
     * second of it, so a unit timed in a slow spell is scaled by that
     * spell's speed. Call finish() after the last sample first.
     */
    double scaleAt(double t) const;
    void finish();

    /** Forget the samples (start of a new phase). */
    void
    clear()
    {
        times_.clear();
        at_.clear();
        local_.clear();
        sinceLast_ = 0;
    }

  private:
    struct Free
    {
        void operator()(std::uint32_t* p) const { std::free(p); }
    };
    /** The slice's table and, after it, its scratch page. */
    std::unique_ptr<std::uint32_t, Free> table_;
    /** Slice durations and their mid-times (clockS), in order. */
    std::vector<double> times_;
    std::vector<double> at_;
    /** scaleAt() of each slice's mid-time. */
    std::vector<double> local_;
    double sinceLast_ = 0;
    std::uint64_t expect_ = 0;
    std::uint32_t touched_ = 0;
};

/** @p t in seconds on the steady clock. */
inline double
clockS(Clock::time_point t)
{
    return std::chrono::duration<double>(t.time_since_epoch()).count();
}

} // namespace perfbench

#endif // PERFBENCH_HOSTSPEED_HH
