/**
 * @file
 * CPU-time sampler for the traced benchmark run.
 *
 * Each sampled thread arms its own CLOCK_THREAD_CPUTIME_ID timer that
 * sends it SIGPROF every kSamplePeriodS of its CPU time; the handler
 * appends the interrupted PC to a preallocated buffer (one relaxed
 * atomic increment and one store, nothing else, so it is
 * async-signal-safe). Per-thread timers are used instead of
 * setitimer(ITIMER_PROF) because Linux delivers a process-directed
 * SIGPROF to whichever thread it picks, which biases attribution
 * towards the main thread.
 *
 * Nothing here touches the simulator: the benchmark arms a sampler
 * around each job from its own code, and perfbench/run.py maps the
 * PCs to source files through the build's debug info afterwards.
 */

#ifndef PERFBENCH_SAMPLER_HH
#define PERFBENCH_SAMPLER_HH

#include <ctime>

#include <cstdint>
#include <map>

namespace perfbench
{

/** Requested sampling period in seconds of the sampled thread's CPU
 *  time. The kernel fires CPU-time timers on its scheduler tick, so
 *  the effective period can be longer; consumers scale sample shares
 *  by measured CPU time instead of multiplying counts by this. */
inline constexpr double kSamplePeriodS = 0.001;

/** Install the SIGPROF handler and sample buffer; call once, before
 *  the first ThreadSampler. */
void installSampler();

/** Samples the calling thread for the lifetime of the object. */
class ThreadSampler
{
  public:
    /** @param on when false the object does nothing. */
    explicit ThreadSampler(bool on);
    ~ThreadSampler();

    ThreadSampler(const ThreadSampler &) = delete;
    ThreadSampler &operator=(const ThreadSampler &) = delete;

  private:
    bool _armed = false;
    timer_t _timer{};
};

/** Every sample taken so far, split by where the PC lies. */
struct SampleSet
{
    /** PC minus the executable's load bias (an address addr2line can
     *  resolve against the executable file) -> samples. */
    std::map<std::uintptr_t, std::uint64_t> exeOffsets;
    /** PCs outside the executable's code: libc, libstdc++, the vdso. */
    std::uint64_t outside = 0;
};

SampleSet collectSamples();

/** Sampler self-test target: busy-loops for @p seconds of wall time
 *  inside spin.cc and returns a value that depends on every step. */
std::uint64_t spinFor(double seconds);

} // namespace perfbench

#endif // PERFBENCH_SAMPLER_HH
