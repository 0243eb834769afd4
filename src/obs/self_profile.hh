/**
 * @file
 * Sampled host profiler: which simulator layer the host CPU time of a
 * sweep went to (`uhtm_bench --self-profile`).
 *
 * Every thread carries a one-byte layer tag. Code enters a layer with
 * a LayerScope, which stores the new tag and restores the old one on
 * exit: one thread-local store each way, no clock read, no atomics and
 * no on/off branch, so the tags are always maintained. A LayerScope
 * never lives across a co_await: a suspended workload frame holds no
 * tag, and the event callback that resumes it tags the workload layer.
 *
 * Sampling is separate and opt-in. installLayerSampler() installs a
 * SIGPROF handler; each LayerSampler arms a CLOCK_THREAD_CPUTIME_ID
 * timer that sends its thread SIGPROF every kSamplePeriodS of that
 * thread's CPU time, and the handler adds one to the counter of the
 * thread's current layer. A layer's share of the samples times the
 * sampled threads' measured CPU seconds estimates its self time.
 * Nothing is installed at static initialization: a program that links
 * this library and runs its own SIGPROF sampler is left alone unless
 * it calls installLayerSampler().
 *
 * The simulation never reads the tag or the counters, so golden BENCH
 * and METRICS bytes are identical with and without sampling.
 */

#ifndef UHTM_OBS_SELF_PROFILE_HH
#define UHTM_OBS_SELF_PROFILE_HH

#include <ctime>

#include <cstdint>

namespace uhtm::obs
{

/** Simulator layers; also the PROFILE json key order. */
enum class Layer : std::uint8_t
{
    EventQueue,  ///< event pop/dispatch and untagged callbacks
    L1,          ///< private-cache lookup, fill and eviction
    Directory,   ///< directory/LLC lookup, coherence, LLC eviction
    OnChipCheck, ///< on-chip (directory) conflict check
    OffChipWalk, ///< off-chip signature walk on LLC misses
    DramCache,   ///< DRAM-cache lookup, fill, commit and invalidation
    MemCtrl,     ///< DRAM/NVM memory-controller slot accounting
    Logs,        ///< undo/redo log appends and durable-image drains
    Commit,      ///< commit protocol
    Abort,       ///< abort protocol
    Workload,    ///< workload coroutine frames
    Setup,       ///< a job's populate step: workload build, LLC pre-warm
    Other,       ///< untagged: machine build, teardown, harness
    Count
};

constexpr unsigned kLayerCount = static_cast<unsigned>(Layer::Count);

/** Stable json key for one layer. */
const char *layerName(Layer l);

/** The calling thread's current layer. Volatile so a tag store is
 *  never elided: the SIGPROF handler reads it asynchronously. */
inline constinit thread_local volatile Layer t_layer = Layer::Other;

/** Tags the calling thread with a layer for the object's lifetime. */
class LayerScope
{
  public:
    explicit LayerScope(Layer l) : _saved(t_layer) { t_layer = l; }
    ~LayerScope() { t_layer = _saved; }

    LayerScope(const LayerScope &) = delete;
    LayerScope &operator=(const LayerScope &) = delete;

  private:
    Layer _saved;
};

/** Requested sampling period in seconds of the sampled thread's CPU
 *  time. The kernel fires CPU-time timers on its scheduler tick, so
 *  the effective period can be longer; self_s estimates scale sample
 *  shares by measured CPU time instead of multiplying by this. */
inline constexpr double kSamplePeriodS = 0.001;

/** Install the SIGPROF handler (idempotent). Must precede the first
 *  LayerSampler: an unhandled SIGPROF terminates the process. */
void installLayerSampler();

/** Zero the sample counters and the sampled CPU time. */
void resetLayerSamples();

/** Samples taken while the sampled thread was in @p l. */
std::uint64_t layerSamples(Layer l);

/** CPU seconds of every finished LayerSampler since the last reset. */
double sampledCpuSeconds();

/** Samples the calling thread for the lifetime of the object and adds
 *  the thread's CPU time over that lifetime to sampledCpuSeconds(). */
class LayerSampler
{
  public:
    LayerSampler();
    ~LayerSampler();

    LayerSampler(const LayerSampler &) = delete;
    LayerSampler &operator=(const LayerSampler &) = delete;

  private:
    timer_t _timer{};
    std::uint64_t _cpuStartNs = 0;
};

} // namespace uhtm::obs

#endif // UHTM_OBS_SELF_PROFILE_HH
