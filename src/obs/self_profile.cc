#include "obs/self_profile.hh"

#include <csignal>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <iterator>
#include <mutex>
#include <system_error>

namespace uhtm::obs
{

namespace
{

std::atomic<std::uint64_t> g_samples[kLayerCount];
std::atomic<std::uint64_t> g_cpuNs{0};

void
onProf(int)
{
    g_samples[static_cast<unsigned>(t_layer)].fetch_add(
        1, std::memory_order_relaxed);
}

std::uint64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

} // namespace

const char *
layerName(Layer l)
{
    static constexpr const char *kNames[] = {
        "event_queue",  "l1",         "directory", "onchip_check",
        "offchip_walk", "dram_cache", "mem_ctrl",  "logs",
        "commit",       "abort",      "workload",  "setup",
        "other"};
    static_assert(std::size(kNames) == kLayerCount);
    return kNames[static_cast<unsigned>(l)];
}

void
installLayerSampler()
{
    static std::once_flag once;
    std::call_once(once, [] {
        struct sigaction sa = {};
        sa.sa_handler = onProf;
        sa.sa_flags = SA_RESTART;
        sigemptyset(&sa.sa_mask);
        if (sigaction(SIGPROF, &sa, nullptr) != 0)
            throw std::system_error(errno, std::generic_category(),
                                    "sigaction(SIGPROF)");
    });
}

void
resetLayerSamples()
{
    for (auto &s : g_samples)
        s.store(0, std::memory_order_relaxed);
    g_cpuNs.store(0, std::memory_order_relaxed);
}

std::uint64_t
layerSamples(Layer l)
{
    return g_samples[static_cast<unsigned>(l)].load(
        std::memory_order_relaxed);
}

double
sampledCpuSeconds()
{
    return static_cast<double>(g_cpuNs.load(std::memory_order_relaxed)) /
           1e9;
}

LayerSampler::LayerSampler()
{
    sigevent sev = {};
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = SIGPROF;
    // glibc before 2.35 has no sigev_notify_thread_id alias.
    sev._sigev_un._tid = static_cast<pid_t>(syscall(SYS_gettid));
    if (timer_create(CLOCK_THREAD_CPUTIME_ID, &sev, &_timer) != 0)
        throw std::system_error(errno, std::generic_category(),
                                "timer_create");
    itimerspec its = {};
    its.it_interval.tv_nsec = static_cast<long>(kSamplePeriodS * 1e9);
    its.it_value = its.it_interval;
    if (timer_settime(_timer, 0, &its, nullptr) != 0) {
        const int err = errno;
        timer_delete(_timer);
        throw std::system_error(err, std::generic_category(),
                                "timer_settime");
    }
    _cpuStartNs = threadCpuNs();
}

LayerSampler::~LayerSampler()
{
    timer_delete(_timer);
    g_cpuNs.fetch_add(threadCpuNs() - _cpuStartNs,
                      std::memory_order_relaxed);
}

} // namespace uhtm::obs
