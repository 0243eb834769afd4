#include "sampler.hh"

#include <csignal>
#include <link.h>
#include <sys/syscall.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cerrno>
#include <system_error>

namespace perfbench
{

namespace
{

/** 2^20 samples = 17 minutes of CPU time at 1 kHz: more than 4 threads
 *  can use before run.py's driver timeout. Later samples are dropped. */
constexpr std::size_t kCapacity = std::size_t(1) << 20;

std::uintptr_t *g_pcs = nullptr;
std::atomic<std::size_t> g_next{0};

void
onProf(int, siginfo_t *, void *uc)
{
    const auto *ctx = static_cast<const ucontext_t *>(uc);
#if defined(__x86_64__)
    const auto pc =
        static_cast<std::uintptr_t>(ctx->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    const auto pc = static_cast<std::uintptr_t>(ctx->uc_mcontext.pc);
#else
#error "the sampler reads the PC on x86_64 and aarch64 only"
#endif
    const std::size_t i = g_next.fetch_add(1, std::memory_order_relaxed);
    if (i < kCapacity)
        g_pcs[i] = pc;
}

/** Load bias and executable address range of the main program. */
struct ExeRange
{
    std::uintptr_t bias = 0;
    std::uintptr_t lo = UINTPTR_MAX;
    std::uintptr_t hi = 0;
};

int
findExe(dl_phdr_info *info, std::size_t, void *data)
{
    // The first object dl_iterate_phdr reports is the main program.
    auto *r = static_cast<ExeRange *>(data);
    r->bias = info->dlpi_addr;
    for (int i = 0; i < info->dlpi_phnum; ++i) {
        const ElfW(Phdr) &ph = info->dlpi_phdr[i];
        if (ph.p_type != PT_LOAD || !(ph.p_flags & PF_X))
            continue;
        const std::uintptr_t lo = info->dlpi_addr + ph.p_vaddr;
        r->lo = std::min(r->lo, lo);
        r->hi = std::max(r->hi, lo + ph.p_memsz);
    }
    return 1;
}

} // namespace

void
installSampler()
{
    g_pcs = new std::uintptr_t[kCapacity];
    struct sigaction sa = {};
    sa.sa_sigaction = onProf;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, nullptr) != 0)
        throw std::system_error(errno, std::generic_category(),
                                "sigaction(SIGPROF)");
}

ThreadSampler::ThreadSampler(bool on)
{
    if (!on)
        return;
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
    _armed = true;
}

ThreadSampler::~ThreadSampler()
{
    if (_armed)
        timer_delete(_timer);
}

SampleSet
collectSamples()
{
    ExeRange exe;
    dl_iterate_phdr(findExe, &exe);
    SampleSet out;
    const std::size_t n =
        std::min(g_next.load(std::memory_order_relaxed), kCapacity);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uintptr_t pc = g_pcs[i];
        if (pc >= exe.lo && pc < exe.hi)
            ++out.exeOffsets[pc - exe.bias];
        else
            ++out.outside;
    }
    return out;
}

} // namespace perfbench
