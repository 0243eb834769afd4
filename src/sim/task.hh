/**
 * @file
 * Coroutine plumbing for execution-driven simulation.
 *
 * Each simulated core runs its workload as a C++20 coroutine. Memory
 * operations co_await the memory hierarchy: the coroutine suspends, the
 * hierarchy schedules timed events, and the completion event resumes the
 * coroutine. This yields cycle-interleaved multicore execution on a
 * single host thread with fully deterministic ordering.
 */

#ifndef UHTM_SIM_TASK_HH
#define UHTM_SIM_TASK_HH

#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>

#include "obs/self_profile.hh"
#include "sim/arena.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace uhtm
{

/**
 * A fire-and-forget coroutine task owned by its creator.
 *
 * The coroutine starts suspended; call start() to begin execution.
 * After the body finishes it suspends at the final suspend point so the
 * owner can observe done() before the frame is destroyed (by ~Task).
 * Unhandled exceptions escaping a task body are a programming error and
 * terminate the simulation; workloads catch transactional aborts
 * themselves inside their retry loops.
 */
class Task
{
  public:
    struct promise_type
    {
        bool finished = false;

        /** Frames come from the job arena while a scope is active. */
        static void *operator new(std::size_t n) { return arenaNew(n); }
        static void operator delete(void *p) noexcept { arenaDelete(p); }

        Task
        get_return_object()
        {
            return Task{
                std::coroutine_handle<promise_type>::from_promise(*this)};
        }

        std::suspend_always initial_suspend() noexcept { return {}; }

        std::suspend_always
        final_suspend() noexcept
        {
            finished = true;
            return {};
        }

        void return_void() {}
        void unhandled_exception() { std::terminate(); }
    };

    using Handle = std::coroutine_handle<promise_type>;

    Task() = default;
    explicit Task(Handle h) : _h(h) {}

    Task(Task &&o) noexcept : _h(std::exchange(o._h, {})) {}

    Task &
    operator=(Task &&o) noexcept
    {
        if (this != &o) {
            destroy();
            _h = std::exchange(o._h, {});
        }
        return *this;
    }

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    ~Task() { destroy(); }

    /** Begin (or resume) execution of the coroutine body. */
    void
    start()
    {
        if (_h && !_h.promise().finished) {
            obs::LayerScope tag(obs::Layer::Workload);
            _h.resume();
        }
    }

    /** True once the coroutine body has run to completion. */
    bool done() const { return !_h || _h.promise().finished; }

    /** True if this Task owns a live coroutine frame. */
    bool valid() const { return static_cast<bool>(_h); }

  private:
    void
    destroy()
    {
        if (_h) {
            _h.destroy();
            _h = {};
        }
    }

    Handle _h;
};

/**
 * Resume a suspended workload coroutine from an event callback, tagging
 * the host time until its next suspension as workload time.
 */
inline void
resumeWorkload(std::coroutine_handle<> h)
{
    obs::LayerScope tag(obs::Layer::Workload);
    h.resume();
}

/**
 * Awaitable that suspends the current coroutine and passes its handle to
 * a scheduler callable, which must arrange for the handle to be resumed
 * exactly once.
 */
template <typename F>
struct SuspendInto
{
    F scheduler;

    bool await_ready() const noexcept { return false; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        scheduler(h);
    }

    void await_resume() const noexcept {}
};

template <typename F>
SuspendInto(F) -> SuspendInto<F>;

/**
 * Awaitable that resumes the coroutine after @p delay ticks of simulated
 * time. Used for compute phases and backoff delays.
 */
inline auto
delayFor(EventQueue &eq, Tick delay)
{
    return SuspendInto{[&eq, delay](std::coroutine_handle<> h) {
        eq.schedule(delay, [h] { resumeWorkload(h); });
    }};
}

} // namespace uhtm

#endif // UHTM_SIM_TASK_HH
