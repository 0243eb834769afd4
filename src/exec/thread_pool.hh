/**
 * @file
 * Work-stealing thread pool for whole-simulation jobs.
 *
 * The pool executes a fixed batch of indexed tasks: indices are dealt
 * round-robin onto per-worker deques, each worker drains its own deque
 * from the front and steals from the back of the busiest victim when
 * it runs dry. Because no task spawns further tasks, a worker that
 * finds every deque empty can exit immediately — there is no idle
 * wait, no condition variable and no shutdown protocol.
 *
 * Simulation jobs differ in length by an order of magnitude (a 4-core
 * echo run vs an 18-core consolidation), so stealing — rather than a
 * static partition — is what keeps all cores busy to the end of a
 * sweep.
 */

#ifndef UHTM_EXEC_THREAD_POOL_HH
#define UHTM_EXEC_THREAD_POOL_HH

#include <algorithm>
#include <cstddef>
#include <functional>

namespace uhtm::exec
{

/**
 * Resolve a `--jobs` request to a worker count: 0 means "one per
 * hardware thread" (at least 1).
 */
unsigned resolveThreadCount(unsigned requested);

/** Fixed-batch work-stealing executor. */
class WorkStealingPool
{
  public:
    /** @param threads worker count; 0 resolves to hw concurrency. */
    explicit WorkStealingPool(unsigned threads)
        : _threads(resolveThreadCount(threads))
    {
    }

    unsigned threads() const { return _threads; }

    /** Workers runAll() runs for @p n tasks: min(threads(), n). */
    unsigned
    workersFor(std::size_t n) const
    {
        return static_cast<unsigned>(std::min<std::size_t>(_threads, n));
    }

    /**
     * Invoke @p fn(i) exactly once for every i in [0, n). Blocks until
     * all invocations returned. With one worker (or one task) the
     * batch runs inline on the calling thread — no threads are
     * spawned, which keeps `--jobs=1` byte-identical *and*
     * sanitizer-quiet by construction.
     *
     * @p fn must not throw (callers wrap their work in try/catch and
     * record failures in their own result slots).
     */
    void runAll(std::size_t n, const std::function<void(std::size_t)> &fn);

  private:
    unsigned _threads;
};

} // namespace uhtm::exec

#endif // UHTM_EXEC_THREAD_POOL_HH
