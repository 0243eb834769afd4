#include "exec/thread_pool.hh"

#include <algorithm>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

namespace uhtm::exec
{

unsigned
resolveThreadCount(unsigned requested)
{
    if (requested > 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

namespace
{

/** One worker's deque of task indices. */
struct Shard
{
    std::mutex m;
    std::deque<std::size_t> q;

    bool
    popFront(std::size_t &out)
    {
        std::lock_guard<std::mutex> g(m);
        if (q.empty())
            return false;
        out = q.front();
        q.pop_front();
        return true;
    }

    bool
    stealBack(std::size_t &out)
    {
        std::lock_guard<std::mutex> g(m);
        if (q.empty())
            return false;
        out = q.back();
        q.pop_back();
        return true;
    }
};

} // namespace

void
WorkStealingPool::runAll(std::size_t n,
                         const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    const unsigned workers = workersFor(n);
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::vector<Shard> shards(workers);
    for (std::size_t i = 0; i < n; ++i)
        shards[i % workers].q.push_back(i);

    auto workerLoop = [&](unsigned self) {
        std::size_t idx;
        for (;;) {
            if (shards[self].popFront(idx)) {
                fn(idx);
                continue;
            }
            // Own deque dry: steal from the back of another worker.
            bool stole = false;
            for (unsigned off = 1; off < workers; ++off) {
                const unsigned victim = (self + off) % workers;
                if (shards[victim].stealBack(idx)) {
                    stole = true;
                    break;
                }
            }
            if (!stole)
                return; // every deque empty and no task spawns tasks
            fn(idx);
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(workers - 1);
    for (unsigned w = 1; w < workers; ++w)
        threads.emplace_back(workerLoop, w);
    workerLoop(0);
    for (auto &t : threads)
        t.join();
}

} // namespace uhtm::exec
