/**
 * @file
 * SweepScheduler: runs a set of independent experiment jobs on the
 * work-stealing pool and returns their results in submission order.
 *
 * Determinism contract: a job's seed is a pure function of the sweep
 * seed and the job key, results are collected positionally, and
 * nothing a job can observe depends on the worker that ran it — so a
 * sweep's output (including the serialized JSON) is byte-identical
 * for `--jobs=1` and `--jobs=N`.
 */

#ifndef UHTM_EXEC_SCHEDULER_HH
#define UHTM_EXEC_SCHEDULER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "exec/job.hh"
#include "exec/thread_pool.hh"

namespace uhtm::exec
{

/** Sweep-wide execution options. */
struct SweepOptions
{
    /** Worker threads; 0 = one per hardware thread. */
    unsigned jobs = 0;
    /** Root seed; every job derives its own from (this, key). */
    std::uint64_t sweepSeed = 42;
};

class SweepScheduler
{
  public:
    explicit SweepScheduler(SweepOptions opts)
        : _opts(opts), _pool(opts.jobs)
    {
    }

    /** Worker threads run() uses for @p jobs jobs: the configured
     *  count, capped at one per job. */
    unsigned workersFor(std::size_t jobs) const
    {
        return _pool.workersFor(jobs);
    }

    /**
     * Seed for the job named @p key under @p sweepSeed: FNV-1a of the
     * key mixed with the sweep seed through SplitMix64. Independent of
     * submission order and thread count.
     */
    static std::uint64_t jobSeed(std::uint64_t sweepSeed,
                                 const std::string &key);

    /**
     * Execute every job and return one JobResult per job, in
     * submission order. A throwing job yields ok=false with the
     * exception message; all other jobs still run.
     *
     * @throws std::invalid_argument if two jobs share a key (keys name
     *         results and determine seeds, so duplicates are bugs).
     */
    std::vector<JobResult> run(const std::vector<Job> &jobs);

  private:
    SweepOptions _opts;
    WorkStealingPool _pool;
};

} // namespace uhtm::exec

#endif // UHTM_EXEC_SCHEDULER_HH
