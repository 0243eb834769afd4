#include "harness/crash_sweep.hh"

#include <algorithm>
#include <memory>
#include <set>

#include "workloads/btree.hh"

namespace uhtm
{

namespace
{

/**
 * One instrumented run of a JobSpec: its Runner with the FaultInjector
 * and CrashOracle attached before the populate step, as in every
 * crash sweep and replay.
 */
struct InstrumentedRun
{
    const JobSpec &spec;
    const std::uint64_t seed;
    Runner runner;
    FaultInjector fi;
    CrashOracle oracle;

    InstrumentedRun(const JobSpec &s, const CrashSweepConfig &cfg)
        : spec(s), seed(cfg.seed), runner(s.machine, s.policy, cfg.seed),
          fi(runner.eventQueue()), oracle(runner.system())
    {
        runner.system().setBreakCommitMarkOrdering(
            cfg.breakCommitMarkOrdering);
        fi.setOracle(&oracle);
        runner.system().setFaultInjector(&fi);
    }

    InstrumentedRun(const InstrumentedRun &) = delete;
    InstrumentedRun &operator=(const InstrumentedRun &) = delete;

    ~InstrumentedRun()
    {
        runner.system().setFaultInjector(nullptr);
        runner.eventQueue().clearStop();
    }

    /** Populate and run to the end, or to the armed crash. */
    void
    run()
    {
        spec.populate(runner, seed);
        runner.run();
    }

    /** Full oracle check now, recorded against crash point @p k. */
    CrashSweepResult
    check(std::uint64_t k)
    {
        oracle.checkCrashAt(runner.eventQueue().now(), true, k);

        CrashSweepResult res;
        res.points = fi.pointCount();
        res.checks = oracle.checksRun();
        res.linesTracked = oracle.linesTracked();
        res.pointsByKind.assign(
            static_cast<std::size_t>(PersistPoint::UndoCopyBack) + 1, 0);
        for (const auto &e : fi.events())
            ++res.pointsByKind[static_cast<std::size_t>(e.point)];
        res.violations = oracle.violations();
        return res;
    }
};

} // namespace

CrashSweepResult
CrashSweepRunner::sweep()
{
    InstrumentedRun rig(_spec, _cfg);
    EventQueue &eq = rig.runner.eventQueue();
    CrashOracle *op = &rig.oracle;
    const std::uint64_t stride =
        std::max<std::uint64_t>(1, _cfg.fullImageStride);
    rig.fi.setOnPoint([&eq, op, stride](const PersistEvent &ev,
                                        const std::uint8_t *) {
        const bool full = ev.index % stride == 0;
        eq.scheduleAt(ev.completeAt, [&eq, op, ev, full] {
            op->checkCrashAt(eq.now(), full, ev.index);
        });
    });

    rig.run();
    // Post-run check: with the machine quiesced, recovery must produce
    // exactly the committed state.
    CrashSweepResult res = rig.check(CrashOracle::kNoPoint);
    res.schedule = rig.fi.events();
    return res;
}

CrashSweepResult
CrashSweepRunner::replay(std::uint64_t k)
{
    InstrumentedRun rig(_spec, _cfg);
    rig.fi.armCrashAt(k);
    rig.run();
    // When the schedule is shorter than k nothing crashed and the run
    // finished normally; its final state is validated anyway.
    const bool crashed = rig.fi.crashed();
    CrashSweepResult res = rig.check(crashed ? k : CrashOracle::kNoPoint);
    res.crashed = crashed;
    if (crashed)
        res.crashTick = rig.fi.crashTick();
    return res;
}

std::uint64_t
CrashSweepRunner::shrink(const CrashSweepResult &failed)
{
    std::set<std::uint64_t> candidates;
    for (const auto &v : failed.violations)
        if (v.pointIndex != CrashOracle::kNoPoint)
            candidates.insert(v.pointIndex);
    for (std::uint64_t k : candidates) {
        const CrashSweepResult rep = replay(k);
        if (!rep.passed())
            return k;
    }
    return CrashOracle::kNoPoint;
}

namespace
{

/** The canned jobs' machine and policy. */
JobSpec
cannedJob(std::string key,
          std::function<void(Runner &, std::uint64_t)> populate)
{
    return {std::move(key), {}, MachineConfig::tiny(),
            HtmPolicy::uhtmOpt(1024), std::move(populate)};
}

} // namespace

JobSpec
CrashSweepRunner::kvHybridJob(unsigned workers, std::uint64_t tx_per_worker)
{
    HybridKvParams p;
    p.footprintBytes = KiB(4);
    p.valueBytes = 512;
    p.txPerWorker = tx_per_worker;
    p.keyspace = 1u << 12;
    p.prefillKeys = 128;
    p.updateFraction = 0.75;
    p.seed = 7;
    return cannedJob("kv_hybrid", [p, workers](Runner &r, std::uint64_t) {
        populateHybridIndex(r, p, workers);
    });
}

namespace
{

CoTask<void>
btreeInsertWorker(std::shared_ptr<SimBTree> tree,
                  std::shared_ptr<std::vector<TxAllocator>> allocs,
                  unsigned idx, std::uint64_t txs, std::uint64_t seed,
                  TxContext &ctx)
{
    Rng rng(seed * 2654435761ull + idx);
    TxAllocator &alloc = (*allocs)[idx];
    for (std::uint64_t i = 0; i < txs; ++i) {
        // A few inserts per transaction; key ranges overlap across
        // workers so conflicts (and aborts) are exercised too.
        std::uint64_t keys[3];
        for (auto &k : keys)
            k = 1 + rng.below(1u << 10);
        const std::uint64_t val =
            (static_cast<std::uint64_t>(idx + 1) << 32) | (i + 1);
        co_await ctx.run([&](TxContext &c) -> CoTask<void> {
            for (auto k : keys)
                co_await tree->insert(c, alloc, k, val);
        });
    }
}

} // namespace

JobSpec
CrashSweepRunner::btreeJob(unsigned workers, std::uint64_t tx_per_worker)
{
    return cannedJob("btree", [workers, tx_per_worker](Runner &r,
                                                       std::uint64_t) {
        auto tree = std::make_shared<SimBTree>(r.system(), r.regions(),
                                               MemKind::Nvm);
        auto allocs = std::make_shared<std::vector<TxAllocator>>();
        for (unsigned i = 0; i < workers; ++i) {
            allocs->emplace_back(r.system(), r.regions(), MemKind::Nvm,
                                 MiB(1));
        }
        const DomainId d = r.addDomain("btree");
        for (unsigned i = 0; i < workers; ++i) {
            r.addWorker(d,
                        [tree, allocs, i, tx_per_worker](TxContext &ctx) {
                            return btreeInsertWorker(tree, allocs, i,
                                                     tx_per_worker, 11,
                                                     ctx);
                        });
        }
    });
}

} // namespace uhtm
