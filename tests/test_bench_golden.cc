/**
 * @file
 * Golden-JSON determinism gate: every figure's --tiny sweep, serialized
 * exactly the way `uhtm_bench` does it (same seed, same sweep-config
 * echo), must be byte-identical to the goldens committed under
 * bench/golden/tiny/. This pins two properties at once:
 *
 *   - determinism: results do not depend on worker count, container
 *     iteration order, hash seeds or allocator state;
 *   - optimization safety: hot-path rewrites (flat containers, summary
 *     signatures, page memos) must not change any simulated outcome.
 *
 * If a change is *intended* to alter results, regenerate the BENCH
 * goldens with:
 *   ./build/tools/uhtm_bench all --tiny --jobs=4 --seed=42 \
 *       --out=bench/golden/tiny
 *   ./build/tools/uhtm_bench all --quick --jobs=4 --seed=42 \
 *       --out=bench/golden/quick
 * and the METRICS/ANALYSIS sidecars as DESIGN.md §8 describes.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "exec/result_sink.hh"
#include "exec/scheduler.hh"
#include "harness/figures.hh"

#ifndef UHTM_SOURCE_DIR
#error "tests/CMakeLists.txt must define UHTM_SOURCE_DIR"
#endif

namespace uhtm
{
namespace
{

std::string
goldenPath(const std::string &fileName)
{
    return std::string(UHTM_SOURCE_DIR) + "/bench/golden/tiny/" +
           fileName;
}

bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
}

class GoldenFigure : public ::testing::TestWithParam<std::string>
{
};

TEST_P(GoldenFigure, TinyJsonMatchesCommittedGolden)
{
    const figures::Figure *fig = figures::find(GetParam());
    ASSERT_NE(fig, nullptr);

    // Mirror tools/uhtm_bench `--tiny --seed=42` exactly: same opts,
    // same sweep-config echo (bench_cli.cc always emits quick+tiny).
    figures::FigureOpts opts;
    opts.tiny = true;
    opts.seed = 42;
    const auto jobs = fig->makeJobs(opts);
    ASSERT_FALSE(jobs.empty());

    exec::SweepScheduler sched({2, opts.seed});
    const auto results = sched.run(jobs);
    for (const auto &r : results)
        ASSERT_TRUE(r.ok) << r.key << ": " << r.error;

    const exec::ResultSink sink(
        fig->name, opts.seed,
        {{"quick", "false"}, {"tiny", "true"}});
    const std::string json = sink.json(results);

    std::string golden;
    ASSERT_TRUE(readFile(goldenPath(sink.fileName()), &golden))
        << "missing golden " << goldenPath(sink.fileName())
        << " — regenerate with: ./build/tools/uhtm_bench all --tiny "
           "--jobs=4 --seed=42 --out=bench/golden/tiny";

    ASSERT_EQ(json.size(), golden.size())
        << "golden size mismatch for " << fig->name;
    EXPECT_TRUE(json == golden)
        << "byte-level mismatch against " << goldenPath(sink.fileName())
        << " — simulated results changed; if intended, regenerate the "
           "goldens under bench/golden/";
}

std::vector<std::string>
figureNames()
{
    std::vector<std::string> names;
    for (const auto &f : figures::all())
        names.push_back(f.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(Bench, GoldenFigure,
                         ::testing::ValuesIn(figureNames()),
                         [](const auto &info) { return info.param; });

} // namespace
} // namespace uhtm
