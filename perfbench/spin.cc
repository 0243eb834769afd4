// The sampler self-test expects samples taken in spinFor() to be
// attributed to this file, so spinFor() must stay in its own file.
#include <chrono>

#include "sampler.hh"

namespace perfbench
{

__attribute__((noinline)) std::uint64_t
spinFor(double seconds)
{
    const auto end = std::chrono::steady_clock::now() +
                     std::chrono::duration<double>(seconds);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    do {
        // Check the clock rarely so that almost every sample lands in
        // this loop rather than in the vdso.
        for (int i = 0; i < (1 << 20); ++i)
            x = x * 6364136223846793005ull + 1442695040888963407ull;
    } while (std::chrono::steady_clock::now() < end);
    return x;
}

} // namespace perfbench
