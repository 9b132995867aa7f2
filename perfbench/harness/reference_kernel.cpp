#include "reference_kernel.hpp"

#include <chrono>
#include <cstdint>
#include <numeric>
#include <queue>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

constexpr std::size_t kCycleLength = std::size_t{1} << 20; // 4 MiB of u32
constexpr int kChaseSteps = 6'000'000;
constexpr int kHeapItems = 600'000;

/** One random cycle through every slot (Sattolo's shuffle, fixed seed). */
std::vector<std::uint32_t>
cycle()
{
    std::vector<std::uint32_t> next(kCycleLength);
    std::iota(next.begin(), next.end(), 0u);
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (std::size_t i = next.size() - 1; i > 0; --i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::swap(next[i], next[x % i]);
    }
    return next;
}

volatile std::uint64_t g_sink = 0;

} // namespace

double
referenceKernelSeconds()
{
    const std::vector<std::uint32_t> next = cycle();
    std::uint32_t p = 0;
    for (std::size_t i = 0; i < kCycleLength; ++i) // warm the cycle
        p = next[p];
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kChaseSteps; ++i)
        p = next[p];
    std::priority_queue<std::uint64_t> heap;
    std::uint64_t x = p;
    std::uint64_t acc = 0;
    for (int i = 0; i < kHeapItems; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        heap.push(x >> 20);
    }
    while (!heap.empty()) {
        acc += heap.top();
        heap.pop();
    }
    const auto t1 = std::chrono::steady_clock::now();
    g_sink = acc;
    return std::chrono::duration<double>(t1 - t0).count();
}

} // namespace perfbench
