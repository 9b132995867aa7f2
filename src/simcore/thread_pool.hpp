/**
 * @file
 * Fixed-size worker pool with a deterministic fork-join parallelFor.
 *
 * Design rules, in priority order:
 *
 *  1. Determinism. The shard structure of a parallelFor — how many shards
 *     and which [begin, end) range each covers — is a pure function of the
 *     item count and the grain, never of the thread count or of runtime
 *     timing. Callers that accumulate per-shard results and reduce them in
 *     shard index order therefore produce identical bytes at any
 *     --threads value. Which OS thread executes which shard IS
 *     timing-dependent (workers pull shard indices from an atomic
 *     counter), so shard bodies must key everything on the shard index,
 *     nothing on the executing thread.
 *
 *  2. Fork-join only. parallelFor blocks until every shard has finished;
 *     there is no fire-and-forget path. The completion wait establishes a
 *     happens-before edge from every shard body to the caller, so the
 *     caller may read all shard outputs without further synchronisation.
 *
 *  3. The caller participates. A pool of N threads runs N-1 workers; the
 *     calling thread drains shards alongside them, so ThreadPool(1) has
 *     zero worker threads and parallelFor degenerates to a plain
 *     sequential loop (the exact code path a single-threaded build runs).
 *
 * Nested parallelFor calls from inside a shard body run inline on the
 * calling worker — still correct, still deterministic, no deadlock.
 */

#ifndef VPM_SIMCORE_THREAD_POOL_HPP
#define VPM_SIMCORE_THREAD_POOL_HPP

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace vpm::sim {

class ThreadPool
{
  public:
    /** Shard body: fn(shard_index, begin, end) over [begin, end). */
    using ShardFn =
        std::function<void(std::size_t, std::size_t, std::size_t)>;

    /**
     * @param threads Total concurrency including the calling thread;
     *        clamped to >= 1. ThreadPool(1) spawns no workers.
     */
    explicit ThreadPool(unsigned threads = 1);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total concurrency (workers + the calling thread). */
    unsigned threads() const { return workerCount_ + 1; }

    /**
     * Number of shards a parallelFor over @p n items with @p grain splits
     * into. Depends only on (n, grain) — NOT on the thread count — which
     * is what makes per-shard reductions thread-count-invariant. Returns
     * 0 for n == 0; capped at kMaxShards.
     */
    static std::size_t shardCount(std::size_t n, std::size_t grain);

    /**
     * Half-open range [begin, end) of shard @p shard out of @p shards
     * over @p n items. Equal partition; the first n % shards shards get
     * one extra item.
     */
    static std::pair<std::size_t, std::size_t>
    shardRange(std::size_t n, std::size_t shards, std::size_t shard);

    /**
     * Run @p fn once per shard over [0, n), blocking until all shards
     * complete. Runs inline (sequentially, in shard order) when there is
     * a single shard, no workers, or the caller is itself a pool worker.
     */
    void parallelFor(std::size_t n, std::size_t grain, const ShardFn &fn);

    /**
     * Upper bound on shards per parallelFor, and therefore on the number
     * of per-shard accumulators a caller must preallocate.
     */
    static constexpr std::size_t kMaxShards = 64;

  private:
    struct Job
    {
        ShardFn fn;
        std::size_t n = 0;
        std::size_t shards = 0;
        /** Next shard index to claim (may run past shards; clamped). */
        std::atomic<std::size_t> next{0};
        /** Shards fully executed; completion is completed == shards. */
        std::atomic<std::size_t> completed{0};
        std::mutex doneMutex;
        std::condition_variable doneCv;
    };

    void workerLoop();
    static void runShards(Job &job);
    void runInline(std::size_t n, std::size_t shards, const ShardFn &fn);

    unsigned workerCount_ = 0;
    std::vector<std::thread> workers_;

    /** Guards job_/generation_/stop_; cv_ wakes idle workers. */
    std::mutex mutex_;
    std::condition_variable cv_;
    std::shared_ptr<Job> job_;
    std::uint64_t generation_ = 0;
    bool stop_ = false;
};

/**
 * Process-global thread configuration, mirroring setLogLevel():
 * thread-compatible, not thread-safe — call from the main thread only,
 * never from inside a parallelFor. setGlobalThreads() tears down and
 * rebuilds the global pool when the count changes.
 */
void setGlobalThreads(unsigned threads);
unsigned globalThreads();
ThreadPool &globalPool();

/**
 * Largest value any `--threads` flag accepts (sim::FlagParser::threads).
 * Far above the 1/2/8 the determinism checks use; a typo such as
 * `--threads 100000` is rejected at parse time instead of asking the OS
 * for that many threads.
 */
inline constexpr unsigned kMaxThreads = 256;

} // namespace vpm::sim

#endif // VPM_SIMCORE_THREAD_POOL_HPP
