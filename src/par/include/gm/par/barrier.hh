/**
 * @file
 * Reusable barriers for SPMD-style kernels (delta-stepping, label
 * propagation rounds) that run one closure per lane and synchronize
 * between phases.
 *
 * Two implementations with the same interface:
 *  - Barrier: mutex/condvar; lanes sleep while waiting.  Right for long
 *    phases or oversubscribed machines.
 *  - SpinBarrier: sense-reversing atomic barrier; lanes spin (with yield)
 *    on a generation word.  Right for the short inner rounds of iterative
 *    kernels where a futex sleep/wake costs more than the phase itself.
 *
 * Size a barrier by ThreadPool::current_width() (or the lane count that
 * parallel_lanes passes to its callback): that is exactly the number of
 * lanes the next region runs.
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

namespace gm::par
{

/** Reusable generation-counting barrier (sleeping). */
class Barrier
{
  public:
    /** @param parties Number of lanes that must arrive before release. */
    explicit Barrier(int parties) : parties_(parties) {}

    /** Block until all parties have arrived at this generation. */
    void
    wait()
    {
        if (parties_ <= 1)
            return;
        std::unique_lock<std::mutex> lock(mutex_);
        const std::uint64_t my_generation = generation_;
        if (++waiting_ == parties_) {
            waiting_ = 0;
            ++generation_;
            cv_.notify_all();
            return;
        }
        cv_.wait(lock, [&] { return generation_ != my_generation; });
    }

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    const int parties_;
    int waiting_ = 0;
    std::uint64_t generation_ = 0;
};

/**
 * Reusable sense-reversing barrier (spinning).
 *
 * The last lane to arrive resets the arrival count and bumps the
 * generation (release); everyone else spins on the generation (acquire),
 * yielding between probes so oversubscribed runs still make progress.
 * Reversal is encoded in the generation counter itself, so the barrier is
 * immediately reusable for the next phase.
 */
class SpinBarrier
{
  public:
    /** @param parties Number of lanes that must arrive before release. */
    explicit SpinBarrier(int parties) : parties_(parties) {}

    /** Block (spin) until all parties have arrived at this generation. */
    void
    wait()
    {
        if (parties_ <= 1)
            return;
        const std::uint64_t my_generation =
            generation_.load(std::memory_order_relaxed);
        if (arrived_.fetch_add(1, std::memory_order_acq_rel) ==
            parties_ - 1) {
            arrived_.store(0, std::memory_order_relaxed);
            generation_.store(my_generation + 1,
                              std::memory_order_release);
            return;
        }
        while (generation_.load(std::memory_order_acquire) ==
               my_generation) {
            std::this_thread::yield();
        }
    }

  private:
    const int parties_;
    std::atomic<int> arrived_{0};
    std::atomic<std::uint64_t> generation_{0};
};

} // namespace gm::par
