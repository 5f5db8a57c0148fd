/**
 * @file
 * Galois-style concurrent worklists: a per-lane insertion bag and an
 * asynchronous chunked-FIFO executor.
 *
 * The paper attributes Galois' wins on high-diameter graphs to exactly this
 * machinery: "concurrent sparse worklists [that] enable Galois to support
 * asynchronous data-driven algorithms, which ... do not have a notion of
 * rounds".  for_each_async() is that execution model: threads pull chunks of
 * active items, apply the operator, and push newly activated items back,
 * with no level barriers; termination is detected when every lane is idle
 * and the shared list is empty.
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <vector>

#include "gm/obs/trace.hh"
#include "gm/par/barrier.hh"
#include "gm/par/parallel_for.hh"
#include "gm/support/fault_injector.hh"
#include "gm/support/watchdog.hh"

namespace gm::galoislite
{

/** Per-lane insertion bag (Galois InsertBag): unordered concurrent append,
 *  then a bulk snapshot.  Sized for the lanes of the lease it is built
 *  under, so build it where it is used. */
template <typename T>
class InsertBag
{
  public:
    InsertBag()
        : lanes_(static_cast<std::size_t>(par::ThreadPool::current_width()))
    {
    }

    /** Append from lane @p lane (no locking; lanes are disjoint). */
    void
    push(int lane, const T& value)
    {
        lanes_[static_cast<std::size_t>(lane)].push_back(value);
    }

    /** Total element count. */
    std::size_t
    size() const
    {
        std::size_t total = 0;
        for (const auto& lane : lanes_)
            total += lane.size();
        return total;
    }

    /** Concatenate all lanes into one vector and clear the bag. */
    std::vector<T>
    take_all()
    {
        std::vector<T> all;
        all.reserve(size());
        for (auto& lane : lanes_) {
            all.insert(all.end(), lane.begin(), lane.end());
            lane.clear();
        }
        return all;
    }

    /** Drop all contents. */
    void
    clear()
    {
        for (auto& lane : lanes_)
            lane.clear();
    }

  private:
    std::vector<std::vector<T>> lanes_;
};

/** Handed to asynchronous operators so they can activate more items. */
template <typename T>
class AsyncContext
{
  public:
    AsyncContext(std::vector<T>& out, std::size_t flush_threshold,
                 std::mutex& mutex, std::deque<std::vector<T>>& shared,
                 std::condition_variable& cv,
                 std::uint64_t* push_tally = nullptr)
        : out_(out),
          flush_threshold_(flush_threshold),
          mutex_(mutex),
          shared_(shared),
          cv_(cv),
          push_tally_(push_tally)
    {
    }

    /** Activate @p item; it will be processed by some lane eventually. */
    void
    push(const T& item)
    {
        if (push_tally_ != nullptr)
            ++*push_tally_;
        out_.push_back(item);
        if (out_.size() >= flush_threshold_)
            flush();
    }

    /** Publish buffered activations to the shared worklist. */
    void
    flush()
    {
        if (out_.empty())
            return;
        std::vector<T> batch;
        batch.swap(out_);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            shared_.push_back(std::move(batch));
        }
        cv_.notify_one();
    }

  private:
    std::vector<T>& out_;
    std::size_t flush_threshold_;
    std::mutex& mutex_;
    std::deque<std::vector<T>>& shared_;
    std::condition_variable& cv_;
    std::uint64_t* push_tally_;
};

/**
 * Asynchronous data-driven executor: apply @p op to every item, where the
 * operator may activate further items through the context.  No rounds, no
 * barriers; ends when the worklist is globally empty and all lanes idle.
 *
 * @param op Callable op(const T& item, AsyncContext<T>& ctx).
 */
template <typename T, typename Op>
void
for_each_async(std::vector<T> initial, Op op, std::size_t chunk_size = 64)
{
    // Fault-injection site for worklist operations (serial entry; the
    // in-lane polls below must not throw across the pool boundary).
    support::FaultInjector::global().at("worklist");

    std::mutex mutex;
    std::condition_variable cv;
    std::deque<std::vector<T>> shared;
    int idle = 0;
    bool done = false;
    // 0 = running, 1 = cancelled by watchdog, 2 = injected fault.
    std::atomic<int> abort_reason{0};

    // Seed the shared list in chunk_size pieces so all lanes start busy.
    for (std::size_t lo = 0; lo < initial.size(); lo += chunk_size) {
        const std::size_t hi = std::min(initial.size(), lo + chunk_size);
        shared.emplace_back(initial.begin() + static_cast<std::ptrdiff_t>(lo),
                            initial.begin() + static_cast<std::ptrdiff_t>(hi));
    }

    par::parallel_lanes([&](int, int lanes) {
        // Idle-termination counts against the lane count of this region
        // (the parallel_lanes callback argument).  Per-lane workload
        // tallies, flushed into the trace session (if any) when the lane
        // exits — including the early-return abort paths, hence the RAII
        // guard.
        struct Tally
        {
            std::uint64_t pushes = 0;
            std::uint64_t pops = 0;

            ~Tally()
            {
                obs::counter_add("worklist.pushes", pushes);
                obs::counter_add("worklist.pops", pops);
            }
        } tally;
        std::vector<T> local;
        std::vector<T> out;
        AsyncContext<T> ctx(out, chunk_size, mutex, shared, cv,
                            &tally.pushes);
        auto abort_with = [&](int reason) {
            abort_reason.store(reason, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(mutex);
            done = true;
            cv.notify_all();
        };
        for (;;) {
            if (abort_reason.load(std::memory_order_relaxed) != 0)
                return;
            if (support::cancel_requested()) {
                abort_with(1);
                return;
            }
            if (support::FaultInjector::global().poll("worklist")) {
                abort_with(2);
                return;
            }
            if (local.empty()) {
                // Prefer own freshly produced work for locality.
                if (!out.empty()) {
                    local.swap(out);
                } else {
                    std::unique_lock<std::mutex> lock(mutex);
                    if (!shared.empty()) {
                        local = std::move(shared.front());
                        shared.pop_front();
                    } else {
                        ++idle;
                        if (idle == lanes) {
                            done = true;
                            cv.notify_all();
                            return;
                        }
                        cv.wait(lock,
                                [&] { return done || !shared.empty(); });
                        if (done &&
                            (shared.empty() ||
                             abort_reason.load(std::memory_order_relaxed) !=
                                 0)) {
                            return;
                        }
                        --idle;
                        if (!shared.empty()) {
                            local = std::move(shared.front());
                            shared.pop_front();
                        }
                        continue;
                    }
                }
            }
            tally.pops += local.size();
            for (const T& item : local)
                op(item, ctx);
            local.clear();
        }
    });

    // Re-raise the abort on the serial caller so the kernel unwinds.
    switch (abort_reason.load(std::memory_order_relaxed)) {
      case 1:
        throw support::CancelledError("worklist cancelled by watchdog");
      case 2:
        throw support::FaultInjectedError(
            "injected fault at site 'worklist'");
      default:
        break;
    }
}

} // namespace gm::galoislite
