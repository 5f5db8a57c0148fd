/**
 * @file
 * Persistent lane-leasing thread pool.
 *
 * This is the single parallel substrate shared by every framework analogue in
 * the repository, standing in for the OpenMP / TBB / cilk runtimes the
 * evaluated frameworks use.  Keeping one substrate is the reproduction of the
 * paper's "same hardware for every framework" control.
 *
 * Model: the pool owns N-1 worker threads ("lanes" 1..N-1; the submitting
 * thread is always lane 0).  Lanes come only from a LaneLease — an RAII
 * grant of K disjoint lanes, held by the thread where a unit of work
 * starts (a suite trial, a served request, a bench case).  A thread
 * holding a lease forks jobs onto exactly its leased lanes, so two threads
 * holding disjoint leases run genuinely in parallel instead of
 * serializing on a global job slot; this is what lets gm::serve execute
 * several multi-lane requests at once.  A thread without a lease, or a
 * thread already inside a pool lane, runs every parallel primitive on
 * itself at width 1, which keeps composed algorithms correct.
 *
 * Determinism contract: nothing above this layer may depend on how many
 * lanes a lease actually granted.  parallel_reduce partitions work on a
 * fixed chunk grid (a function of the iteration count only) and combines
 * in chunk order, and every kernel is written so racy updates converge to
 * order-independent fixpoints — so results are bit-identical at any
 * GM_THREADS and any lease width.
 *
 * Set GM_PIN_THREADS=1 to pin worker lanes to cores round-robin
 * (topology-aware placement for measurement runs).  The thread that
 * constructs the pool is pinned to core 0 as well, which is only
 * meaningful for single-client measurement runs (suite, bench) where one
 * thread submits every job for the life of the process; under concurrent
 * lane leasing (gm::serve) lease owners are arbitrary threads — only the
 * worker lanes keep a topology-stable pin there.
 */
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "gm/par/function_ref.hh"

namespace gm::support
{
class CancelToken;
} // namespace gm::support

namespace gm::par
{

class LaneLease;

namespace detail
{

/** Shared fork-join state of one lease: the owner dispatches jobs into it,
 *  the leased workers execute them until released. */
struct LeaseState
{
    std::mutex mu;
    std::condition_variable cv;      ///< workers wait for jobs / release
    std::condition_variable done_cv; ///< owner waits for joins / returns

    FunctionRef<void(int)> job;
    const support::CancelToken* cancel = nullptr;
    std::uint64_t obs_gen = 0;
    std::uint64_t job_seq = 0; ///< bumped once per dispatched job
    int pending = 0;           ///< lanes still running the current job

    int width = 1;       ///< granted lanes, including the owner's lane 0
    int lanes_held = 0;  ///< pool workers attached (width - 1)
    bool released = false;
    /** Workers fully detached and back in the pool.  Guarded by the
     *  pool's mutex_ (NOT mu): the detach handshake must run entirely on
     *  pool-owned synchronization, because the releasing owner destroys
     *  this state the instant the last detach is observed — a worker
     *  touching lease-owned mu/cv after its increment would race that
     *  destruction. */
    int returned = 0;
};

} // namespace detail

/** Lane-leasing fork-join pool; ThreadPool::instance() is process-wide. */
class ThreadPool
{
  public:
    /** @param num_threads Lane count (at least 1). */
    explicit ThreadPool(int num_threads);

    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Process-wide pool of pool_lanes() lanes. */
    static ThreadPool& instance();

    /** Number of lanes (including the caller's lane). */
    int num_threads() const { return num_threads_; }

    /**
     * Run @p job on the calling thread's lanes and wait for completion.
     *
     * @param job Non-owning callable receiving the lane id in [0, width).
     * @return The width used: current_width() at the call.
     *
     * Under a LaneLease the job runs on exactly the leased lanes.  Without
     * one, or from inside a pool job, it runs once on the calling thread
     * as lane 0.
     */
    int run(FunctionRef<void(int)> job);

    /** True when the calling thread is currently inside a pool job. */
    static bool in_parallel_region();

    /**
     * Width the next run() from this thread will use: the lease width
     * under a LaneLease, and 1 inside a lane or without a lease.  Per-lane
     * state sized by it matches the lanes that run.
     */
    static int current_width();

  private:
    friend class LaneLease;

    void worker_loop(int slot);
    /** Run jobs for @p state on lease lane @p lane until released. */
    void serve_lease(detail::LeaseState& state, int lane);
    /** Assign up to @p want free workers to @p state; returns the count
     *  granted.  Lease lane ids are handed out from 1 upward. */
    int acquire_workers(int want, detail::LeaseState* state);

    int num_threads_;
    bool pin_threads_ = false;
    std::vector<std::thread> workers_;

    std::mutex mutex_; ///< guards free_, assignment_, shutdown_, and
                       ///< every LeaseState::returned
    std::condition_variable start_cv_;
    /** Signals lease detachments to ~LaneLease.  Pool-owned (it outlives
     *  every lease) so workers never notify through lease memory. */
    std::condition_variable detach_cv_;
    std::vector<int> free_;                         ///< free worker slots
    std::vector<detail::LeaseState*> assignment_;   ///< per-slot lease
    std::vector<int> lane_id_;                      ///< per-slot lease lane
    bool shutdown_ = false;
};

/**
 * RAII grant of up to @p width lanes (the constructing thread's lane 0
 * plus up to width-1 pool workers held exclusively until destruction).
 * All parallel primitives called on this thread while the lease is alive
 * execute on exactly these lanes, so concurrent lease holders proceed in
 * parallel on disjoint workers.
 *
 * Acquisition is best-effort: width() reports what was actually granted
 * (at least 1 — the owner always has its own lane).  Results never depend
 * on the granted width (see the determinism contract above), only speed
 * does.  Constructing a lease while one is already active on the thread
 * (or inside a pool lane) adopts the enclosing context instead of
 * acquiring: width() reports the enclosing width and destruction
 * releases nothing.
 */
class LaneLease
{
  public:
    explicit LaneLease(int width);
    ~LaneLease();

    LaneLease(const LaneLease&) = delete;
    LaneLease& operator=(const LaneLease&) = delete;

    /** Lanes this thread's parallel work runs on (1 = serial). */
    int width() const { return width_; }

    /** The calling thread's innermost owned lease, or null. */
    static LaneLease* current();

  private:
    friend class ThreadPool;

    detail::LeaseState state_;
    int width_ = 1;
    bool adopted_ = false;
};

} // namespace gm::par
