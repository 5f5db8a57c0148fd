#include "gm/par/thread_pool.hh"

#include "gm/obs/trace.hh"
#include "gm/support/env.hh"
#include "gm/support/log.hh"
#include "gm/support/timer.hh"
#include "gm/support/watchdog.hh"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace gm::par
{

namespace
{

thread_local bool tls_in_parallel = false;
thread_local LaneLease* tls_lease = nullptr;

/**
 * Execute @p job on @p lane under the session generation @p job_gen that
 * the submitting thread observed.  Carrying the generation through the
 * pool (instead of letting lanes read the global) means a lane still
 * unwinding from a watchdog-abandoned trial keeps writing under its dead
 * generation and can never pollute the next trial's session.  When a
 * session is active, each lane's execution is recorded as a "par.lane"
 * span plus its busy nanoseconds, from which the suite and gm::serve
 * derive parallel efficiency.
 */
void
run_lane(FunctionRef<void(int)> job, int lane, std::uint64_t job_gen)
{
    obs::SessionBinding bind(job_gen);
    if (job_gen == 0) {
        job(lane);
        return;
    }
    obs::ScopedSpan span("par.lane");
    const std::int64_t begin_ns = Timer::now_ns();
    job(lane);
    obs::counter_add(
        "par.busy_ns",
        static_cast<std::uint64_t>(Timer::now_ns() - begin_ns));
}

/** Pin the calling thread to @p cpu modulo the online-CPU count. */
void
pin_to_cpu(int cpu)
{
#ifdef __linux__
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<unsigned>(cpu) % hw, &set);
    pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
    (void)cpu;
#endif
}

} // namespace

ThreadPool::ThreadPool(int num_threads)
{
    num_threads_ = num_threads < 1 ? 1 : num_threads;
    pin_threads_ = env_int("GM_PIN_THREADS", 0) != 0;
    const int worker_count = num_threads_ - 1;
    assignment_.assign(static_cast<std::size_t>(worker_count), nullptr);
    lane_id_.assign(static_cast<std::size_t>(worker_count), 0);
    free_.reserve(static_cast<std::size_t>(worker_count));
    workers_.reserve(static_cast<std::size_t>(worker_count));
    for (int slot = 0; slot < worker_count; ++slot) {
        free_.push_back(slot);
        workers_.emplace_back([this, slot] { worker_loop(slot); });
    }
    if (pin_threads_) {
        // Pin the constructing thread to core 0.  This placement is only
        // meaningful for single-client measurement runs (suite, bench),
        // where the first-touch thread is the one that submits every job
        // and so really is lane 0 of every lease; under concurrent lane
        // leasing (gm::serve) lease owners are arbitrary threads and only
        // the worker lanes below keep a topology-stable pin.
        pin_to_cpu(0);
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    start_cv_.notify_all();
    for (auto& worker : workers_)
        worker.join();
}

ThreadPool&
ThreadPool::instance()
{
    static ThreadPool pool(pool_lanes());
    return pool;
}

bool
ThreadPool::in_parallel_region()
{
    return tls_in_parallel;
}

int
ThreadPool::current_width()
{
    if (tls_in_parallel || tls_lease == nullptr)
        return 1;
    return tls_lease->width();
}

LaneLease*
LaneLease::current()
{
    return tls_lease;
}

LaneLease::LaneLease(int width)
{
    // Inside a lane or an enclosing lease: adopt the context instead of
    // acquiring (run() consults the innermost owner).
    if (tls_in_parallel) {
        adopted_ = true;
        width_ = 1;
        return;
    }
    if (tls_lease != nullptr) {
        adopted_ = true;
        width_ = tls_lease->width();
        return;
    }
    ThreadPool& pool = ThreadPool::instance();
    if (width > pool.num_threads())
        width = pool.num_threads();
    if (width < 1)
        width = 1;
    state_.lanes_held = pool.acquire_workers(width - 1, &state_);
    state_.width = 1 + state_.lanes_held;
    width_ = state_.width;
    tls_lease = this;
}

LaneLease::~LaneLease()
{
    if (adopted_)
        return;
    tls_lease = nullptr;
    if (state_.lanes_held == 0)
        return;
    {
        std::lock_guard<std::mutex> lock(state_.mu);
        state_.released = true;
    }
    state_.cv.notify_all();
    // Wait until every worker has fully detached (and re-queued itself as
    // free) before the state goes out of scope.  The handshake runs on
    // the pool's own mutex/cv: a worker's final act is an increment and
    // notify under pool.mutex_, so once the predicate holds — observable
    // only after that worker released pool.mutex_ — no worker touches
    // state_ (or any lease memory) again, and it can safely be destroyed.
    ThreadPool& pool = ThreadPool::instance();
    std::unique_lock<std::mutex> lock(pool.mutex_);
    pool.detach_cv_.wait(
        lock, [this] { return state_.returned == state_.lanes_held; });
}

int
ThreadPool::acquire_workers(int want, detail::LeaseState* state)
{
    if (want <= 0)
        return 0;
    int got = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        while (got < want && !free_.empty()) {
            const int slot = free_.back();
            free_.pop_back();
            assignment_[static_cast<std::size_t>(slot)] = state;
            lane_id_[static_cast<std::size_t>(slot)] = 1 + got;
            ++got;
        }
    }
    if (got > 0)
        start_cv_.notify_all();
    return got;
}

int
ThreadPool::run(FunctionRef<void(int)> job)
{
    if (tls_in_parallel) {
        // Nested parallelism degrades to serial execution on this thread;
        // its time is already inside the outer lane's busy span.
        job(0);
        return 1;
    }
    const std::uint64_t job_gen = obs::current_session_gen();
    const int width = current_width();
    if (job_gen != 0)
        obs::counter_max("par.lanes", static_cast<std::uint64_t>(width));
    if (width == 1) {
        tls_in_parallel = true;
        try {
            run_lane(job, 0, job_gen);
        } catch (...) {
            tls_in_parallel = false;
            throw;
        }
        tls_in_parallel = false;
        return 1;
    }

    detail::LeaseState& state = tls_lease->state_;
    {
        std::lock_guard<std::mutex> lock(state.mu);
        state.job = job;
        state.cancel = support::current_cancel_token();
        state.obs_gen = job_gen;
        state.pending = width - 1;
        ++state.job_seq;
    }
    state.cv.notify_all();

    tls_in_parallel = true;
    try {
        run_lane(job, 0, job_gen);
    } catch (...) {
        // Join the lanes before unwinding: they reference the job.
        tls_in_parallel = false;
        std::unique_lock<std::mutex> lock(state.mu);
        state.done_cv.wait(lock, [&state] { return state.pending == 0; });
        throw;
    }
    tls_in_parallel = false;

    std::unique_lock<std::mutex> lock(state.mu);
    state.done_cv.wait(lock, [&state] { return state.pending == 0; });
    return width;
}

void
ThreadPool::serve_lease(detail::LeaseState& state, int lane)
{
    std::uint64_t seen_seq = 0;
    std::unique_lock<std::mutex> lock(state.mu);
    for (;;) {
        state.cv.wait(lock, [&] {
            return state.released || state.job_seq != seen_seq;
        });
        if (state.released)
            return;
        seen_seq = state.job_seq;
        const FunctionRef<void(int)> job = state.job;
        const support::CancelToken* cancel = state.cancel;
        const std::uint64_t job_gen = state.obs_gen;
        lock.unlock();
        {
            support::ScopedCancelToken scope(cancel);
            tls_in_parallel = true;
            run_lane(job, lane, job_gen);
            tls_in_parallel = false;
        }
        lock.lock();
        if (--state.pending == 0)
            state.done_cv.notify_all();
    }
}

void
ThreadPool::worker_loop(int slot)
{
    if (pin_threads_)
        pin_to_cpu(slot + 1);
    for (;;) {
        detail::LeaseState* state = nullptr;
        int lane = 0;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            start_cv_.wait(lock, [&] {
                return shutdown_ ||
                       assignment_[static_cast<std::size_t>(slot)] !=
                           nullptr;
            });
            if (shutdown_)
                return;
            state = assignment_[static_cast<std::size_t>(slot)];
            lane = lane_id_[static_cast<std::size_t>(slot)];
        }
        serve_lease(*state, lane);
        {
            // Re-queue as free and tell the releasing owner this lane is
            // fully detached, in one pool-lock critical section.  The
            // increment and notify deliberately use the pool's mutex/cv,
            // not the lease's: ~LaneLease destroys the LeaseState as soon
            // as it observes returned == lanes_held, and it cannot observe
            // that until this lock is released — after which this thread
            // never touches the state again.  (Notifying through
            // lease-owned state after the final increment would race that
            // destruction: the notify itself touches the state.)
            std::lock_guard<std::mutex> lock(mutex_);
            assignment_[static_cast<std::size_t>(slot)] = nullptr;
            free_.push_back(slot);
            ++state->returned;
            detach_cv_.notify_all();
        }
    }
}

} // namespace gm::par
