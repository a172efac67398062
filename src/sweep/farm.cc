#include "sweep/farm.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"

namespace ct::sweep {

/**
 * One batch in flight: the body shared by its chunks and the
 * completion latch the submitting thread waits on. Lives on the
 * submitter's stack for the duration of forEach().
 */
struct Farm::Job
{
    const std::function<void(std::size_t, int)> *body = nullptr;
    std::size_t remaining = 0; ///< guarded by mu
    std::mutex mu;
    std::condition_variable done;
};

Farm::Farm(FarmOptions options) : opts(options)
{
    if (opts.threads < 0)
        util::fatal("Farm: threads must be >= 0");
    for (int i = 0; i < opts.threads; ++i)
        deques.push_back(std::make_unique<WorkerDeque>());
    for (int i = 0; i < opts.threads; ++i)
        workers.emplace_back([this, i] { workerLoop(i); });
}

Farm::~Farm()
{
    waitPosted();
    stopping.store(true, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(wakeMutex);
    }
    wakeCv.notify_all();
    for (std::thread &w : workers)
        w.join();
}

void
Farm::enqueue(Chunk &&chunk, std::size_t at)
{
    WorkerDeque &dq = *deques[at % deques.size()];
    // Count the chunk before it becomes stealable so a worker's
    // fetch_sub can never transiently wrap the counter below zero.
    pendingItems.fetch_add(1, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(dq.mu);
        dq.chunks.push_back(std::move(chunk));
    }
    {
        std::lock_guard<std::mutex> lock(wakeMutex);
    }
    wakeCv.notify_all();
}

void
Farm::forEach(std::size_t n,
              const std::function<void(std::size_t, int)> &body)
{
    if (n == 0)
        return;
    if (opts.threads == 0) {
        for (std::size_t i = 0; i < n; ++i)
            body(i, 0);
        statCells.fetch_add(n, std::memory_order_relaxed);
        return;
    }

    Job job;
    job.body = &body;
    job.remaining = n;

    std::size_t grain = opts.grain;
    if (grain == 0)
        grain = std::max<std::size_t>(
            1, n / (static_cast<std::size_t>(opts.threads) * 4));
    std::size_t at = nextDeque.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t begin = 0; begin < n; begin += grain) {
        Chunk chunk;
        chunk.job = &job;
        chunk.begin = begin;
        chunk.end = std::min(n, begin + grain);
        enqueue(std::move(chunk), at++);
    }

    std::unique_lock<std::mutex> lock(job.mu);
    job.done.wait(lock, [&] { return job.remaining == 0; });
}

void
Farm::post(std::function<void(int)> task)
{
    if (opts.threads == 0) {
        task(0);
        statPosted.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    postedInFlight.fetch_add(1, std::memory_order_release);
    Chunk chunk;
    chunk.task = std::move(task);
    enqueue(std::move(chunk),
            nextDeque.fetch_add(1, std::memory_order_relaxed));
}

void
Farm::runBatch(std::size_t n,
               const std::function<void(std::size_t, int)> &body)
{
    // Inline mode: post() runs each task immediately on the caller.
    for (std::size_t i = 0; i < n; ++i)
        post([&body, i](int worker) { body(i, worker); });
    if (opts.threads > 0)
        waitPosted();
}

void
Farm::waitPosted()
{
    std::unique_lock<std::mutex> lock(wakeMutex);
    postedCv.wait(lock, [&] {
        return postedInFlight.load(std::memory_order_acquire) == 0;
    });
}

void
Farm::runChunk(Chunk &&chunk, int worker)
{
    statChunks.fetch_add(1, std::memory_order_relaxed);
    if (chunk.job) {
        Job &job = *chunk.job;
        std::size_t count = chunk.end - chunk.begin;
        for (std::size_t i = chunk.begin; i < chunk.end; ++i)
            (*job.body)(i, worker);
        statCells.fetch_add(count, std::memory_order_relaxed);
        {
            // Decrement and notify under job.mu: the submitter can
            // only observe remaining == 0 (and destroy the
            // stack-allocated Job) after this worker has released
            // the mutex, so the latch is never touched after free.
            std::lock_guard<std::mutex> lock(job.mu);
            job.remaining -= count;
            if (job.remaining == 0)
                job.done.notify_all();
        }
        return;
    }
    chunk.task(worker);
    statPosted.fetch_add(1, std::memory_order_relaxed);
    if (postedInFlight.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(wakeMutex);
        postedCv.notify_all();
    }
}

bool
Farm::tryRunOne(int worker)
{
    // Own deque first, newest chunk (LIFO keeps the owner on the
    // range it was just working through).
    {
        WorkerDeque &own = *deques[worker];
        std::unique_lock<std::mutex> lock(own.mu);
        if (!own.chunks.empty()) {
            Chunk chunk = std::move(own.chunks.back());
            own.chunks.pop_back();
            lock.unlock();
            pendingItems.fetch_sub(1, std::memory_order_release);
            runChunk(std::move(chunk), worker);
            return true;
        }
    }
    // Steal: scan the other deques from the oldest end (FIFO), which
    // takes the work farthest from the victim's current locality.
    int n = static_cast<int>(deques.size());
    for (int hop = 1; hop < n; ++hop) {
        WorkerDeque &victim = *deques[(worker + hop) % n];
        std::unique_lock<std::mutex> lock(victim.mu);
        if (victim.chunks.empty())
            continue;
        Chunk chunk = std::move(victim.chunks.front());
        victim.chunks.pop_front();
        lock.unlock();
        pendingItems.fetch_sub(1, std::memory_order_release);
        statSteals.fetch_add(1, std::memory_order_relaxed);
        runChunk(std::move(chunk), worker);
        return true;
    }
    return false;
}

void
Farm::workerLoop(int worker)
{
    for (;;) {
        if (tryRunOne(worker))
            continue;
        std::unique_lock<std::mutex> lock(wakeMutex);
        wakeCv.wait(lock, [&] {
            return stopping.load(std::memory_order_acquire) ||
                   pendingItems.load(std::memory_order_acquire) > 0;
        });
        if (stopping.load(std::memory_order_acquire) &&
            pendingItems.load(std::memory_order_acquire) == 0)
            return;
    }
}

FarmStats
Farm::stats() const
{
    FarmStats s;
    s.cellsRun = statCells.load(std::memory_order_relaxed);
    s.chunks = statChunks.load(std::memory_order_relaxed);
    s.steals = statSteals.load(std::memory_order_relaxed);
    s.posted = statPosted.load(std::memory_order_relaxed);
    return s;
}

bool
parseThreadCount(const char *text, int &threads, std::string &error)
{
    std::string_view digits = text;
    if (util::parseCount(digits, 1, kMaxThreads, threads).empty())
        return true;
    if (!util::isAllDigits(digits))
        error = "thread count must be a decimal integer";
    else if (digits.find_first_not_of('0') == std::string_view::npos)
        error = "thread count must be >= 1 (1 = serial)";
    else
        error = "thread count exceeds the oversubscription cap of " +
                std::to_string(kMaxThreads);
    return false;
}

} // namespace ct::sweep
