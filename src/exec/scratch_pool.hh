/**
 * @file
 * Per-thread free-lists for replay scratch arenas.
 *
 * The delta sweep engine and the service's perturb queries replay
 * thousands of points per worker; each point needs a scratch arena
 * (a sim::ReplayScratch, a duration vector) for a few microseconds. A
 * ScratchPool<T> keeps a small thread-local free-list of
 * default-constructed T's: acquire() pops one (or constructs the
 * first time), the returned Lease hands it back on destruction, and
 * because the recycled object keeps its internal buffers, a steady
 * worker loop allocates nothing on the hot path.
 *
 * Layering: this is a generic container template — exec knows
 * nothing about sim. Callers that pool sim scratch types own the
 * bind() discipline (the scratch contract makes replaying against a
 * foreign-bound scratch a panic, so a recycled arena must be
 * re-bound per template) and the lifetime discipline: an object that
 * caches raw pointers into another object must not outlive it, so
 * keep the pointee's shared_ptr alongside the lease or re-bind on
 * every acquire.
 *
 * Thread contract: the free-list is thread_local. A Lease must be
 * released (destroyed) on the thread that acquired it; leases are
 * move-only and non-copyable. The list is bounded (kMaxFree) so a
 * burst of nested leases cannot pin memory forever — overflow
 * objects are simply destroyed.
 */

#ifndef TWOCS_EXEC_SCRATCH_POOL_HH
#define TWOCS_EXEC_SCRATCH_POOL_HH

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace twocs::exec {

template <typename T>
class ScratchPool
{
  public:
    /** Free-list bound per thread: enough for a worker's realistic
     *  nesting depth, small enough that idle threads hold only a
     *  handful of arenas. */
    static constexpr std::size_t kMaxFree = 8;

    /** RAII handle to a pooled object; returns it on destruction. */
    class Lease
    {
      public:
        Lease() = default;
        explicit Lease(std::unique_ptr<T> object)
            : object_(std::move(object))
        {
        }

        Lease(Lease &&) = default;
        Lease &operator=(Lease &&other) noexcept
        {
            if (this != &other) {
                release();
                object_ = std::move(other.object_);
            }
            return *this;
        }
        Lease(const Lease &) = delete;
        Lease &operator=(const Lease &) = delete;

        ~Lease() { release(); }

        T *get() const { return object_.get(); }
        T *operator->() const { return object_.get(); }
        T &operator*() const { return *object_; }

      private:
        void release()
        {
            if (object_ == nullptr)
                return;
            std::vector<std::unique_ptr<T>> &free = freeList();
            if (free.size() < kMaxFree)
                free.push_back(std::move(object_));
            else
                object_.reset();
        }

        std::unique_ptr<T> object_;
    };

    /** Pop a recycled object off the calling thread's free-list, or
     *  default-construct one. The object arrives exactly as its last
     *  lease left it — re-bind/resize before use. */
    static Lease acquire()
    {
        std::vector<std::unique_ptr<T>> &free = freeList();
        if (!free.empty()) {
            std::unique_ptr<T> object = std::move(free.back());
            free.pop_back();
            return Lease(std::move(object));
        }
        return Lease(std::make_unique<T>());
    }

    /** Objects currently parked on this thread's free-list. */
    static std::size_t freeCount() { return freeList().size(); }

    /** Drop this thread's free-list (test hook). */
    static void clearThreadCache() { freeList().clear(); }

  private:
    static std::vector<std::unique_ptr<T>> &freeList()
    {
        thread_local std::vector<std::unique_ptr<T>> list;
        return list;
    }
};

} // namespace twocs::exec

#endif // TWOCS_EXEC_SCRATCH_POOL_HH
