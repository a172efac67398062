/**
 * @file
 * FIFO ring for the simulator's queues: the memory system's bounded
 * ones (write-queue entries, outstanding pipelined loads) and the
 * message layers' per-node work queues. Storage is sized at
 * construction; a push onto a full ring doubles it. A ring whose
 * owner never exceeds the capacity it asked for (the memory system's)
 * therefore never allocates after construction, and one whose depth
 * is bounded only in practice (a layer's queues, which a duplicated
 * packet can deepen) allocates once per doubling, not per element.
 */

#ifndef CT_SIM_RING_H
#define CT_SIM_RING_H

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace ct::sim {

template <typename T>
class Ring
{
  public:
    Ring() = default;
    explicit Ring(std::size_t capacity) : slots(capacity) {}

    bool empty() const { return count == 0; }
    bool full() const { return count == slots.size(); }
    std::size_t size() const { return count; }

    /** Element @p i counted from the oldest (0 = front). */
    T &operator[](std::size_t i) { return slots[wrap(head + i)]; }
    const T &operator[](std::size_t i) const
    {
        return slots[wrap(head + i)];
    }

    T &front() { return slots[head]; }
    T &back() { return (*this)[count - 1]; }
    const T &back() const { return (*this)[count - 1]; }

    /** Append at the back, growing a full ring first. */
    void
    push_back(T value)
    {
        if (count == slots.size())
            grow();
        slots[wrap(head + count)] = std::move(value);
        ++count;
    }

    /** Drop the front element; the ring must not be empty. */
    void
    pop_front()
    {
        head = wrap(head + 1);
        --count;
    }

    void
    clear()
    {
        head = 0;
        count = 0;
    }

  private:
    /** Double the storage (to at least four slots), oldest element
     *  first. Out of line: the memory system's rings never take this
     *  path, so it stays out of their per-word code. */
    [[gnu::noinline]] void
    grow()
    {
        std::vector<T> bigger(std::max<std::size_t>(2 * slots.size(), 4));
        for (std::size_t i = 0; i < count; ++i)
            bigger[i] = std::move((*this)[i]);
        slots.swap(bigger);
        head = 0;
    }

    /** Map a position in [0, 2 * capacity) onto a slot. */
    std::size_t
    wrap(std::size_t pos) const
    {
        return pos >= slots.size() ? pos - slots.size() : pos;
    }

    std::vector<T> slots;
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace ct::sim

#endif // CT_SIM_RING_H
