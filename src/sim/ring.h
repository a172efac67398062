/**
 * @file
 * Fixed-capacity FIFO ring for the memory system's bounded queues
 * (write-queue entries, outstanding pipelined loads). Storage is
 * sized once at construction, so pushes and pops never allocate; the
 * owner keeps size() within the capacity it asked for.
 */

#ifndef CT_SIM_RING_H
#define CT_SIM_RING_H

#include <cstddef>
#include <vector>

namespace ct::sim {

template <typename T>
class Ring
{
  public:
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

    /** Append at the back; the ring must not be full. */
    void
    push_back(const T &value)
    {
        slots[wrap(head + count)] = value;
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
