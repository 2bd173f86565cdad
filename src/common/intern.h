/**
 * @file
 * Process-wide interning of immutable values keyed by 64 bits.
 *
 * Some cold-path objects are pure functions of one number and costly
 * to build: a geometric table (GeoTable) or a self-checked exact
 * divisor (ExactDiv). InternList builds each distinct one once per
 * process and shares it, read-only, with every thread.
 */

#ifndef JSMT_COMMON_INTERN_H
#define JSMT_COMMON_INTERN_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>

namespace jsmt {

/**
 * One immutable T per distinct key, built on first request.
 *
 * The values form an append-only list that readers walk without a
 * lock. A node is fully built before the release store that
 * publishes it, and never changes or goes away after (nodes are
 * immortal: reachable from the head for the process lifetime).
 * Lookups of an existing key take no lock; concurrent first
 * requests for one key build it once and all receive the same
 * object. Lookup is a list walk, so keep the key set small (a run
 * touches a few dozen distinct keys at most).
 */
template <class T>
class InternList
{
  public:
    constexpr InternList() = default;
    InternList(const InternList&) = delete;
    InternList& operator=(const InternList&) = delete;

    /**
     * @return the value for @p key; on the first request for it,
     * @p build() (returning a T) makes it under the build lock.
     */
    template <class Build>
    const T&
    get(std::uint64_t key, Build&& build)
    {
        if (const T* value =
                find(_head.load(std::memory_order_acquire), key))
            return *value;
        // Re-check under the lock in case a racing thread published
        // this key meanwhile.
        std::lock_guard<std::mutex> lock(_build);
        const Node* head = _head.load(std::memory_order_relaxed);
        if (const T* value = find(head, key))
            return *value;
        const auto* node = new Node{build(), key, head};
        _head.store(node, std::memory_order_release);
        return node->value;
    }

    /** @return the number of values built so far. */
    std::size_t
    size() const
    {
        std::size_t n = 0;
        for (const Node* node = _head.load(std::memory_order_acquire);
             node != nullptr; node = node->next)
            ++n;
        return n;
    }

  private:
    struct Node
    {
        T value;
        std::uint64_t key;
        const Node* next;
    };

    static const T*
    find(const Node* node, std::uint64_t key)
    {
        for (; node != nullptr; node = node->next) {
            if (node->key == key)
                return &node->value;
        }
        return nullptr;
    }

    std::atomic<const Node*> _head{nullptr};
    std::mutex _build;
};

} // namespace jsmt

#endif // JSMT_COMMON_INTERN_H
