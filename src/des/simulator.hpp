#pragma once

/**
 * @file
 * Minimal discrete-event simulation kernel.
 *
 * A Simulator owns a time-ordered event calendar.  Events are arbitrary
 * callbacks; ties are broken by scheduling order so runs are fully
 * deterministic for a given seed.  A scheduled event always fires:
 * the models never withdraw one (a blocked task retries when its
 * network signals a status change), so the kernel has no cancellation.
 *
 * The calendar is allocation-free in steady state:
 *
 *  - Event callbacks live in slab arenas recycled through free
 *    stacks.  Two size classes keep the cache footprint tight: 40-byte
 *    buffers for small captures (an arrival's {this, processor}) and
 *    168-byte buffers for the fat model callbacks that carry a Task by
 *    value.  Every callback lives inline in one of them: scheduleAt
 *    rejects at compile time a callable over kLargeCapacity bytes,
 *    aligned over 8 bytes or not nothrow-movable, so no event ever
 *    costs a heap box.  Buffers grow in address-stable chunks, so a
 *    callback fires where it was stored and never moves; its slot is
 *    recycled once it returns.  The per-slot ops table lives in a
 *    dense side array so scheduling never touches a cold buffer line.
 *  - The pending set is one 128-bit sort key per event -- time bits,
 *    then sequence number, so ordering is a single branch-free integer
 *    compare -- split across a 4-ary min-heap for steady-state
 *    interleaved push/pop and a sorted run that absorbs schedule
 *    bursts via a stable radix sort (one cache-friendly sort instead
 *    of thousands of random-access sifts).  Firing the heap's root
 *    leaves it vacant, and the next peek fills it with an entry the
 *    callback staged: one sift-down in place of the tail's sift-down
 *    and that entry's sift-up.
 *
 * Once arenas and calendar have grown to the high-water mark of
 * pending events, a schedule/fire cycle touches no allocator.
 */

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/contract.hpp"

namespace rsin {
namespace des {

/**
 * Lifetime counters of one Simulator, cheap enough to keep always on.
 * Surfaced through SimResult/RunRecord so every emitted run artifact
 * carries the kernel-side story of the run (how much work the calendar
 * did and how much arena memory it grew to).
 */
struct KernelCounters
{
    std::uint64_t scheduled = 0; ///< schedule()/scheduleAt() calls
    std::uint64_t fired = 0;     ///< events invoked
    /** Always 0: the kernel has no cancellation.  Kept because the
     *  run-record schema and the e2ebench run document carry it. */
    std::uint64_t cancelled = 0;
    std::uint64_t arenaBytes = 0; ///< callback-slot storage high-water mark
};

namespace detail {

/** Type-erased operations on a stored event callback. */
struct EventOps
{
    /** Invoke the callable; destroy it even if it throws. */
    void (*invokeDestroy)(void *storage);
    /** Destroy without invoking (events pending when the arena dies). */
    void (*destroy)(void *storage) noexcept;
};

template <typename Fn>
struct InlineEventOps
{
    static void
    invokeDestroy(void *storage)
    {
        auto *fn = static_cast<Fn *>(storage);
        struct Guard
        {
            Fn *fn;
            ~Guard() { fn->~Fn(); }
        } guard{fn};
        (*fn)();
    }
    static void destroy(void *storage) noexcept
    {
        static_cast<Fn *>(storage)->~Fn();
    }
    static constexpr EventOps ops{&invokeDestroy, &destroy};
};

/**
 * Address-stable arena of event callback slots.
 *
 * Buffers live in fixed-size chunks (capture storage must not move
 * while an event is pending); each slot's ops table lives in a dense
 * parallel array instead of a header next to its buffer.  The free
 * stack recycles indices LIFO, so a steady-state schedule/fire cycle
 * keeps hammering the same few metadata cache lines and never touches
 * a buffer line at all for capture-free callbacks.
 */
template <std::size_t Capacity>
class SlotArena
{
  public:
    static constexpr std::uint32_t kChunkShift = 8;
    static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;

    struct Buf
    {
        alignas(8) unsigned char bytes[Capacity];
    };

    ~SlotArena()
    {
        if (occupied_ == 0)
            return; // nothing undestroyed; skip the slot walk
        for (std::uint32_t i = 0; i < count_; ++i)
            if (ops_[i])
                ops_[i]->destroy(at(i));
    }

    void *
    at(std::uint32_t index)
    {
        return chunks_[index >> kChunkShift][index & (kChunkSlots - 1)]
            .bytes;
    }

    std::uint32_t count() const { return count_; }

    /** Bytes held by slot buffers plus the per-slot ops table. */
    std::size_t
    bytes() const
    {
        return chunks_.size() * kChunkSlots * sizeof(Buf) +
               count_ * sizeof(const EventOps *);
    }

    const EventOps *&ops(std::uint32_t index) { return ops_[index]; }

    std::uint32_t
    acquire()
    {
        ++occupied_;
        if (!free_.empty()) {
            const std::uint32_t index = free_.back();
            free_.pop_back();
            return index;
        }
        if (count_ == chunks_.size() << kChunkShift) {
            chunks_.emplace_back(new Buf[kChunkSlots]);
            ops_.resize(count_ + kChunkSlots, nullptr);
        }
        return count_++;
    }

    /** Return a slot whose callable has already been destroyed. */
    void
    release(std::uint32_t index)
    {
        ops_[index] = nullptr;
        free_.push_back(index);
        --occupied_;
    }

  private:
    std::vector<std::unique_ptr<Buf[]>> chunks_;
    std::vector<const EventOps *> ops_;
    std::vector<std::uint32_t> free_;
    std::uint32_t count_ = 0;
    std::uint32_t occupied_ = 0;
};

} // namespace detail

/** Discrete-event simulator with an arena-backed hybrid calendar. */
class Simulator
{
  public:
    /** Inline capacity of the small slot class (one cache line total). */
    static constexpr std::size_t kSmallCapacity = 40;
    /**
     * Inline capacity of the large class, sized for the fattest model
     * callbacks (the omega transmit completion: this, net, processor,
     * output port, resource and a Task by value).
     */
    static constexpr std::size_t kLargeCapacity = 168;

    Simulator() = default;

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    double now() const { return now_; }

    /** Schedule @p action after non-negative @p delay. */
    template <typename F>
    void
    schedule(double delay, F &&action)
    {
        requireDelay(delay);
        scheduleAt(now_ + delay, std::forward<F>(action));
    }

    /** Schedule @p action at absolute time @p when (>= now). */
    template <typename F>
    void
    scheduleAt(double when, F &&action)
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<void, Fn &>,
                      "event action must be callable with no arguments");
        static_assert(fitsInline<Fn>(kLargeCapacity),
                      "event action must fit an inline slot: at most "
                      "kLargeCapacity bytes, aligned to at most 8 and "
                      "nothrow move-constructible");
        requireTime(when, now_);
        if constexpr (std::is_constructible_v<bool, const Fn &>)
            requireNonEmpty(static_cast<bool>(action));
        std::uint32_t index;
        if constexpr (fitsInline<Fn>(kSmallCapacity)) {
            index = small_.acquire();
            ::new (small_.at(index)) Fn(std::forward<F>(action));
        } else {
            index = large_.acquire() | kLargeBit;
            ::new (large_.at(index & ~kLargeBit))
                Fn(std::forward<F>(action));
        }
        opsAt(index) = &detail::InlineEventOps<Fn>::ops;
        staging_.push_back(QueueEntry::make(when, nextSeq_++, index));
    }

    /** Number of pending events. */
    std::size_t
    pending() const
    {
        return heap_.size() - (rootVacant_ ? 1 : 0) + run_.size() +
               staging_.size();
    }

    /** Fire the next event; returns false if the calendar is empty. */
    bool step();

    /**
     * Time of the earliest pending event without firing it, or no
     * value when the calendar is empty.  Non-const because it files
     * staged entries into the calendar (like step() would).  This is
     * the peek runPartitioned uses to stop a shard exactly at its
     * window horizon.
     */
    std::optional<double> nextEventTime();

    /** Run until the calendar empties. */
    void runAll();

    /** Total events fired so far (throughput metric for benches). */
    std::uint64_t fired() const { return fired_; }

    /** Total schedule()/scheduleAt() calls so far. */
    std::uint64_t scheduled() const { return nextSeq_; }

    /** Snapshot of the lifetime kernel counters. */
    KernelCounters
    counters() const
    {
        KernelCounters c;
        c.scheduled = nextSeq_;
        c.fired = fired_;
        c.arenaBytes = small_.bytes() + large_.bytes();
        return c;
    }

    /** Arena capacity in slots (observability for tests/benches). */
    std::size_t
    slotCapacity() const
    {
        return static_cast<std::size_t>(small_.count()) + large_.count();
    }

#if RSIN_CONTRACTS_ENABLED
    /**
     * TEST ONLY (contract builds): jump the clock to @p when without
     * firing anything, staging a time-monotonicity violation so tests
     * can prove the calendar contracts actually fire.
     */
    void debugForceClockForTest(double when) { now_ = when; }
#endif

  private:
    /** High index bit selects the large slot class. */
    static constexpr std::uint32_t kLargeBit = 0x80000000u;

    template <typename Fn>
    static constexpr bool
    fitsInline(std::size_t capacity)
    {
        return sizeof(Fn) <= capacity && alignof(Fn) <= 8 &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

    /**
     * 16-byte calendar entry: one 128-bit sort key.  The high 64 bits
     * are the event time's bit pattern (order-preserving for the
     * non-negative times the simulator admits), then the tie-break seq
     * truncated to 32 bits, then the slot.  Ordering is a single
     * integer compare -- branch-free in the heap's min-of-four scans,
     * which random keys would otherwise mispredict half the time.
     * Truncating seq keeps schedule order unless two pending events
     * with bit-identical times are over 2^32 schedule calls apart,
     * far beyond any simulation here.
     */
    struct QueueEntry
    {
        unsigned __int128 key;

        static QueueEntry
        make(double time, std::uint64_t seq, std::uint32_t slot)
        {
            std::uint64_t time_bits;
            __builtin_memcpy(&time_bits, &time, sizeof(time_bits));
            const std::uint64_t tie =
                (static_cast<std::uint64_t>(static_cast<std::uint32_t>(seq))
                 << 32) |
                slot;
            QueueEntry entry;
            entry.key = (static_cast<unsigned __int128>(time_bits) << 64) |
                        tie;
            return entry;
        }
        double
        time() const
        {
            const auto bits = static_cast<std::uint64_t>(key >> 64);
            double time;
            __builtin_memcpy(&time, &bits, sizeof(time));
            return time;
        }
        std::uint32_t slot() const { return static_cast<std::uint32_t>(key); }
    };
    static_assert(sizeof(QueueEntry) == 16, "calendar entry stays packed");
    static bool
    earlier(const QueueEntry &a, const QueueEntry &b)
    {
        return a.key < b.key;
    }

    const detail::EventOps *&
    opsAt(std::uint32_t index)
    {
        return index & kLargeBit ? large_.ops(index & ~kLargeBit)
                                 : small_.ops(index);
    }
    void *
    storageAt(std::uint32_t index)
    {
        return index & kLargeBit ? large_.at(index & ~kLargeBit)
                                 : small_.at(index);
    }
    void
    releaseAt(std::uint32_t index)
    {
        if (index & kLargeBit)
            large_.release(index & ~kLargeBit);
        else
            small_.release(index);
    }

    /** Contract check: heap property and run order both hold. */
    bool calendarOrdered() const;
    void pushEntry(QueueEntry entry);
    /** Sift @p entry down from the vacant root to its place. */
    void siftDown(QueueEntry entry);
    /** Fill the root the last fire left vacant: with a staged entry
     *  when there is one, else with the heap's tail. */
    void refillRoot();
    /** Move staged entries into the heap (few) or sorted run (burst). */
    void flushStaging();
    /** Refill the root and flush staging, then the earliest pending
     *  entry across run and heap; null when the calendar is empty. */
    const QueueEntry *peekMin();
    /** Pop the entry peekMin() returned; a heap root leaves its place
     *  vacant for the next peekMin() to refill. */
    void popMin();

    static void requireDelay(double delay);
    static void requireTime(double when, double now);
    static void requireNonEmpty(bool nonEmpty);

    /** Staged bursts larger than this are sorted, not sifted. */
    static constexpr std::size_t kBulkThreshold = 64;

    double now_ = 0.0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t fired_ = 0;
    detail::SlotArena<kSmallCapacity> small_;
    detail::SlotArena<kLargeCapacity> large_;
    /**
     * The calendar proper is a pair: a 4-ary min-heap for steady-state
     * interleaved push/pop, and a descending sorted run that absorbs
     * schedule bursts (draining a sorted run is a pop_back, and one
     * cache-friendly sort beats thousands of random-access sifts).
     * New entries park in staging_ until the next pop decides which
     * side they go to; the global minimum is min(heap top, run back).
     */
    std::vector<QueueEntry> heap_;
    /**
     * Set while heap_[0] is a hole: the last fire took the root, and
     * the next peek fills it.  A fired callback usually schedules, so
     * one of its staged entries takes the root with a single sift-down
     * instead of the tail's sift-down plus that entry's own sift-up.
     */
    bool rootVacant_ = false;
    std::vector<QueueEntry> run_;
    std::vector<QueueEntry> staging_;
    std::vector<QueueEntry> scratch_;
    /** Sort key of the last fired event (pop-order monotonicity). */
    RSIN_IF_CONTRACTS(unsigned __int128 lastFiredKey_ = 0;)
};

} // namespace des
} // namespace rsin
