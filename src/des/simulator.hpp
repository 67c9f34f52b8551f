#pragma once

/**
 * @file
 * Minimal discrete-event simulation kernel.
 *
 * A Simulator owns a time-ordered event calendar.  Events are arbitrary
 * callbacks; ties are broken by scheduling order so runs are fully
 * deterministic for a given seed.  Cancellation is supported through
 * lazy deletion on pop.
 *
 * The calendar is allocation-free in steady state:
 *
 *  - Event callbacks live in slab arenas recycled through free
 *    stacks.  Two size classes keep the cache footprint tight: 40-byte
 *    buffers for small captures (an arrival's {this, processor}) and
 *    168-byte buffers for the fat model callbacks that carry a Task by
 *    value; larger captures fall back to one heap box.  Buffers grow
 *    in address-stable chunks; per-slot metadata (seq, ops, cancelled)
 *    lives in dense side arrays so scheduling never touches a cold
 *    buffer line.
 *  - The pending set is one 128-bit sort key per event -- time bits,
 *    then sequence number, so ordering is a single branch-free integer
 *    compare -- split across a 4-ary min-heap for steady-state
 *    interleaved push/pop and a sorted run that absorbs schedule
 *    bursts via a stable radix sort (one cache-friendly sort instead
 *    of thousands of random-access sifts).
 *
 * Once arenas and calendar have grown to the high-water mark of
 * pending events, a schedule/fire cycle touches no allocator.
 */

#include <cstddef>
#include <cstdint>
#include <functional>
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
    std::uint64_t cancelled = 0; ///< cancel() calls that hit a pending event
    std::uint64_t arenaBytes = 0; ///< callback-slot storage high-water mark
};

namespace detail {

/** Type-erased operations on a stored event callback. */
struct EventOps
{
    /** Move-construct dst from src and destroy src. */
    void (*relocate)(void *dst, void *src) noexcept;
    /** Invoke the callable; destroy it even if it throws. */
    void (*invokeDestroy)(void *storage);
    /** Destroy without invoking (cancelled events). */
    void (*destroy)(void *storage) noexcept;
};

template <typename Fn>
struct InlineEventOps
{
    static void
    relocate(void *dst, void *src) noexcept
    {
        auto *from = static_cast<Fn *>(src);
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
    }
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
    static constexpr EventOps ops{&relocate, &invokeDestroy, &destroy};
};

template <typename Fn>
struct HeapEventOps
{
    static Fn *&box(void *storage) { return *static_cast<Fn **>(storage); }
    static void
    relocate(void *dst, void *src) noexcept
    {
        *static_cast<void **>(dst) = *static_cast<void **>(src);
    }
    static void
    invokeDestroy(void *storage)
    {
        struct Guard
        {
            Fn *fn;
            ~Guard() { delete fn; }
        } guard{box(storage)};
        (*guard.fn)();
    }
    static void destroy(void *storage) noexcept { delete box(storage); }
    static constexpr EventOps ops{&relocate, &invokeDestroy, &destroy};
};

/**
 * Address-stable arena of event callback slots.
 *
 * Buffers live in fixed-size chunks (capture storage must not move
 * while an event is pending); the per-slot metadata -- occupant seq,
 * cancelled flag, ops table -- lives in dense parallel arrays instead
 * of a header next to each buffer.  The free stack recycles indices
 * LIFO, so a steady-state schedule/fire cycle keeps hammering the same
 * few metadata cache lines and never touches a buffer line at all for
 * small or capture-free callbacks.
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

    /** Bytes held by slot buffers plus per-slot metadata. */
    std::size_t
    bytes() const
    {
        return chunks_.size() * kChunkSlots * sizeof(Buf) +
               count_ * (sizeof(std::uint64_t) + sizeof(const EventOps *) +
                         sizeof(std::uint8_t));
    }

    std::uint64_t &seq(std::uint32_t index) { return seq_[index]; }
    std::uint64_t seq(std::uint32_t index) const { return seq_[index]; }
    const EventOps *&ops(std::uint32_t index) { return ops_[index]; }
    std::uint8_t &cancelled(std::uint32_t index)
    {
        return cancelled_[index];
    }
    std::uint8_t cancelled(std::uint32_t index) const
    {
        return cancelled_[index];
    }

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
            const std::size_t grown = count_ + kChunkSlots;
            seq_.resize(grown);
            ops_.resize(grown, nullptr);
            cancelled_.resize(grown);
        }
        return count_++;
    }

    /** Return a slot whose callable has already been moved out or
     *  destroyed. */
    void
    release(std::uint32_t index)
    {
        ops_[index] = nullptr;
        seq_[index] = ~std::uint64_t{0};
        cancelled_[index] = 0;
        free_.push_back(index);
        --occupied_;
    }

  private:
    std::vector<std::unique_ptr<Buf[]>> chunks_;
    std::vector<std::uint64_t> seq_;
    std::vector<const EventOps *> ops_;
    std::vector<std::uint8_t> cancelled_;
    std::vector<std::uint32_t> free_;
    std::uint32_t count_ = 0;
    std::uint32_t occupied_ = 0;
};

} // namespace detail

class Simulator;

/** Opaque handle to a scheduled event; usable to cancel it. */
class EventHandle
{
  public:
    EventHandle() = default;

    /** True if this handle refers to an event (fired or not). */
    bool valid() const { return sim_ != nullptr; }

    /** True if the event is still pending (not fired, not cancelled). */
    bool pending() const;

  private:
    friend class Simulator;
    EventHandle(const Simulator *sim, std::uint32_t slot, std::uint64_t seq)
        : sim_(sim), slot_(slot), seq_(seq)
    {
    }
    const Simulator *sim_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint64_t seq_ = 0;
};

/** Discrete-event simulator with an arena-backed hybrid calendar. */
class Simulator
{
  public:
    /** Inline capacity of the small slot class (one cache line total). */
    static constexpr std::size_t kSmallCapacity = 40;
    /**
     * Inline capacity of the large class, sized for the fattest model
     * callback (omega transmit completion: this, net, processor, a
     * RouteResult and a Task by value).
     */
    static constexpr std::size_t kLargeCapacity = 168;

    Simulator() = default;

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    double now() const { return now_; }

    /** Schedule @p action after non-negative @p delay. */
    template <typename F>
    EventHandle
    schedule(double delay, F &&action)
    {
        requireDelay(delay);
        return scheduleAt(now_ + delay, std::forward<F>(action));
    }

    /** Schedule @p action at absolute time @p when (>= now). */
    template <typename F>
    EventHandle
    scheduleAt(double when, F &&action)
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<void, Fn &>,
                      "event action must be callable with no arguments");
        requireTime(when, now_);
        if constexpr (std::is_constructible_v<bool, const Fn &>)
            requireNonEmpty(static_cast<bool>(action));
        const std::uint64_t seq = nextSeq_++;
        std::uint32_t index;
        const detail::EventOps *ops;
        if constexpr (fitsInline<Fn>(kSmallCapacity)) {
            index = small_.acquire();
            ops = &detail::InlineEventOps<Fn>::ops;
            ::new (small_.at(index)) Fn(std::forward<F>(action));
        } else if constexpr (fitsInline<Fn>(kLargeCapacity)) {
            index = large_.acquire() | kLargeBit;
            ops = &detail::InlineEventOps<Fn>::ops;
            ::new (large_.at(index & ~kLargeBit))
                Fn(std::forward<F>(action));
        } else {
            index = small_.acquire();
            ops = &detail::HeapEventOps<Fn>::ops;
            *static_cast<void **>(small_.at(index)) =
                new Fn(std::forward<F>(action));
        }
        seqAt(index) = seq;
        cancelledAt(index) = 0;
        opsAt(index) = ops;
        staging_.push_back(QueueEntry::make(when, seq, index));
        ++live_;
        return EventHandle(this, index, seq);
    }

    /** Cancel a pending event; no-op if already fired or cancelled. */
    void cancel(EventHandle &handle);

    /** Number of pending (non-cancelled) events. */
    std::size_t pending() const { return live_; }

    /** Fire the next event; returns false if the calendar is empty. */
    bool step();

    /**
     * Time of the earliest pending event without firing it, or no
     * value when the calendar is empty.  Non-const because it settles
     * lazily-cancelled entries off the top (like step() would).  This
     * is the peek the partitioned driver uses to stop a shard exactly
     * at its window horizon.
     */
    std::optional<double> nextEventTime();

    /**
     * Run until the calendar empties or simulated time would exceed
     * @p until.  Events scheduled exactly at @p until still fire.
     */
    void runUntil(double until);

    /** Run until the calendar empties. */
    void runAll();

    /** Total events fired so far (throughput metric for benches). */
    std::uint64_t fired() const { return fired_; }

    /** Total schedule()/scheduleAt() calls so far. */
    std::uint64_t scheduled() const { return nextSeq_; }

    /** Total cancel() calls that actually cancelled a pending event. */
    std::uint64_t cancelled() const { return cancelledTotal_; }

    /** Snapshot of the lifetime kernel counters. */
    KernelCounters
    counters() const
    {
        KernelCounters c;
        c.scheduled = nextSeq_;
        c.fired = fired_;
        c.cancelled = cancelledTotal_;
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
    friend class EventHandle;

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

    std::uint64_t &
    seqAt(std::uint32_t index)
    {
        return index & kLargeBit ? large_.seq(index & ~kLargeBit)
                                 : small_.seq(index);
    }
    const detail::EventOps *&
    opsAt(std::uint32_t index)
    {
        return index & kLargeBit ? large_.ops(index & ~kLargeBit)
                                 : small_.ops(index);
    }
    std::uint8_t &
    cancelledAt(std::uint32_t index)
    {
        return index & kLargeBit ? large_.cancelled(index & ~kLargeBit)
                                 : small_.cancelled(index);
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

    bool slotPending(std::uint32_t slot, std::uint64_t seq) const;
    /** Contract check: heap property and run order both hold. */
    bool calendarOrdered() const;
    void pushEntry(QueueEntry entry);
    void popEntry();
    /** Move staged entries into the heap (few) or sorted run (burst). */
    void flushStaging();
    /** Earliest pending entry across run and heap; null when empty. */
    const QueueEntry *peekMin() const;
    /** Pop the entry peekMin() returned. */
    void popMin();
    /** Drop cancelled entries off the top; null if the calendar
     *  empties, else the earliest live entry. */
    const QueueEntry *settleTop();

    static void requireDelay(double delay);
    static void requireTime(double when, double now);
    static void requireNonEmpty(bool nonEmpty);

    /** Staged bursts larger than this are sorted, not sifted. */
    static constexpr std::size_t kBulkThreshold = 64;

    double now_ = 0.0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t fired_ = 0;
    std::uint64_t cancelledTotal_ = 0;
    std::size_t live_ = 0;
    /** Cancelled entries still parked in the calendar (lazy deletion). */
    std::size_t cancelledParked_ = 0;
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
    std::vector<QueueEntry> run_;
    std::vector<QueueEntry> staging_;
    std::vector<QueueEntry> scratch_;
    /** Sort key of the last fired event (pop-order monotonicity). */
    RSIN_IF_CONTRACTS(unsigned __int128 lastFiredKey_ = 0;)
};

} // namespace des
} // namespace rsin
