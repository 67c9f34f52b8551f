#include "simulator.hpp"

#include <algorithm>

#include "common/contract.hpp"
#include "common/error.hpp"

namespace rsin {
namespace des {

bool
Simulator::calendarOrdered() const
{
    // 4-ary heap property: every entry sorts no earlier than its
    // parent.
    for (std::size_t i = 1; i < heap_.size(); ++i)
        if (heap_[i].key < heap_[(i - 1) >> 2].key)
            return false;
    // The sorted run drains from the back, so it must be descending.
    for (std::size_t i = 1; i < run_.size(); ++i)
        if (run_[i - 1].key < run_[i].key)
            return false;
    return true;
}

void
Simulator::requireDelay(double delay)
{
    RSIN_REQUIRE(delay >= 0.0, "schedule: negative delay ", delay);
}

void
Simulator::requireTime(double when, double now)
{
    RSIN_REQUIRE(when >= now, "scheduleAt: time ", when,
                 " is in the past (now ", now, ")");
}

void
Simulator::requireNonEmpty(bool non_empty)
{
    RSIN_REQUIRE(non_empty, "scheduleAt: empty action");
}

void
Simulator::pushEntry(QueueEntry entry)
{
    // 4-ary hole-based sift-up: bubble the hole to the insertion
    // point, one move per level; with random keys this is O(1) moves
    // on average.
    heap_.push_back(entry);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
        const std::size_t parent = (i - 1) >> 2;
        if (!earlier(entry, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = entry;
}

void
Simulator::siftDown(QueueEntry item)
{
    const std::size_t n = heap_.size();
    // 4-ary hole-based sift-down: the earliest of up to four
    // contiguous children moves up into the hole, one move per level,
    // until the item fits.  The min-of-four scan compiles to
    // conditional moves on the 128-bit keys; with random keys a
    // branchy scan would mispredict about half the picks.
    const QueueEntry *heap = heap_.data();
    const unsigned __int128 item_key = item.key;
    std::size_t i = 0;
    while ((i << 2) + 4 < n) {
        const std::size_t first = (i << 2) + 1;
        // The next level reads one of the four grandchild groups; pull
        // all of them in while this level's compare chain resolves.
        if ((first << 2) + 16 < n) {
            const QueueEntry *grand = heap + (first << 2) + 1;
            __builtin_prefetch(grand);
            __builtin_prefetch(grand + 4);
            __builtin_prefetch(grand + 8);
            __builtin_prefetch(grand + 12);
        }
        const unsigned __int128 k0 = heap[first].key;
        const unsigned __int128 k1 = heap[first + 1].key;
        const unsigned __int128 k2 = heap[first + 2].key;
        const unsigned __int128 k3 = heap[first + 3].key;
        const std::size_t c01 = k1 < k0;
        const std::size_t c23 = k3 < k2;
        const unsigned __int128 ka = c01 ? k1 : k0;
        const unsigned __int128 kb = c23 ? k3 : k2;
        const std::size_t cab = kb < ka;
        const unsigned __int128 kbest = cab ? kb : ka;
        if (kbest >= item_key)
            goto place;
        heap_[i].key = kbest;
        i = first + (cab ? 2 + c23 : c01);
    }
    // Bottom level with a partial child group.
    {
        const std::size_t first = (i << 2) + 1;
        if (first < n) {
            std::size_t best = first;
            for (std::size_t c = first + 1; c < n; ++c)
                best = earlier(heap[c], heap[best]) ? c : best;
            if (earlier(heap[best], item)) {
                heap_[i] = heap[best];
                i = best;
            }
        }
    }
place:
    heap_[i] = item;
}

void
Simulator::refillRoot()
{
    rootVacant_ = false;
    if (!staging_.empty()) {
        const QueueEntry entry = staging_.back();
        staging_.pop_back();
        siftDown(entry);
        return;
    }
    // Nothing staged: an ordinary pop, the tail into the hole.
    const QueueEntry tail = heap_.back();
    heap_.pop_back();
    if (!heap_.empty())
        siftDown(tail);
}

void
Simulator::flushStaging()
{
    if (staging_.empty())
        return;
    if (staging_.size() <= kBulkThreshold) {
        // Steady state: a few events scheduled since the last pop go
        // through the ordinary heap sift.
        for (const QueueEntry &entry : staging_)
            pushEntry(entry);
        staging_.clear();
        return;
    }
    // Burst: one stable LSD radix sort on the 64 time bits instead of
    // thousands of random-access sifts (or a comparison sort, whose
    // data-dependent branches mispredict half the time on random
    // keys).  Staging holds entries in schedule order, so stability
    // alone realizes the (time, seq) tie-break exactly.  Passes whose
    // byte is constant across the batch (common for exponent bytes)
    // are skipped.
    const std::size_t m = staging_.size();
    scratch_.resize(m);
    static constexpr int kPasses = 8;
    std::uint32_t hist[kPasses][256];
    __builtin_memset(hist, 0, sizeof(hist));
    for (const QueueEntry &entry : staging_) {
        const auto t = static_cast<std::uint64_t>(entry.key >> 64);
        for (int b = 0; b < kPasses; ++b)
            ++hist[b][(t >> (8 * b)) & 0xff];
    }
    QueueEntry *src = staging_.data();
    QueueEntry *dst = scratch_.data();
    for (int b = 0; b < kPasses; ++b) {
        std::uint32_t *h = hist[b];
        int lead = 0;
        while (h[lead] == 0)
            ++lead;
        if (h[lead] == m)
            continue; // whole batch shares this byte
        std::uint32_t offset = 0;
        for (int v = 0; v < 256; ++v) {
            const std::uint32_t n_here = h[v];
            h[v] = offset;
            offset += n_here;
        }
        for (std::size_t i = 0; i < m; ++i) {
            const auto t = static_cast<std::uint64_t>(src[i].key >> 64);
            dst[h[(t >> (8 * b)) & 0xff]++] = src[i];
        }
        std::swap(src, dst);
    }
    // src now holds the batch ascending; the run drains from the back,
    // so fold it in descending.
    if (run_.empty()) {
        run_.resize(m);
        for (std::size_t i = 0; i < m; ++i)
            run_[i] = src[m - 1 - i];
    } else {
        // Backward in-place merge: fill from the new end, consuming
        // the smaller of (old run back, batch front) first.  The write
        // cursor never catches the old-run read cursor.
        const std::size_t old = run_.size();
        run_.resize(old + m);
        std::size_t read = old;  // old-run elements left
        std::size_t take = 0;    // batch elements consumed
        std::size_t write = old + m;
        while (read > 0 && take < m) {
            if (run_[read - 1].key < src[take].key)
                run_[--write] = run_[--read];
            else
                run_[--write] = src[take++];
        }
        while (take < m)
            run_[--write] = src[take++];
    }
    staging_.clear();
}

const Simulator::QueueEntry *
Simulator::peekMin()
{
    if (rootVacant_)
        refillRoot();
    flushStaging();
    if (heap_.empty())
        return run_.empty() ? nullptr : &run_.back();
    if (run_.empty())
        return &heap_[0];
    return run_.back().key < heap_[0].key ? &run_.back() : &heap_[0];
}

void
Simulator::popMin()
{
    if (!run_.empty() &&
        (heap_.empty() || run_.back().key < heap_[0].key))
        run_.pop_back();
    else
        rootVacant_ = true;
}

bool
Simulator::step()
{
    const QueueEntry *top = peekMin();
    if (!top)
        return false;
    const QueueEntry entry = *top;
    // The calendar's whole guarantee: events fire in key order, so
    // simulated time never runs backwards.  The structural check makes
    // a corrupted heap/run fail at the fire that first exposes it, not
    // thousands of events later as a silently reordered result.
    RSIN_INVARIANT(entry.time() >= now_,
                   "event calendar fired into the past: event time ",
                   entry.time(), " < now ", now_);
    RSIN_INVARIANT(entry.key >= lastFiredKey_,
                   "event calendar popped keys out of order at t=",
                   entry.time());
    RSIN_INVARIANT(calendarOrdered(),
                   "event calendar structure corrupt (heap property or "
                   "run order broken) at t=", entry.time());
    RSIN_IF_CONTRACTS(lastFiredKey_ = entry.key;)
    popMin();
    now_ = entry.time();
    ++fired_;
    // The callback runs in its own slot: chunks never move, so the
    // slot stays put while the callback schedules, even when that grows
    // its arena.  The slot is recycled once the callback is destroyed,
    // whether or not it throws.
    struct SlotRelease
    {
        Simulator *sim;
        std::uint32_t slot;
        ~SlotRelease() { sim->releaseAt(slot); }
    } release{this, entry.slot()};
    opsAt(entry.slot())->invokeDestroy(storageAt(entry.slot()));
    return true;
}

std::optional<double>
Simulator::nextEventTime()
{
    const QueueEntry *top = peekMin();
    if (!top)
        return std::nullopt;
    return top->time();
}

void
Simulator::runAll()
{
    while (step()) {
    }
}

} // namespace des
} // namespace rsin
