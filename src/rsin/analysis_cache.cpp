#include "analysis_cache.hpp"

#include <array>
#include <bit>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <map>
#include <mutex>
#include <ostream>
#include <vector>

#include "common/error.hpp"
#include "common/fsio.hpp"
#include "common/text.hpp"
#include "markov/omega_model.hpp"

namespace rsin {

namespace {

/**
 * Canonical key: every field of (params, solver, options) verbatim,
 * doubles bit-cast so the mapping is exact.  std::map keeps lookups
 * deterministic (R2: no unordered containers in model layers).
 *
 * Word layout: [0] p/j, [1] r, [2] solver kind, [3..5] rates,
 * [6..10] truncating-solver options (zero when canonicalized away),
 * [11] buses k, [12] link-conflict probability, [13] solver-backend
 * version.  The backend version is bumped whenever an LD-QBD backend
 * changes numerically, so a persisted cache from an older backend era
 * can never serve a cell the current chain owns.
 */
using Key = std::array<std::uint64_t, 14>;

/** Backend version stamped into LD-QBD keys (word 13). */
constexpr std::uint64_t kLdQbdBackendVersion = 4;

Key
makeKey(const markov::SbusParams &prm, SbusSolverKind solver,
        const markov::SbusSolveOptions &opts)
{
    const auto dbits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    Key key{};
    key[0] = prm.p;
    key[1] = prm.r;
    key[2] = static_cast<std::uint64_t>(solver);
    key[3] = dbits(prm.lambda);
    key[4] = dbits(prm.muN);
    key[5] = dbits(prm.muS);
    // The matrix-geometric solver takes no options; canonicalize them
    // away so differently-tuned callers still share its entries.
    if (solver != SbusSolverKind::MatrixGeometric) {
        key[6] = opts.initialLevels;
        key[7] = opts.maxLevels;
        key[8] = dbits(opts.relTolerance);
        key[9] = opts.useDenseDirect ? 1 : 0;
        key[10] = dbits(opts.directTailMass);
    }
    return key;
}

Key
makeNetworkKey(const markov::NetChainParams &prm, SbusSolverKind solver)
{
    const auto dbits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    Key key{};
    key[0] = prm.processors;
    key[1] = prm.resources;
    key[2] = static_cast<std::uint64_t>(solver);
    key[3] = dbits(prm.lambda);
    key[4] = dbits(prm.muN);
    key[5] = dbits(prm.muS);
    key[11] = prm.buses;
    key[12] = dbits(prm.linkConflict);
    key[13] = kLdQbdBackendVersion;
    return key;
}

markov::SbusSolution
computeSolution(const markov::SbusParams &prm, SbusSolverKind solver,
                const markov::SbusSolveOptions &opts)
{
    const markov::SbusChain chain(prm);
    switch (solver) {
      case SbusSolverKind::MatrixGeometric:
        return markov::solveMatrixGeometric(chain);
      case SbusSolverKind::Staged:
        return markov::solveStaged(chain, opts);
      case SbusSolverKind::Direct:
        return markov::solveDirect(chain, opts);
      case SbusSolverKind::XbarLdQbd:
      case SbusSolverKind::OmegaLdQbd:
        break; // network chains go through computeNetworkSolution
    }
    RSIN_PANIC("AnalysisCache: unknown solver kind");
}

markov::SbusSolution
computeNetworkSolution(const markov::NetChainParams &prm,
                       SbusSolverKind solver)
{
    switch (solver) {
      case SbusSolverKind::XbarLdQbd:
        return markov::solveXbarChain(prm);
      case SbusSolverKind::OmegaLdQbd:
        return markov::solveOmegaChain(prm);
      default:
        break;
    }
    RSIN_PANIC("AnalysisCache: not a network solver kind");
}

/** Persisted-format header line (version-bumps invalidate old files). */
constexpr const char *kCacheHeader = "rsin.analysis_cache.v2";

/**
 * One persisted entry: 14 key words + stable flag + 7 bit-cast
 * solution doubles + levelsUsed + the bit-cast truncation bound, all
 * hex, in field order.  The crc appended by save() covers exactly
 * these bytes.
 */
std::string
formatEntry(const Key &key, const markov::SbusSolution &sol)
{
    const auto dbits = [](double v) {
        return std::bit_cast<std::uint64_t>(v);
    };
    std::string line;
    for (const std::uint64_t word : key)
        line += formatf("%016llx ",
                        static_cast<unsigned long long>(word));
    const std::uint64_t fields[] = {
        sol.stable ? 1ULL : 0ULL,
        dbits(sol.meanQueueLength),
        dbits(sol.queueingDelay),
        dbits(sol.normalizedDelay),
        dbits(sol.busUtilization),
        dbits(sol.resourceUtilization),
        dbits(sol.probEmptySystem),
        dbits(sol.probNoWait),
        std::uint64_t{sol.levelsUsed},
        dbits(sol.truncationBound),
    };
    for (const std::uint64_t word : fields)
        line += formatf("%016llx ",
                        static_cast<unsigned long long>(word));
    line.pop_back();
    return line;
}

/** Inverse of formatEntry (crc already stripped); false on junk. */
bool
parseEntry(const std::string &line, Key &key,
           markov::SbusSolution &sol)
{
    std::vector<std::uint64_t> words;
    for (const auto &tok : split(line, ' ')) {
        if (tok.empty())
            return false;
        char *end = nullptr;
        words.push_back(std::strtoull(tok.c_str(), &end, 16));
        if (end != tok.c_str() + tok.size())
            return false;
    }
    if (words.size() != 24)
        return false;
    const auto bitsd = [](std::uint64_t v) {
        return std::bit_cast<double>(v);
    };
    for (std::size_t i = 0; i < key.size(); ++i)
        key[i] = words[i];
    sol.stable = words[14] != 0;
    sol.meanQueueLength = bitsd(words[15]);
    sol.queueingDelay = bitsd(words[16]);
    sol.normalizedDelay = bitsd(words[17]);
    sol.busUtilization = bitsd(words[18]);
    sol.resourceUtilization = bitsd(words[19]);
    sol.probEmptySystem = bitsd(words[20]);
    sol.probNoWait = bitsd(words[21]);
    sol.levelsUsed = static_cast<std::size_t>(words[22]);
    sol.truncationBound = bitsd(words[23]);
    return true;
}

} // namespace

struct AnalysisCache::Impl
{
    struct Entry
    {
        bool ready = false; ///< false while a thread is computing it
        markov::SbusSolution value;
    };

    std::mutex mutex;
    std::condition_variable readyCv;
    std::map<Key, Entry> entries;
    std::deque<Key> fifo; ///< completed keys in completion order
    std::size_t capacity;
    Stats counters;
};

AnalysisCache::AnalysisCache(std::size_t capacity)
    : impl_(new Impl)
{
    impl_->capacity = capacity < 1 ? 1 : capacity;
}

AnalysisCache::~AnalysisCache()
{
    delete impl_;
}

markov::SbusSolution
AnalysisCache::solve(const markov::SbusParams &prm, SbusSolverKind solver,
                     const markov::SbusSolveOptions &opts)
{
    return solveKeyed(makeKey(prm, solver, opts), [&] {
        return computeSolution(prm, solver, opts);
    });
}

markov::SbusSolution
AnalysisCache::solveNetwork(const markov::NetChainParams &prm,
                            SbusSolverKind solver)
{
    return solveKeyed(makeNetworkKey(prm, solver), [&] {
        return computeNetworkSolution(prm, solver);
    });
}

markov::SbusSolution
AnalysisCache::solveKeyed(
    const Key &key,
    const std::function<markov::SbusSolution()> &compute)
{
    std::unique_lock<std::mutex> lock(impl_->mutex);
    for (;;) {
        const auto it = impl_->entries.find(key);
        if (it == impl_->entries.end())
            break; // nobody owns this key: this thread computes it
        if (it->second.ready) {
            ++impl_->counters.hits;
            return it->second.value;
        }
        // Single-flight: another thread is already solving this key.
        ++impl_->counters.waits;
        impl_->readyCv.wait(lock);
        // Re-check from scratch: the computation may have finished,
        // failed (entry erased) or been evicted while we slept.
    }
    ++impl_->counters.misses;
    impl_->entries.emplace(key, Impl::Entry{});
    lock.unlock();

    markov::SbusSolution sol;
    try {
        sol = compute();
    } catch (...) {
        // A failed solve must not leave a poisoned in-flight marker.
        lock.lock();
        impl_->entries.erase(key);
        impl_->readyCv.notify_all();
        throw;
    }

    lock.lock();
    Impl::Entry &entry = impl_->entries[key];
    entry.ready = true;
    entry.value = sol;
    impl_->fifo.push_back(key);
    while (impl_->fifo.size() > impl_->capacity) {
        impl_->entries.erase(impl_->fifo.front());
        impl_->fifo.pop_front();
    }
    impl_->readyCv.notify_all();
    return sol;
}

AnalysisCache::Stats
AnalysisCache::stats() const
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    Stats out = impl_->counters;
    out.entries = impl_->fifo.size();
    return out;
}

void
AnalysisCache::clear()
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    // In-flight entries stay: erasing them would orphan their waiters'
    // bookkeeping.  Completed entries and counters reset.
    for (const auto &key : impl_->fifo)
        impl_->entries.erase(key);
    impl_->fifo.clear();
    impl_->counters = Stats{};
}

std::size_t
AnalysisCache::save(const std::string &path) const
{
    // Snapshot under the lock, write outside it: holding the mutex
    // across file I/O would stall concurrent solvers.
    std::vector<std::pair<Key, markov::SbusSolution>> snapshot;
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        for (const auto &[key, entry] : impl_->entries)
            if (entry.ready)
                snapshot.emplace_back(key, entry.value);
    }
    common::writeFileAtomic(path, [&](std::ostream &os) {
        os << kCacheHeader << "\n";
        for (const auto &[key, sol] : snapshot) {
            const std::string body = formatEntry(key, sol);
            os << body
               << formatf(" %08x", common::crc32(body)) << "\n";
        }
    });
    return snapshot.size();
}

std::size_t
AnalysisCache::load(const std::string &path)
{
    const auto content = common::readFile(path);
    if (!content.has_value())
        return 0;
    std::size_t added = 0;
    bool first = true;
    for (const auto &line : split(*content, '\n')) {
        if (first) {
            first = false;
            if (line != kCacheHeader)
                return 0; // foreign or stale format: load nothing
            continue;
        }
        if (line.empty())
            continue;
        // Split off the trailing crc field and verify the body.
        const std::size_t cut = line.rfind(' ');
        if (cut == std::string::npos)
            continue;
        const std::string body = line.substr(0, cut);
        if (formatf("%08x", common::crc32(body)) != line.substr(cut + 1))
            continue;
        Key key{};
        markov::SbusSolution sol;
        if (!parseEntry(body, key, sol))
            continue;
        std::lock_guard<std::mutex> lock(impl_->mutex);
        if (impl_->entries.find(key) != impl_->entries.end())
            continue;
        Impl::Entry entry;
        entry.ready = true;
        entry.value = sol;
        impl_->entries.emplace(key, entry);
        impl_->fifo.push_back(key);
        while (impl_->fifo.size() > impl_->capacity) {
            impl_->entries.erase(impl_->fifo.front());
            impl_->fifo.pop_front();
        }
        ++added;
    }
    return added;
}

AnalysisCache &
AnalysisCache::global()
{
    // rsin-lint: allow(R10): audited 2026-08: AnalysisCache is internally synchronized -- every public method takes impl_->mutex, and concurrent same-key solves are collapsed by the single-flight in-flight map (see class comment)
    static AnalysisCache cache;
    return cache;
}

} // namespace rsin
