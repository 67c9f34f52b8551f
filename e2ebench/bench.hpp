#pragma once

/**
 * @file
 * Shared types of the end-to-end benchmark driver: the in-memory span
 * tracer, per-cell records with their correctness checks, and the run
 * document the driver writes for run.py to reduce into metrics.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

/** Seconds on the steady clock since an arbitrary process epoch. */
double nowSeconds();

/** Peak resident set size of this process, MiB. */
double selfPeakRssMb();

/**
 * Host-speed probe, seconds (about 8 ms): a fixed integer kernel bound
 * by execution-port throughput.  Other tenants of a shared host
 * (chiefly a busy sibling hyperthread) slow it and the workloads alike,
 * while no library change can; run.py divides it out of the end-to-end
 * times.  Passes probe before every cell.
 */
double hostProbe();

/** One correctness check on a cell; any failed check fails the cell. */
struct Check
{
    std::string name;
    bool ok = true;
    std::string detail;
};

/**
 * One unit of measured work: a simulation run, an exact solve, or a
 * campaign ledger record.  Kind "check" marks a pass-level check that
 * carries no timing (e.g. the campaign ledger replay).
 */
struct Cell
{
    std::string name;
    std::string kind; ///< sim | sharded | exact | campaign | check
    double wallSeconds = 0.0;

    // Simulation cells.
    bool omega = false;
    std::uint64_t completedTasks = 0;
    std::uint64_t fired = 0;
    std::uint64_t scheduled = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t arenaBytes = 0;
    std::uint64_t rejections = 0;
    double routingAttempts = 0.0;
    double boxesTraversed = 0.0;

    // Exact cells.
    std::size_t phases = 0;
    std::size_t levelsUsed = 0;
    bool sparse = false;
    double truncationBound = 0.0;

    std::vector<Check> checks;
    /** Bit image of the cell's outputs; passes must repeat it exactly. */
    std::string signature;

    void
    check(const std::string &checkName, bool ok,
          const std::string &detail = {})
    {
        checks.push_back({checkName, ok, detail});
    }
};

/** One repetition of the workload's fixed work. */
struct Pass
{
    bool traced = false;
    double wallSeconds = 0.0;
    /** Pass-level measurements (CPU seconds, ledger bytes, ...). */
    std::map<std::string, double> values;
    /** Host probes taken before, during and after the pass. */
    std::vector<double> probes;
    std::vector<Cell> cells;
};

/** A recorded span: a timed call into one layer's public entry. */
struct Span
{
    std::string name;
    std::string cell;
    double start = 0.0;
    double end = 0.0;
    int parent = -1; ///< index of the enclosing span, -1 at the root
};

/**
 * Span recorder for the driver thread.  Disabled tracers record
 * nothing; spans stay in memory until the run document is written.
 */
class Tracer
{
  public:
    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span; returns its index, or -1 when disabled. */
    int begin(const std::string &name, const std::string &cell);
    /** Close span @p id (no-op for -1). */
    void end(int id);

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span around one call. */
class SpanScope
{
  public:
    SpanScope(Tracer &tracer, const std::string &name,
              const std::string &cell = {})
        : tracer_(tracer), id_(tracer.begin(name, cell))
    {
    }
    ~SpanScope() { tracer_.end(id_); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer &tracer_;
    int id_;
};

/** Command-line options of the driver. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string campaignBin; ///< path of the rsin_campaign executable
    std::string workDir;     ///< scratch directory for ledgers
    std::string references;  ///< committed exact references (JSON)
};

/** Exact chain reference value for one (config, ratio, rho) point. */
struct Reference
{
    bool stable = true;
    double normalizedDelay = 0.0;
    double truncationBound = 0.0;
};

/** Everything one driver run measured. */
struct RunDoc
{
    std::vector<double> setupSeconds;
    /** Host probes taken around the set-up samples. */
    std::vector<double> setupProbes;
    std::vector<Pass> passes;
    double peakRssMb = 0.0;
};

/** Key of a reference point: config text, ratio and rho. */
std::string referenceKey(const std::string &config, double ratio,
                         double rho);

using References = std::map<std::string, Reference>;

/** Workload entry points (workloads.cpp). */
void runSimPaper16(const Options &opt, const References &refs,
                   Tracer &tracer, RunDoc &doc);
void runSimLarge(const Options &opt, const References &refs,
                 Tracer &tracer, RunDoc &doc);
void runExactChains(const Options &opt, const References &refs,
                    Tracer &tracer, RunDoc &doc);
void runCampaignMixed(const Options &opt, const References &refs,
                      Tracer &tracer, RunDoc &doc);

/** Solve every reference point the workloads check against. */
References computeReferences();

} // namespace e2ebench
