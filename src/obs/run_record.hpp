#pragma once

/**
 * @file
 * The structured unit of observability: one RunRecord per simulation
 * run (or aggregate / analytic table point).  A record carries enough
 * context to re-run the cell (config text, workload, seed) next to the
 * full SimResult -- including the run status taxonomy of
 * rsin::RunStatus -- plus wall time and the DES kernel counters, so
 * every number a bench prints is also available machine-readably.
 */

#include <cstdint>
#include <string>

#include "rsin/system.hpp"

namespace rsin {
namespace markov {
struct SbusSolution;
}
namespace obs {

/** What produced a record's numbers. */
enum class RecordKind
{
    Run,       ///< one simulation replication
    Aggregate, ///< replications collapsed by aggregateReplications
    Analytic,  ///< closed-form / Markov solver point
};

/** Lower-case wire name of a record kind. */
const char *toString(RecordKind kind);

/** Parse a wire name back into a kind; throws FatalError on junk. */
RecordKind parseRecordKind(const std::string &name);

/** One structured observation of a (config, load) sweep cell. */
struct RunRecord
{
    std::string curve;  ///< curve/table label the point belongs to
    std::string config; ///< paper-notation configuration text
    RecordKind kind = RecordKind::Run;
    double rho = 0.0;    ///< traffic intensity of the sweep point
    double lambda = 0.0; ///< per-processor arrival rate
    double muN = 0.0;    ///< transmission rate
    double muS = 0.0;    ///< service rate
    std::uint64_t seed = 0; ///< 0 for aggregate/analytic records
    /** Replication index; -1 for aggregate/analytic records. */
    int replication = -1;
    /** The printed table cell this record backs (e.g. "0.1234"). */
    std::string display;
    double wallSeconds = 0.0;
    /** Full result; status/result.kernel ride along inside. */
    SimResult result;
};

/**
 * Render a metric the way bench tables print it: "inf" for saturated
 * (or overflowing) points, "n/a" for truncated/no-data points whose
 * estimate cannot be trusted, else printf(@p fmt, @p value).
 */
std::string displayValue(const SimResult &result, double value,
                         const char *fmt = "%.4f");

/**
 * The record of one analytic solver point: kind analytic, no seed,
 * replication -1, the solution's delays, E[l] (time_avg_queue) and
 * P(no wait) (fraction_no_wait), 0 shards because no calendar ran, and
 * the solve's wall time.  The one analytic view every producer shares
 * (figure benches, rsin_sweep --analytic, rsin_campaign), so their
 * records cannot drift apart.
 */
RunRecord analyticRecord(std::string curve, std::string config,
                         double rho, double lambda, double mu_n,
                         double mu_s, const markov::SbusSolution &sol,
                         double wall_seconds, std::string display);

class JsonWriter;
struct JsonValue;

/**
 * Serialize one record as a JSON object on @p w -- the single
 * "rsin.run_record.v1" record serializer, shared by the RunLog
 * artifact writer and the campaign ledger so the two cannot drift.
 */
void writeRunRecordJson(JsonWriter &w, const RunRecord &r);

/**
 * Inverse of writeRunRecordJson.  Re-serializing the parsed record
 * reproduces the input bytes exactly (doubles travel as %.17g, NaN as
 * null), which is what makes ledger resume bit-identical.  Throws
 * FatalError on a malformed or wrong-kind node.
 */
RunRecord parseRunRecordJson(const JsonValue &v);

} // namespace obs
} // namespace rsin
