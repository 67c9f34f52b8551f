/**
 * @file
 * End-to-end benchmark driver.  Runs one workload for a time budget
 * and writes everything it measured -- per-cell timings and checks,
 * set-up samples, pass-level counters and, in a traced run, the spans
 * -- as one JSON document for run.py to reduce into metrics.
 *
 *   e2ebench_driver --workload sim_paper16 --seed 1 --seconds 15 \
 *       --trace 0 --campaign-bin PATH --work-dir DIR \
 *       --references references.json --out run.json
 *   e2ebench_driver --emit-references references.json
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "common/fsio.hpp"
#include "obs/json.hpp"

namespace e2ebench {

double
nowSeconds()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch)
        .count();
}

double
selfPeakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

namespace {

volatile std::uint64_t probeSink = 0;

} // namespace

double
hostProbe()
{
    // Four independent xorshift chains: throughput-bound, not
    // latency-bound, so it feels contention for execution ports.
    constexpr int kIterations = 2000000;
    std::uint64_t v[4] = {1, 2, 3, 4};
    const double t0 = nowSeconds();
    for (int i = 0; i < kIterations; ++i)
        for (std::uint64_t &x : v) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
    const double t = nowSeconds() - t0;
    probeSink = v[0] ^ v[1] ^ v[2] ^ v[3];
    return t;
}

int
Tracer::begin(const std::string &name, const std::string &cell)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = name;
    span.cell = cell;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start = nowSeconds();
    spans_.push_back(std::move(span));
    const int id = static_cast<int>(spans_.size() - 1);
    open_.push_back(id);
    return id;
}

void
Tracer::end(int id)
{
    if (id < 0)
        return;
    spans_[static_cast<std::size_t>(id)].end = nowSeconds();
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

namespace {

References
loadReferences(const std::string &path)
{
    const auto text = rsin::common::readFile(path);
    if (!text)
        throw std::runtime_error("cannot read references " + path);
    const rsin::obs::JsonValue doc = rsin::obs::parseJson(*text);
    const rsin::obs::JsonValue *cells = doc.find("cells");
    if (!cells)
        throw std::runtime_error("references: no cells array");
    References refs;
    for (const rsin::obs::JsonValue &c : cells->items) {
        Reference ref;
        ref.stable = c.find("stable")->asBool();
        ref.normalizedDelay = c.find("normalized_delay")->asDouble();
        ref.truncationBound = c.find("truncation_bound")->asDouble();
        refs[referenceKey(c.find("config")->asString(),
                          c.find("ratio")->asDouble(),
                          c.find("rho")->asDouble())] = ref;
    }
    return refs;
}

void
writeReferences(const std::string &path)
{
    // Re-solve from scratch; the key carries config, ratio and rho.
    std::ostringstream os;
    {
        rsin::obs::JsonWriter w(os, 1);
        w.beginObject();
        w.field("schema", "e2ebench.references.v1");
        w.key("cells");
        w.beginArray();
        for (const auto &[key, ref] : computeReferences()) {
            // key = "<config> ratio=<r> rho=<x>"
            const auto r = key.find(" ratio=");
            const auto x = key.find(" rho=");
            w.beginObject();
            w.field("config", key.substr(0, r));
            w.field("ratio", std::stod(key.substr(r + 7, x - r - 7)));
            w.field("rho", std::stod(key.substr(x + 5)));
            w.field("stable", ref.stable);
            w.field("normalized_delay", ref.normalizedDelay);
            w.field("truncation_bound", ref.truncationBound);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    os << "\n";
    const std::string text = os.str();
    rsin::common::writeFileAtomic(
        path, [&text](std::ostream &o) { o << text; });
}

void
writeChecks(rsin::obs::JsonWriter &w, const std::vector<Check> &checks)
{
    w.key("checks");
    w.beginArray();
    for (const Check &c : checks) {
        w.beginObject();
        w.field("name", c.name);
        w.field("ok", c.ok);
        if (!c.ok)
            w.field("detail", c.detail);
        w.endObject();
    }
    w.endArray();
}

void
writeDoc(const std::string &path, const Options &opt, const RunDoc &doc,
         const Tracer &tracer)
{
    std::ostringstream os;
    {
        rsin::obs::JsonWriter w(os, 0);
        w.beginObject();
        w.field("schema", "e2ebench.run.v1");
        w.field("workload", opt.workload);
        w.field("seed", opt.seed);
        w.field("trace", opt.trace);
        w.field("build_type", E2EBENCH_BUILD_TYPE);
        w.field("compiler", E2EBENCH_COMPILER);
        w.field("peak_rss_mb", doc.peakRssMb);
        w.key("setup_s");
        w.beginArray();
        for (double s : doc.setupSeconds)
            w.value(s);
        w.endArray();
        w.key("setup_probe_s");
        w.beginArray();
        for (double s : doc.setupProbes)
            w.value(s);
        w.endArray();
        w.key("passes");
        w.beginArray();
        for (const Pass &pass : doc.passes) {
            w.beginObject();
            w.field("traced", pass.traced);
            w.field("wall_s", pass.wallSeconds);
            w.key("probes_s");
            w.beginArray();
            for (double s : pass.probes)
                w.value(s);
            w.endArray();
            w.key("values");
            w.beginObject();
            for (const auto &[k, v] : pass.values)
                w.field(k, v);
            w.endObject();
            w.key("cells");
            w.beginArray();
            for (const Cell &c : pass.cells) {
                w.beginObject();
                w.field("name", c.name);
                w.field("kind", c.kind);
                w.field("wall_s", c.wallSeconds);
                w.field("omega", c.omega);
                w.field("completed_tasks", c.completedTasks);
                w.field("fired", c.fired);
                w.field("scheduled", c.scheduled);
                w.field("cancelled", c.cancelled);
                w.field("arena_bytes", c.arenaBytes);
                w.field("rejections", c.rejections);
                w.field("routing_attempts", c.routingAttempts);
                w.field("boxes_traversed", c.boxesTraversed);
                w.field("phases", static_cast<std::uint64_t>(c.phases));
                w.field("levels_used",
                        static_cast<std::uint64_t>(c.levelsUsed));
                w.field("sparse", c.sparse);
                w.field("truncation_bound", c.truncationBound);
                writeChecks(w, c.checks);
                w.endObject();
            }
            w.endArray();
            w.endObject();
        }
        w.endArray();
        w.key("spans");
        w.beginArray();
        for (const Span &s : tracer.spans()) {
            w.beginObject();
            w.field("name", s.name);
            w.field("cell", s.cell);
            w.field("start", s.start);
            w.field("end", s.end);
            w.field("parent", s.parent);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    os << "\n";
    const std::string text = os.str();
    rsin::common::writeFileAtomic(
        path, [&text](std::ostream &o) { o << text; });
}

const char *
argValue(int argc, char **argv, const char *name)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], name) == 0)
            return argv[i + 1];
    return nullptr;
}

} // namespace

} // namespace e2ebench

int
main(int argc, char **argv)
{
    using namespace e2ebench;
    if (std::strcmp(E2EBENCH_BUILD_TYPE, "Release") != 0) {
        std::cerr << "e2ebench: refusing to time a " << E2EBENCH_BUILD_TYPE
                  << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
        return 2;
    }
    try {
        if (const char *path = argValue(argc, argv, "--emit-references")) {
            writeReferences(path);
            return 0;
        }
        Options opt;
        const char *workload = argValue(argc, argv, "--workload");
        const char *out = argValue(argc, argv, "--out");
        if (!workload || !out) {
            std::cerr << "usage: e2ebench_driver --workload NAME --out PATH"
                         " [--seed N --seconds S --trace 0|1"
                         " --campaign-bin PATH --work-dir DIR"
                         " --references PATH]\n";
            return 2;
        }
        opt.workload = workload;
        if (const char *v = argValue(argc, argv, "--seed"))
            opt.seed = std::stoull(v);
        if (const char *v = argValue(argc, argv, "--seconds"))
            opt.seconds = std::stod(v);
        if (const char *v = argValue(argc, argv, "--trace"))
            opt.trace = std::strcmp(v, "0") != 0;
        if (const char *v = argValue(argc, argv, "--campaign-bin"))
            opt.campaignBin = v;
        if (const char *v = argValue(argc, argv, "--work-dir"))
            opt.workDir = v;
        if (const char *v = argValue(argc, argv, "--references"))
            opt.references = v;

        const References refs = loadReferences(opt.references);
        Tracer tracer;
        RunDoc doc;
        if (opt.workload == "sim_paper16")
            runSimPaper16(opt, refs, tracer, doc);
        else if (opt.workload == "sim_large")
            runSimLarge(opt, refs, tracer, doc);
        else if (opt.workload == "exact_chains")
            runExactChains(opt, refs, tracer, doc);
        else if (opt.workload == "campaign_mixed")
            runCampaignMixed(opt, refs, tracer, doc);
        else
            throw std::runtime_error("unknown workload " + opt.workload);
        doc.peakRssMb = std::max(doc.peakRssMb, selfPeakRssMb());
        writeDoc(out, opt, doc, tracer);
    } catch (const std::exception &e) {
        std::cerr << "e2ebench: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
