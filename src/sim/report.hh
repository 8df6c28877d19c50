/**
 * @file
 * Machine-readable run reports.
 *
 * Serialises RunResult / Comparison structures to JSON so plots and
 * regression dashboards can consume the same data the bench binaries
 * print as tables.  Bench binaries honour BEAR_JSON=<path> by
 * appending one JSON document per invocation.
 */

#ifndef BEAR_SIM_REPORT_HH
#define BEAR_SIM_REPORT_HH

#include <string>

#include "common/json.hh"
#include "obs/histogram.hh"
#include "sim/experiment.hh"

namespace bear
{

/**
 * Write @p hist under @p key: its summary (count, mean, min, max,
 * p50/p95/p99) and the populated log2 buckets.  The one histogram
 * shape of both the schema-v2 run report and beard's STATS reply.
 */
template <typename Unit>
void
writeHistogram(JsonWriter &json, const std::string &key,
               const obs::Histogram<Unit> &hist)
{
    json.beginObject(key);
    json.field("count", hist.count());
    json.field("mean", hist.mean());
    json.field("min", hist.min().count());
    json.field("max", hist.max().count());
    json.field("p50", hist.percentile(0.50).count());
    json.field("p95", hist.percentile(0.95).count());
    json.field("p99", hist.percentile(0.99).count());
    json.beginArray("buckets");
    for (int i = 0; i < obs::Histogram<Unit>::kBuckets; ++i) {
        if (hist.bucketCount(i) == 0)
            continue;
        json.beginObject();
        json.field("low", obs::Histogram<Unit>::bucketLow(i));
        json.field("count", hist.bucketCount(i));
        json.endObject();
    }
    json.endArray();
    json.endObject();
}

/** Serialise one run. */
std::string runResultToJson(const RunResult &result);

/** Serialise a whole comparison (baseline + designs, all workloads). */
std::string comparisonToJson(const std::string &experiment,
                             const Comparison &comparison);

/**
 * If BEAR_JSON is set in the environment, append @p json (plus a
 * newline, i.e. JSON-lines format) to that file.  Returns true if
 * something was written.
 */
bool maybeWriteJsonReport(const std::string &json);

} // namespace bear

#endif // BEAR_SIM_REPORT_HH
