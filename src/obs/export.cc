#include "obs/export.h"

#include <cinttypes>
#include <cstdio>

namespace bytecache::obs {

namespace {

/// %g-style double rendering that round-trips and never localizes.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  // Trim to the shortest representation that still parses identically.
  for (int prec = 1; prec < 17; ++prec) {
    char shorter[64];
    std::snprintf(shorter, sizeof shorter, "%.*g", prec, v);
    double back = 0;
    std::sscanf(shorter, "%lf", &back);
    if (back == v) return shorter;
  }
  return buf;
}

std::string fmt_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return buf;
}

const char* kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

/// Sparse [upper_bound, count] pairs of the non-empty buckets.
std::string jsonl_buckets(const HistogramValue& h) {
  std::string out = "[";
  bool first = true;
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    if (h.buckets[i] == 0) continue;
    if (!first) out += ",";
    first = false;
    // Appended piecewise: GCC 12 -O3 flags `"[" + tmp` as -Wrestrict.
    out += '[';
    out += fmt_u64(Histogram::upper_bound(i));
    out += ',';
    out += fmt_u64(h.buckets[i]);
    out += ']';
  }
  out += "]";
  return out;
}

}  // namespace

std::string to_jsonl(const Snapshot& snap) {
  std::string out;
  for (const MetricValue& m : snap.entries()) {
    out += "{\"name\":\"" + m.name + "\",\"type\":\"" +
           kind_name(m.kind) + "\",";
    switch (m.kind) {
      case MetricKind::kCounter:
        out += "\"value\":" + fmt_u64(m.counter);
        break;
      case MetricKind::kGauge:
        out += "\"value\":" + fmt_double(m.gauge);
        break;
      case MetricKind::kHistogram:
        out += "\"count\":" + fmt_u64(m.hist.count) +
               ",\"sum\":" + fmt_u64(m.hist.sum) +
               ",\"max\":" + fmt_u64(m.hist.max) +
               ",\"buckets\":" + jsonl_buckets(m.hist);
        break;
    }
    out += "}\n";
  }
  return out;
}

std::string to_json_object(const Snapshot& snap) {
  std::string out = "{";
  bool first = true;
  for (const MetricValue& m : snap.entries()) {
    if (!first) out += ",";
    first = false;
    out += "\"" + m.name + "\":";
    switch (m.kind) {
      case MetricKind::kCounter:
        out += fmt_u64(m.counter);
        break;
      case MetricKind::kGauge:
        out += fmt_double(m.gauge);
        break;
      case MetricKind::kHistogram:
        out += "{\"count\":" + fmt_u64(m.hist.count) +
               ",\"sum\":" + fmt_u64(m.hist.sum) +
               ",\"max\":" + fmt_u64(m.hist.max) +
               ",\"buckets\":" + jsonl_buckets(m.hist) + "}";
        break;
    }
  }
  out += "}";
  return out;
}

}  // namespace bytecache::obs
