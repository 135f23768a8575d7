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

std::string prometheus_name(std::string_view name) {
  std::string out = "bc_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

std::string to_prometheus(const Snapshot& snap) {
  std::string out;
  for (const MetricValue& m : snap.entries()) {
    const std::string name = prometheus_name(m.name);
    out += "# TYPE " + name + " " + kind_name(m.kind) + "\n";
    switch (m.kind) {
      case MetricKind::kCounter:
        out += name + " " + fmt_u64(m.counter) + "\n";
        break;
      case MetricKind::kGauge:
        out += name + " " + fmt_double(m.gauge) + "\n";
        break;
      case MetricKind::kHistogram: {
        // Cumulative buckets over the non-empty prefix of the range,
        // then the mandatory +Inf bucket.
        std::uint64_t cum = 0;
        std::size_t last = 0;
        for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
          if (m.hist.buckets[i] != 0) last = i;
        }
        for (std::size_t i = 0; i <= last; ++i) {
          cum += m.hist.buckets[i];
          out += name + "_bucket{le=\"" +
                 fmt_u64(Histogram::upper_bound(i)) + "\"} " +
                 fmt_u64(cum) + "\n";
        }
        out += name + "_bucket{le=\"+Inf\"} " + fmt_u64(m.hist.count) + "\n";
        out += name + "_sum " + fmt_u64(m.hist.sum) + "\n";
        out += name + "_count " + fmt_u64(m.hist.count) + "\n";
        break;
      }
    }
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
