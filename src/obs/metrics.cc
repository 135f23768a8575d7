#include "obs/metrics.h"

#include <algorithm>

namespace bytecache::obs {

// ------------------------------------------------------------ snapshot --

namespace {

/// Sorted-insert position for `name` in `entries`.
template <typename Vec>
auto lower_bound_by_name(Vec& entries, std::string_view name) {
  return std::lower_bound(
      entries.begin(), entries.end(), name,
      [](const MetricValue& m, std::string_view n) { return m.name < n; });
}

void merge_value(MetricValue& into, const MetricValue& from) {
  // Kind mismatches under one name are a wiring bug; last writer wins on
  // kind so the snapshot stays well-formed rather than asserting in a
  // read-only path.
  switch (from.kind) {
    case MetricKind::kCounter:
      into.counter += from.counter;
      break;
    case MetricKind::kGauge:
      switch (from.merge) {
        case MergeOp::kSum: into.gauge += from.gauge; break;
        case MergeOp::kMax: into.gauge = std::max(into.gauge, from.gauge); break;
        case MergeOp::kMin: into.gauge = std::min(into.gauge, from.gauge); break;
        case MergeOp::kLast: into.gauge = from.gauge; break;
      }
      break;
    case MetricKind::kHistogram:
      for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
        into.hist.buckets[i] += from.hist.buckets[i];
      }
      into.hist.count += from.hist.count;
      into.hist.sum += from.hist.sum;
      into.hist.max = std::max(into.hist.max, from.hist.max);
      break;
  }
}

}  // namespace

void Snapshot::add(MetricValue v) {
  auto it = lower_bound_by_name(entries_, v.name);
  if (it != entries_.end() && it->name == v.name) {
    merge_value(*it, v);
    return;
  }
  entries_.insert(it, std::move(v));
}

void Snapshot::merge_from(const Snapshot& other) {
  for (const MetricValue& v : other.entries_) add(v);
}

const MetricValue* Snapshot::find(std::string_view name) const {
  auto it = lower_bound_by_name(entries_, name);
  if (it != entries_.end() && it->name == name) return &*it;
  return nullptr;
}

std::uint64_t Snapshot::counter(std::string_view name) const {
  const MetricValue* m = find(name);
  return (m != nullptr && m->kind == MetricKind::kCounter) ? m->counter : 0;
}

double Snapshot::gauge(std::string_view name) const {
  const MetricValue* m = find(name);
  return (m != nullptr && m->kind == MetricKind::kGauge) ? m->gauge : 0.0;
}

const HistogramValue* Snapshot::histogram(std::string_view name) const {
  const MetricValue* m = find(name);
  return (m != nullptr && m->kind == MetricKind::kHistogram) ? &m->hist
                                                             : nullptr;
}

void Snapshot::add_prefix(std::string_view prefix) {
  if (prefix.empty()) return;
  for (MetricValue& m : entries_) {
    m.name = std::string(prefix) + "." + m.name;
  }
  // Prefixing preserves the relative order of the sorted names.
}

// ------------------------------------------------------------ registry --

MetricsRegistry::Entry* MetricsRegistry::find_entry(std::string_view name) {
  for (Entry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  if (Entry* e = find_entry(name); e != nullptr && e->owned_counter) {
    return *e->owned_counter;
  }
  counters_.push_back(std::make_unique<Counter>());
  Entry e;
  e.name = std::string(name);
  e.kind = MetricKind::kCounter;
  e.owned_counter = counters_.back().get();
  entries_.push_back(std::move(e));
  return *counters_.back();
}

Gauge& MetricsRegistry::gauge(std::string_view name, MergeOp merge) {
  if (Entry* e = find_entry(name); e != nullptr && e->owned_gauge) {
    return *e->owned_gauge;
  }
  gauges_.push_back(std::make_unique<Gauge>());
  Entry e;
  e.name = std::string(name);
  e.kind = MetricKind::kGauge;
  e.merge = merge;
  e.owned_gauge = gauges_.back().get();
  entries_.push_back(std::move(e));
  return *gauges_.back();
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  if (Entry* e = find_entry(name); e != nullptr && e->owned_hist) {
    return *e->owned_hist;
  }
  histograms_.push_back(std::make_unique<Histogram>());
  Entry e;
  e.name = std::string(name);
  e.kind = MetricKind::kHistogram;
  e.owned_hist = histograms_.back().get();
  entries_.push_back(std::move(e));
  return *histograms_.back();
}

void MetricsRegistry::link_counter(std::string_view name,
                                   const std::uint64_t* src) {
  Entry e;
  e.name = std::string(name);
  e.kind = MetricKind::kCounter;
  e.linked_counter = src;
  entries_.push_back(std::move(e));
}

void MetricsRegistry::link_gauge(std::string_view name, const double* src,
                                 MergeOp merge) {
  Entry e;
  e.name = std::string(name);
  e.kind = MetricKind::kGauge;
  e.merge = merge;
  e.linked_gauge = src;
  entries_.push_back(std::move(e));
}

void MetricsRegistry::link_histogram(std::string_view name,
                                     const Histogram* src) {
  Entry e;
  e.name = std::string(name);
  e.kind = MetricKind::kHistogram;
  e.linked_hist = src;
  entries_.push_back(std::move(e));
}

void MetricsRegistry::probe_counter(std::string_view name,
                                    std::function<std::uint64_t()> fn) {
  Entry e;
  e.name = std::string(name);
  e.kind = MetricKind::kCounter;
  e.probe_counter = std::move(fn);
  entries_.push_back(std::move(e));
}

void MetricsRegistry::probe_gauge(std::string_view name,
                                  std::function<double()> fn, MergeOp merge) {
  Entry e;
  e.name = std::string(name);
  e.kind = MetricKind::kGauge;
  e.merge = merge;
  e.probe_gauge = std::move(fn);
  entries_.push_back(std::move(e));
}

void MetricsRegistry::add_provider(Provider fn) {
  providers_.push_back(std::move(fn));
}

Snapshot MetricsRegistry::snapshot() const {
  Snapshot snap;
  for (const Entry& e : entries_) {
    MetricValue v;
    v.name = e.name;
    v.kind = e.kind;
    v.merge = e.merge;
    switch (e.kind) {
      case MetricKind::kCounter:
        if (e.owned_counter != nullptr) {
          v.counter = e.owned_counter->value();
        } else if (e.linked_counter != nullptr) {
          v.counter = *e.linked_counter;
        } else if (e.probe_counter) {
          v.counter = e.probe_counter();
        }
        break;
      case MetricKind::kGauge:
        if (e.owned_gauge != nullptr) {
          v.gauge = e.owned_gauge->value();
        } else if (e.linked_gauge != nullptr) {
          v.gauge = *e.linked_gauge;
        } else if (e.probe_gauge) {
          v.gauge = e.probe_gauge();
        }
        break;
      case MetricKind::kHistogram: {
        const Histogram& h =
            e.owned_hist != nullptr ? *e.owned_hist : *e.linked_hist;
        v.hist.buckets = h.buckets();
        v.hist.count = h.count();
        v.hist.sum = h.sum();
        v.hist.max = h.max();
        break;
      }
    }
    snap.add(std::move(v));
  }
  for (const Provider& p : providers_) snap.merge_from(p());
  return snap;
}

void MetricsRegistry::reset() {
  for (auto& c : counters_) c->reset();
  for (auto& g : gauges_) g->reset();
  for (auto& h : histograms_) h->reset();
}

}  // namespace bytecache::obs
