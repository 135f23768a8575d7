// The unified telemetry subsystem: one metrics surface for every layer.
//
// The paper's central result (Section VII, Fig. 13) is an observability
// argument — Cache Flush wins because the *perceived* packet loss rate,
// channel loss plus undecodable packets, is what TCP actually reacts to,
// and only fine-grained per-layer counters reveal it.  Before this
// subsystem every layer hand-rolled its own stats struct with its own
// aggregation idiom; obs replaces that with one shape:
//
//   - Counter / Gauge / Histogram: shard-local metric instances.  They
//     are plain, non-atomic values — the sharded gateways guarantee one
//     thread per shard (DESIGN.md §8, lint bc-nolock), so the hot path
//     stays a single add with no synchronization.
//   - MetricsRegistry: a named collection assembled at construction time
//     (cold path).  Besides owned metrics it can *link* borrowed
//     counters/gauges (pointers into the existing per-layer stats
//     structs, read only at snapshot time — the increment sites are
//     untouched, so instrumentation costs nothing per packet) and attach
//     provider callbacks whose snapshots are merged in on read (how the
//     pipeline aggregates gateways, links, and TCP endpoints, and how a
//     sharded gateway merges its per-shard registries).
//   - Snapshot: the point-in-time value set, mergeable generically —
//     counters and histograms add, gauges combine per their declared
//     MergeOp — exactly the old per-struct merge_into pattern, once.
//
// Exporters (obs/export.h) render a Snapshot as JSON-lines or one JSON
// object.  Naming (DESIGN.md §10): dotted lowercase paths,
// layer first — "encoder.packets", "decoder.cache.hits"; histograms carry
// a unit suffix ("gateway.encoder.encode_ns").
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace bytecache::obs {

// ------------------------------------------------------------- metrics --

/// Monotonic event count.  Merges by addition.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  void reset() { value_ = 0; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// How gauge values combine across shards / layers at snapshot-merge
/// time.  Counters and histograms always add; a gauge must say.
enum class MergeOp : std::uint8_t {
  kSum,  // sizes, byte totals
  kMax,  // worst-case values (perceived loss, epoch)
  kMin,
  kLast,  // single-instance values; merging keeps the right-hand one
};

/// Point-in-time level.  Merges per its declared MergeOp.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void reset() { value_ = 0; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Fixed-bucket base-2 logarithmic histogram of non-negative integer
/// samples (latencies in ns, run lengths, sizes).  Bucket i holds values
/// whose bit width is i: bucket 0 is exactly {0}, bucket 1 is {1},
/// bucket i>=2 spans [2^(i-1), 2^i - 1].  65 buckets cover the full
/// uint64 range with no configuration and no allocation; recording is a
/// bit_width plus one add.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  void record(std::uint64_t v) {
    ++buckets_[bucket_of(v)];
    ++count_;
    sum_ += v;
    if (v > max_) max_ = v;
  }

  void reset() {
    buckets_.fill(0);
    count_ = 0;
    sum_ = 0;
    max_ = 0;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  [[nodiscard]] const std::array<std::uint64_t, kBuckets>& buckets() const {
    return buckets_;
  }

  /// Bucket index of one sample: its bit width (0 for 0).
  [[nodiscard]] static constexpr std::size_t bucket_of(std::uint64_t v) {
    return static_cast<std::size_t>(std::bit_width(v));
  }

  /// Inclusive upper bound of bucket i: 2^i - 1; ~0 for the last bucket.
  [[nodiscard]] static constexpr std::uint64_t upper_bound(std::size_t i) {
    return i >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << i) - 1;
  }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

// ------------------------------------------------------------ snapshot --

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Histogram value as captured into a snapshot.
struct HistogramValue {
  std::array<std::uint64_t, Histogram::kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
};

/// One named metric value inside a Snapshot.
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  MergeOp merge = MergeOp::kSum;  // gauges only; counters/histograms add
  std::uint64_t counter = 0;
  double gauge = 0;
  HistogramValue hist;  // kHistogram only
};

/// A point-in-time, self-describing value set: the single shape every
/// stats consumer (harness tables, experiment JSON, exporters, tests)
/// reads.  Entries are kept sorted by name, which makes merging
/// order-independent and exporter output deterministic.
class Snapshot {
 public:
  /// Merges `other` into this snapshot: counters and histogram buckets
  /// add, gauges combine per their MergeOp.  Associative and (for
  /// non-kLast gauges) commutative, so any merge tree over any shard
  /// order yields the same result — pinned by tests/obs_test.cc.
  void merge_from(const Snapshot& other);

  /// Lookup; nullptr when absent.
  [[nodiscard]] const MetricValue* find(std::string_view name) const;

  /// Convenience readers: the value, or 0 when the name is absent (a
  /// disabled layer simply contributes no entries).
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  [[nodiscard]] double gauge(std::string_view name) const;
  [[nodiscard]] const HistogramValue* histogram(std::string_view name) const;

  /// Inserts or merges one entry (the building block merge_from uses).
  void add(MetricValue v);

  /// Re-namespaces every entry under `prefix` + "." (used by containers
  /// that hold several instances of one component: shards, directions).
  void add_prefix(std::string_view prefix);

  [[nodiscard]] const std::vector<MetricValue>& entries() const {
    return entries_;
  }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  std::vector<MetricValue> entries_;  // sorted by name
};

// ------------------------------------------------------------ registry --

/// A named collection of metrics with one read surface: snapshot().
///
/// Three kinds of membership, all assembled off the hot path:
///   - owned metrics (counter()/gauge()/histogram()): live here, stable
///     addresses, the owner increments through the returned reference;
///   - linked metrics (link_counter()/link_gauge()): borrowed pointers
///     into a component's stats struct, dereferenced only at snapshot
///     time — the component keeps its plain field increments;
///   - providers (add_provider()): callbacks returning whole Snapshots,
///     merged in on read — how composite components (pipelines, sharded
///     gateways) expose their children without copying counters around.
///
/// Not thread-safe by design: a registry is shard-local, like the codec
/// state it describes.  Cross-shard aggregation happens by merging
/// snapshots of quiescent shards (DESIGN.md §8 stats contract).
class MetricsRegistry {
 public:
  using Provider = std::function<Snapshot()>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Owned metrics, created on first use (idempotent per name).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name, MergeOp merge = MergeOp::kLast);
  Histogram& histogram(std::string_view name);

  /// Borrowed values read at snapshot time.  The pointee must outlive
  /// the registry (components link their own member fields).
  void link_counter(std::string_view name, const std::uint64_t* src);
  void link_gauge(std::string_view name, const double* src,
                  MergeOp merge = MergeOp::kLast);
  void link_histogram(std::string_view name, const Histogram* src);

  /// Derived values computed at snapshot time.
  void probe_counter(std::string_view name,
                     std::function<std::uint64_t()> fn);
  void probe_gauge(std::string_view name, std::function<double()> fn,
                   MergeOp merge = MergeOp::kLast);

  /// A child snapshot source, merged into every snapshot() result.
  void add_provider(Provider fn);

  /// Reads everything: owned + linked + probed metrics, then every
  /// provider, merged into one sorted Snapshot.
  [[nodiscard]] Snapshot snapshot() const;

  /// Resets owned metrics (linked/probed values belong to their
  /// components; reset those via the component's reset_stats()).
  void reset();

 private:
  struct Entry {
    std::string name;
    MetricKind kind;
    MergeOp merge = MergeOp::kSum;
    // Exactly one of these is active, by (kind, which source).
    Counter* owned_counter = nullptr;
    Gauge* owned_gauge = nullptr;
    Histogram* owned_hist = nullptr;
    const std::uint64_t* linked_counter = nullptr;
    const double* linked_gauge = nullptr;
    const Histogram* linked_hist = nullptr;
    std::function<std::uint64_t()> probe_counter;
    std::function<double()> probe_gauge;
  };

  Entry* find_entry(std::string_view name);

  // Owned metric storage: deque-like stable addresses via unique_ptr.
  std::vector<std::unique_ptr<Counter>> counters_;
  std::vector<std::unique_ptr<Gauge>> gauges_;
  std::vector<std::unique_ptr<Histogram>> histograms_;
  std::vector<Entry> entries_;
  std::vector<Provider> providers_;
};

}  // namespace bytecache::obs
