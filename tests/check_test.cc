// Tests for the invariant-audit subsystem (util/check.h and the deep
// audit() methods on the cache, codec, TCP and simulator layers).
//
// The audits are compiled in whenever the build defines BYTECACHE_AUDIT
// (every configuration except plain Release — see the top-level
// CMakeLists.txt); tests that need a *tripped* audit install a recording
// failure handler so the process survives to assert on the capture.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "app/pipeline.h"
#include "cache/cache_tier.h"
#include "cache/fingerprint_table.h"
#include "cache/packet_store.h"
#include "cache/recency_chain.h"
#include "core/decoder.h"
#include "core/encoder.h"
#include "gateway/sharded_gateways.h"
#include "rabin/window.h"
#include "sim/simulator.h"
#include "tests/testutil.h"
#include "util/check.h"
#include "util/rng.h"

namespace bytecache {
namespace {

using cache::CachedPacket;
using cache::PacketMeta;
using cache::PacketStore;

/// Captures check failures instead of aborting, for the current scope.
class FailureRecorder {
 public:
  FailureRecorder() {
    prev_ = util::set_check_failure_handler(
        [this](const util::CheckFailure& f) {
          messages_.push_back(std::string(f.expr) + " | " + f.message);
        });
  }
  ~FailureRecorder() {
    util::set_check_failure_handler(std::move(prev_));
  }

  [[nodiscard]] const std::vector<std::string>& messages() const {
    return messages_;
  }
  [[nodiscard]] bool tripped() const { return !messages_.empty(); }

 private:
  util::CheckFailureHandler prev_;
  std::vector<std::string> messages_;
};

// ------------------------------------------------------------- macros --

TEST(CheckMacros, PassingCheckIsSilent) {
  FailureRecorder rec;
  BC_CHECK(1 + 1 == 2) << "never evaluated";
  EXPECT_FALSE(rec.tripped());
}

TEST(CheckMacros, FailingCheckCapturesMessage) {
  FailureRecorder rec;
  const int value = 41;
  BC_CHECK(value == 42) << "expected the answer, got " << value;
  ASSERT_TRUE(rec.tripped());
  EXPECT_NE(rec.messages()[0].find("value == 42"), std::string::npos);
  EXPECT_NE(rec.messages()[0].find("got 41"), std::string::npos);
}

TEST(CheckMacros, CheckSwallowsTrailingStreamWithoutBraces) {
  FailureRecorder rec;
  // The macro must bind a dangling `<<` and an else-less if correctly.
  if (rec.tripped())
    BC_CHECK(false) << "unreachable";
  else
    BC_CHECK(true) << "also fine";
  EXPECT_FALSE(rec.tripped());
}

TEST(CheckMacros, AuditTierMatchesBuildConfiguration) {
  FailureRecorder rec;
  int evaluations = 0;
  BC_AUDIT(++evaluations > 0) << "counts only when audits are compiled in";
  if (util::kAuditEnabled) {
    EXPECT_EQ(evaluations, 1);
  } else {
    EXPECT_EQ(evaluations, 0);  // condition must not be evaluated
  }
  EXPECT_FALSE(rec.tripped());
}

TEST(CheckMacros, FailureCountIsMonotonic) {
  FailureRecorder rec;
  util::reset_check_failure_count();
  BC_CHECK(false) << "one";
  BC_CHECK(false) << "two";
  EXPECT_EQ(util::check_failure_count(), 2u);
}

// -------------------------------------------------------- store audits --

PacketMeta meta_at(std::uint64_t stream_index) {
  PacketMeta m;
  m.stream_index = stream_index;
  return m;
}

TEST(PacketStoreAudit, CleanThroughInsertLookupEraseEvict) {
  util::Rng rng(7);
  PacketStore store(cache::CacheConfig{.l1_bytes = 4096});
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 16; ++i) {
    const util::Bytes payload =
        testutil::random_bytes(rng, 256 + 16 * static_cast<std::size_t>(i));
    ids.push_back(store.insert(payload, meta_at(static_cast<std::uint64_t>(i))));
    store.audit();
  }
  // The 4 KiB budget forced evictions along the way.
  EXPECT_GT(store.evictions(), 0u);
  for (const std::uint64_t id : ids) {
    (void)store.lookup(id);  // touches the LRU list
    store.audit();
  }
  for (const std::uint64_t id : ids) {
    store.erase(id);
    store.audit();
  }
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.bytes_used(), 0u);
}

TEST(PacketStoreAudit, CatchesDuplicateIdRestore) {
  if (!util::kAuditEnabled) GTEST_SKIP() << "audits compiled out";
  PacketStore store;
  // Same id twice: breaks the index <-> LRU-list bijection.  Only the
  // test seam can make the store hand an id out twice.
  const std::uint64_t id = store.insert(util::Bytes{1, 2, 3}, PacketMeta{});
  store.set_next_id_for_test(id);
  (void)store.insert(util::Bytes{4, 5, 6}, PacketMeta{});
  FailureRecorder rec;
  store.audit();
  ASSERT_TRUE(rec.tripped());
}

// The store's LRU list and the L2 stripe's global and per-host chains
// all audit through this one helper, so a known-bad chain here stands
// for all three.
struct ChainSlot {
  std::uint32_t prev = cache::kNilSlot;
  std::uint32_t next = cache::kNilSlot;
  bool live = true;
};
using TestChain = cache::RecencyChain<&ChainSlot::prev, &ChainSlot::next>;

TEST(RecencyChainAudit, CatchesBrokenBackLinkFreedSlotAndTail) {
  if (!util::kAuditEnabled) GTEST_SKIP() << "audits compiled out";
  std::vector<ChainSlot> slots(3);
  cache::ChainEnds ends;
  for (std::uint32_t i = 0; i < 3; ++i) TestChain::push_back(slots, ends, i);
  const auto noop = [](std::uint32_t, const ChainSlot&) {};
  {
    FailureRecorder rec;
    EXPECT_EQ(TestChain::audit(slots, ends, "chain", noop), 3u);
    EXPECT_FALSE(rec.tripped());
  }
  {
    std::vector<ChainSlot> bad = slots;
    bad[2].prev = 0;  // skips its real predecessor
    FailureRecorder rec;
    (void)TestChain::audit(bad, ends, "chain", noop);
    ASSERT_TRUE(rec.tripped());
    EXPECT_NE(rec.messages()[0].find("back-link"), std::string::npos);
  }
  {
    std::vector<ChainSlot> bad = slots;
    bad[1].live = false;
    FailureRecorder rec;
    (void)TestChain::audit(bad, ends, "chain", noop);
    ASSERT_TRUE(rec.tripped());
    EXPECT_NE(rec.messages()[0].find("freed slot"), std::string::npos);
  }
  {
    cache::ChainEnds bad_ends = ends;
    bad_ends.tail = 1;  // the walk ends at 2
    FailureRecorder rec;
    (void)TestChain::audit(slots, bad_ends, "chain", noop);
    ASSERT_TRUE(rec.tripped());
    EXPECT_NE(rec.messages()[0].find("does not terminate"),
              std::string::npos);
  }
}

TEST(ByteCacheAudit, CatchesFingerprintBeyondIdHorizon) {
  if (!util::kAuditEnabled) GTEST_SKIP() << "audits compiled out";
  PacketStore store;
  cache::FingerprintTable index;
  // An id the store never assigned: every audit must flag it, because a
  // decoder holding such an entry can never resolve the region.
  index.put(0xDEADBEEFu, cache::FpEntry{99, 0});
  FailureRecorder rec;
  (void)index.audit(store);
  ASSERT_TRUE(rec.tripped());
  EXPECT_NE(rec.messages()[0].find("never assigned"), std::string::npos);
  const std::size_t before = rec.messages().size();
  cache::CacheTier::audit_index(index, store, nullptr);
  EXPECT_GT(rec.messages().size(), before);
}

TEST(ByteCacheAudit, CatchesOffsetOutsidePayload) {
  if (!util::kAuditEnabled) GTEST_SKIP() << "audits compiled out";
  PacketStore store;
  const std::uint64_t id = store.insert(util::Bytes(64, 0xAA), PacketMeta{});
  cache::FingerprintTable index;
  index.put(0x1234u, cache::FpEntry{id, 64});  // one past end
  FailureRecorder rec;
  (void)index.audit(store);
  ASSERT_TRUE(rec.tripped());
  EXPECT_NE(rec.messages()[0].find("outside payload"), std::string::npos);
  const std::size_t before = rec.messages().size();
  cache::CacheTier::audit_index(index, store, nullptr);
  ASSERT_GT(rec.messages().size(), before);
  EXPECT_NE(rec.messages()[before].find("past the 64-byte payload"),
            std::string::npos);
}

TEST(ByteCacheAudit, StaleEntriesAreLegal) {
  // Lazy invalidation means a fingerprint may outlive its packet; the
  // index audit must count, not flag, those entries.  (A bare store has
  // no eviction listener, so nothing purges the entry.)
  PacketStore store;
  const std::uint64_t id = store.insert(util::Bytes(64, 0xAA), PacketMeta{});
  cache::FingerprintTable index;
  index.put(0x1234u, cache::FpEntry{id, 10});
  FailureRecorder rec;
  EXPECT_EQ(index.audit(store), 0u);
  ASSERT_TRUE(store.erase(id));
  EXPECT_EQ(index.audit(store), 1u);
  EXPECT_FALSE(rec.tripped());
}

// ----------------------------------------------------- 48-bit id field --

TEST(PacketIdBound, StoreChecksTheIdsItAssigns) {
  PacketStore store;
  store.set_next_id_for_test(cache::kPacketIdLimit - 1);
  FailureRecorder rec;
  EXPECT_EQ(store.insert(util::Bytes(8, 2), PacketMeta{}),
            cache::kPacketIdLimit - 1);
  EXPECT_FALSE(rec.tripped());
  EXPECT_EQ(store.next_id(), cache::kPacketIdLimit);
  (void)store.insert(util::Bytes(8, 3), PacketMeta{});
  ASSERT_TRUE(rec.tripped());
  EXPECT_NE(rec.messages()[0].find("48-bit"), std::string::npos);
}

TEST(PacketIdBound, IndexChecksEntryIds) {
  cache::FingerprintTable table;
  FailureRecorder rec;
  table.put(0xAB, cache::FpEntry{cache::kPacketIdLimit - 1, 1459});
  EXPECT_FALSE(rec.tripped());
  const auto e = table.get(0xAB);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->packet_id, cache::kPacketIdLimit - 1);
  EXPECT_EQ(e->offset, 1459u);
  table.put(0xCD, cache::FpEntry{cache::kPacketIdLimit, 0});
  ASSERT_TRUE(rec.tripped());
  EXPECT_NE(rec.messages()[0].find("48-bit"), std::string::npos);
}

// -------------------------------------------------------- codec audits --

TEST(CodecAudit, EncoderAndDecoderStayCleanOverAStream) {
  util::Rng rng(11);
  core::DreParams params;
  core::Encoder enc = testutil::test_encoder(core::PolicyKind::kNaive, params);
  core::Decoder dec(params);
  // Redundant traffic (repeated halves) so regions actually get encoded.
  const util::Bytes base = testutil::random_bytes(rng, 1200);
  for (int i = 0; i < 40; ++i) {
    util::Bytes payload = base;
    payload[0] = static_cast<std::uint8_t>(i);
    auto pkt = testutil::make_udp_packet(payload);
    enc.process(*pkt);
    enc.audit();
    dec.process(*pkt);
    dec.audit();
  }
  EXPECT_GT(enc.stats().encoded_packets, 0u);
  EXPECT_EQ(dec.stats().drops(), 0u);
}

// ------------------------------------------------- sharded gateway index --

TEST(ShardedDecoderCheck, OutOfRangeShardIndexReportsAndDrops) {
  core::GatewayConfig cfg;
  cfg.shards = 2;
  gateway::ShardedDecoderGateway dec(cfg);
  std::size_t delivered = 0;
  dec.set_worker_sink([&](std::size_t, packet::PacketPtr) { ++delivered; });
  const util::Bytes payload(64, 'x');
  {
    FailureRecorder rec;
    dec.submit_to_shard(dec.shard_count(), testutil::make_udp_packet(payload));
    ASSERT_EQ(rec.messages().size(), 1u);
    EXPECT_NE(rec.messages()[0].find("on a gateway of 2 shards"),
              std::string::npos);
  }
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(dec.stats().packets, 0u);
  // An in-range index still decodes.
  dec.submit_to_shard(1, testutil::make_udp_packet(payload));
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(dec.shard(1).stats().packets, 1u);
}

// ---------------------------------------------------- simulator cadence --

TEST(SimulatorAudit, RunsAuditorsOnTheRequestedCadence) {
  sim::Simulator sim;
  int calls = 0;
  const auto id = sim.add_auditor([&calls] { ++calls; });
  sim.request_audit_interval(4);
  for (int i = 0; i < 12; ++i) sim.after(i, [] {});
  sim.run();
  EXPECT_EQ(calls, 3);  // every 4th of 12 events
  sim.remove_auditor(id);
  for (int i = 0; i < 8; ++i) sim.after(i, [] {});
  sim.run();
  EXPECT_EQ(calls, 3);  // removed auditors never fire
}

TEST(SimulatorAudit, SmallestNonzeroIntervalWins) {
  sim::Simulator sim;
  sim.request_audit_interval(512);
  sim.request_audit_interval(16);
  sim.request_audit_interval(0);    // no-op
  sim.request_audit_interval(256);  // larger: ignored
  EXPECT_EQ(sim.audit_interval(), 16u);
}

TEST(SimulatorAudit, PipelineRegistersAuditsWithTheSimulator) {
  sim::Simulator sim;
  app::PipelineConfig cfg;
  cfg.policy = core::PolicyKind::kNaive;
  cfg.audit_interval_events = 16;
  util::Rng rng(3);
  {
    app::Pipeline pipe(sim, cfg);
    pipe.sender().start(testutil::random_bytes(rng, 40'000));
    sim.run();
    EXPECT_TRUE(pipe.sender().completed());
    EXPECT_GT(sim.audits_run(), 0u);
    // A transfer that completed under periodic audits is itself the
    // assertion: any violated invariant would have aborted the test.
    pipe.audit();
  }
  // The destroyed pipeline deregistered its auditor: further events run
  // without invoking it (the audit pass is skipped entirely).
  const std::uint64_t audits_before = sim.audits_run();
  for (int i = 0; i < 64; ++i) sim.after(i, [] {});
  sim.run();
  EXPECT_EQ(sim.audits_run(), audits_before);
}

}  // namespace
}  // namespace bytecache
