// Correctness battery for the coded-repair layer (DESIGN.md §13): GF(256)
// field axioms over randomized operands, exhaustive mul/div round-trips,
// the reconstruction identity (encode G packets, drop any <= R subset,
// byte equality after repair — exhaustive for small G, randomized for
// large G), the reorder cache's in-order release discipline, and the
// bounded-liveness force-release paths.  Randomized tests log their seed
// (BYTECACHE_TEST_SEED overrides).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "fec/decoder.h"
#include "fec/encoder.h"
#include "fec/gf256.h"
#include "fec/wire.h"
#include "tests/testutil.h"
#include "util/rng.h"

namespace bytecache {
namespace {

using fec::gf_axpy;
using fec::gf_div;
using fec::gf_inv;
using fec::gf_mul;
using fec::gf_scale;
using fec::RepairConfig;
using fec::RepairDecoder;
using fec::RepairEncoder;

// ---------------------------------------------------------------- GF(256) --

TEST(Gf256, MulDivRoundTripsForAllNonzeroElements) {
  // Exhaustive: every nonzero element has an inverse and division undoes
  // multiplication — 255 x 255 pairs, no sampling.
  for (unsigned a = 1; a < 256; ++a) {
    const auto ua = static_cast<std::uint8_t>(a);
    ASSERT_EQ(gf_mul(ua, gf_inv(ua)), 1) << "a=" << a;
    for (unsigned b = 1; b < 256; ++b) {
      const auto ub = static_cast<std::uint8_t>(b);
      ASSERT_EQ(gf_div(gf_mul(ua, ub), ub), ua) << "a=" << a << " b=" << b;
      ASSERT_NE(gf_mul(ua, ub), 0) << "zero divisor: " << a << "*" << b;
    }
  }
}

TEST(Gf256, FieldAxiomsOverRandomizedOperands) {
  util::Rng rng(testutil::test_seed(0xFEC01));
  for (int i = 0; i < 20000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.next_u64());
    const auto b = static_cast<std::uint8_t>(rng.next_u64());
    const auto c = static_cast<std::uint8_t>(rng.next_u64());
    // Multiplicative identity, commutativity, associativity.
    ASSERT_EQ(gf_mul(a, 1), a);
    ASSERT_EQ(gf_mul(a, b), gf_mul(b, a));
    ASSERT_EQ(gf_mul(gf_mul(a, b), c), gf_mul(a, gf_mul(b, c)));
    // Addition is XOR: a + a = 0, and multiplication distributes.
    ASSERT_EQ(gf_mul(a, static_cast<std::uint8_t>(b ^ c)),
              gf_mul(a, b) ^ gf_mul(a, c));
    // Zero annihilates.
    ASSERT_EQ(gf_mul(a, 0), 0);
  }
}

TEST(Gf256, AxpyAndScaleMatchScalarReference) {
  util::Rng rng(testutil::test_seed(0xFEC02));
  for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                              std::size_t{64}, std::size_t{1500}}) {
    const util::Bytes src = testutil::random_bytes(rng, n);
    for (const unsigned c : {0u, 1u, 2u, 0x53u, 0xFFu}) {
      const auto uc = static_cast<std::uint8_t>(c);
      util::Bytes dst = testutil::random_bytes(rng, n);
      util::Bytes expect = dst;
      for (std::size_t i = 0; i < n; ++i) {
        expect[i] ^= gf_mul(uc, src[i]);
      }
      gf_axpy(dst.data(), src.data(), n, uc);
      ASSERT_EQ(dst, expect) << "axpy n=" << n << " c=" << c;

      util::Bytes buf = src;
      util::Bytes sexpect(n);
      for (std::size_t i = 0; i < n; ++i) sexpect[i] = gf_mul(uc, src[i]);
      gf_scale(buf.data(), n, uc);
      ASSERT_EQ(buf, sexpect) << "scale n=" << n << " c=" << c;
    }
  }
}

TEST(Gf256, CauchyCoefficientRowsAreDistinctAndNonzero) {
  // repair_coeff(r, j) = 1 / (x_r + y_j) with disjoint index sets: no
  // coefficient is zero and no two repair rows are proportional, the
  // ingredients of the any-R-losses recovery guarantee (the guarantee
  // itself is exercised end-to-end below).
  for (unsigned r = 0; r < fec::kMaxRepairPackets; ++r) {
    for (unsigned j = 0; j < fec::kMaxGenerationPackets; ++j) {
      ASSERT_NE(fec::repair_coeff(static_cast<std::uint8_t>(r),
                                  static_cast<std::uint8_t>(j)),
                0);
    }
  }
  for (unsigned r1 = 0; r1 < fec::kMaxRepairPackets; ++r1) {
    for (unsigned r2 = r1 + 1; r2 < fec::kMaxRepairPackets; ++r2) {
      // Rows r1, r2 differ in more than a scalar factor: the ratio of
      // their entries is not constant across columns.
      const std::uint8_t ratio0 =
          gf_div(fec::repair_coeff(static_cast<std::uint8_t>(r1), 0),
                 fec::repair_coeff(static_cast<std::uint8_t>(r2), 0));
      bool varies = false;
      for (unsigned j = 1; j < fec::kMaxGenerationPackets && !varies; ++j) {
        const std::uint8_t ratio =
            gf_div(fec::repair_coeff(static_cast<std::uint8_t>(r1),
                                     static_cast<std::uint8_t>(j)),
                   fec::repair_coeff(static_cast<std::uint8_t>(r2),
                                     static_cast<std::uint8_t>(j)));
        varies = ratio != ratio0;
      }
      ASSERT_TRUE(varies) << "rows " << r1 << " and " << r2
                          << " are proportional";
    }
  }
}

// ------------------------------------------------- encode/repair fixture --

/// Wire images of `n` distinct member packets (varying sizes so the
/// symbol padding paths are exercised), plus their packets for replay.
struct MemberSet {
  std::vector<packet::PacketPtr> pkts;
  std::vector<util::Bytes> wires;
};

MemberSet make_members(util::Rng& rng, std::size_t n) {
  MemberSet m;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t len = 40 + rng.uniform(0, 1100);
    auto p = testutil::make_tcp_packet(
        testutil::random_bytes(rng, len),
        1000 + static_cast<std::uint32_t>(i) * 1460);
    m.wires.push_back(packet::to_wire(*p));
    m.pkts.push_back(std::move(p));
  }
  return m;
}

/// Runs one generation through the encoder, returning the emitted repair
/// payloads and the tags assigned to each member.
struct EncodedGeneration {
  std::vector<RepairEncoder::Tag> tags;
  std::vector<util::Bytes> repairs;
};

EncodedGeneration encode_generation(RepairEncoder& enc, const MemberSet& m) {
  EncodedGeneration g;
  for (const util::Bytes& w : m.wires) {
    enc.begin_packet();
    g.tags.push_back(enc.next_tag());
    enc.add_member(w);
    for (const util::Bytes& r : enc.emitted()) g.repairs.push_back(r);
  }
  if (enc.generation_open()) {
    enc.begin_packet();
    enc.close_generation();
    for (const util::Bytes& r : enc.emitted()) g.repairs.push_back(r);
  }
  return g;
}

/// Feeds the surviving members (in order) and then every repair into a
/// fresh decoder; returns the released packets.
std::vector<RepairDecoder::Released> decode_with_drops(
    const RepairConfig& cfg, const MemberSet& m, const EncodedGeneration& g,
    const std::vector<bool>& dropped) {
  RepairDecoder dec(cfg);
  std::vector<RepairDecoder::Released> out;
  for (std::size_t i = 0; i < m.pkts.size(); ++i) {
    if (dropped[i]) continue;
    dec.on_data(g.tags[i].gen_id, g.tags[i].gen_seq,
                packet::clone_packet(*m.pkts[i]), out);
  }
  for (const util::Bytes& r : g.repairs) dec.on_repair(r, out);
  dec.audit();
  return out;
}

/// Asserts the released sequence is exactly the member set, in order,
/// byte-for-byte, with dropped members flagged as reconstructed.
void expect_full_recovery(const MemberSet& m,
                          const std::vector<RepairDecoder::Released>& out,
                          const std::vector<bool>& dropped) {
  ASSERT_EQ(out.size(), m.pkts.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_NE(out[i].pkt, nullptr) << "member " << i;
    EXPECT_EQ(out[i].reconstructed, dropped[i]) << "member " << i;
    EXPECT_EQ(packet::to_wire(*out[i].pkt), m.wires[i])
        << "member " << i << " bytes diverge";
  }
}

// ------------------------------------------------ reconstruction identity --

TEST(RepairCode, ExhaustiveSmallGenerationEveryDropSubsetRecovers) {
  util::Rng rng(testutil::test_seed(0xFEC03));
  constexpr std::size_t kG = 6, kR = 2;
  RepairConfig cfg;
  cfg.generation_packets = kG;
  cfg.repair_packets = kR;
  const MemberSet m = make_members(rng, kG);
  RepairEncoder enc(cfg);
  const EncodedGeneration g = encode_generation(enc, m);
  ASSERT_EQ(g.repairs.size(), kR);
  enc.audit();

  // Every drop subset of size 0, 1 and 2 — exhaustive.
  for (unsigned mask = 0; mask < (1u << kG); ++mask) {
    if (__builtin_popcount(mask) > static_cast<int>(kR)) continue;
    std::vector<bool> dropped(kG);
    for (std::size_t i = 0; i < kG; ++i) dropped[i] = ((mask >> i) & 1) != 0;
    const auto out = decode_with_drops(cfg, m, g, dropped);
    expect_full_recovery(m, out, dropped);
  }
}

TEST(RepairCode, RandomLargeGenerationDropsUpToRRecover) {
  util::Rng rng(testutil::test_seed(0xFEC04));
  constexpr std::size_t kG = 48, kR = 8;
  RepairConfig cfg;
  cfg.generation_packets = kG;
  cfg.repair_packets = kR;
  const MemberSet m = make_members(rng, kG);
  RepairEncoder enc(cfg);
  const EncodedGeneration g = encode_generation(enc, m);
  ASSERT_EQ(g.repairs.size(), kR);

  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t losses = rng.uniform(1, kR);
    std::vector<std::size_t> idx(kG);
    for (std::size_t i = 0; i < kG; ++i) idx[i] = i;
    // Random loss subset via partial Fisher-Yates.
    for (std::size_t i = 0; i < losses; ++i) {
      std::swap(idx[i], idx[rng.uniform(i, kG - 1)]);
    }
    std::vector<bool> dropped(kG);
    for (std::size_t i = 0; i < losses; ++i) dropped[idx[i]] = true;
    const auto out = decode_with_drops(cfg, m, g, dropped);
    expect_full_recovery(m, out, dropped);
  }
}

TEST(RepairCode, RepairsArriveBeforeTheirMembers) {
  // Repairs first, then the surviving members: the incremental reduction
  // must handle either arrival order.
  util::Rng rng(testutil::test_seed(0xFEC05));
  constexpr std::size_t kG = 8, kR = 3;
  RepairConfig cfg;
  cfg.generation_packets = kG;
  cfg.repair_packets = kR;
  const MemberSet m = make_members(rng, kG);
  RepairEncoder enc(cfg);
  const EncodedGeneration g = encode_generation(enc, m);

  std::vector<bool> dropped(kG);
  dropped[0] = dropped[3] = dropped[7] = true;  // 3 = R losses
  RepairDecoder dec(cfg);
  std::vector<RepairDecoder::Released> out;
  for (const util::Bytes& r : g.repairs) dec.on_repair(r, out);
  for (std::size_t i = 0; i < kG; ++i) {
    if (dropped[i]) continue;
    dec.on_data(g.tags[i].gen_id, g.tags[i].gen_seq,
                packet::clone_packet(*m.pkts[i]), out);
  }
  dec.audit();
  expect_full_recovery(m, out, dropped);
  EXPECT_EQ(dec.stats().reconstructed, 3u);
  EXPECT_EQ(dec.stats().forced_releases, 0u);
}

TEST(RepairCode, EarlyClosedShortGenerationStillRecovers) {
  // A generation closed early (retransmission / teardown) has fewer than
  // G members; its repairs must still cover it.
  util::Rng rng(testutil::test_seed(0xFEC06));
  RepairConfig cfg;  // G = 16 default
  cfg.repair_packets = 2;
  const MemberSet m = make_members(rng, 5);  // closes at 5 of 16
  RepairEncoder enc(cfg);
  const EncodedGeneration g = encode_generation(enc, m);
  ASSERT_EQ(g.repairs.size(), 2u);
  EXPECT_EQ(enc.stats().early_closes, 1u);

  std::vector<bool> dropped(5);
  dropped[1] = dropped[4] = true;
  const auto out = decode_with_drops(cfg, m, g, dropped);
  expect_full_recovery(m, out, dropped);
}

// ------------------------------------------------------ loss-sized repair --

/// P[Binomial(n, p) > r], summed term by term.
double binomial_tail(std::size_t n, double p, std::size_t r) {
  double at_most_r = 0.0;
  double choose = 1.0;  // C(n, k)
  for (std::size_t k = 0; k <= r && k <= n; ++k) {
    if (k > 0) {
      choose *= static_cast<double>(n - k + 1) / static_cast<double>(k);
    }
    at_most_r += choose * std::pow(p, static_cast<double>(k)) *
                 std::pow(1.0 - p, static_cast<double>(n - k));
  }
  return 1.0 - at_most_r;
}

TEST(RepairCode, LossSizedRepairsIsTheSmallestCountMeetingTheTailTarget) {
  EXPECT_EQ(fec::loss_sized_repairs(16, 0.0), 0);
  EXPECT_EQ(fec::loss_sized_repairs(16, 1.0), fec::kMaxRepairPackets);
  std::uint8_t prev = 0;
  for (const double p : {0.001, 0.01, 0.02, 0.05, 0.0909, 0.15, 0.3}) {
    const std::uint8_t r = fec::loss_sized_repairs(16, p);
    EXPECT_GE(r, prev) << "p=" << p;  // never fewer for a worse path
    prev = r;
    if (r == fec::kMaxRepairPackets) continue;
    EXPECT_LE(binomial_tail(16 + r, p, r), fec::kRepairTailTarget)
        << "p=" << p << " r=" << int{r};
    if (r > 0) {
      EXPECT_GT(binomial_tail(16 + r - 1, p, r - 1), fec::kRepairTailTarget)
          << "p=" << p << " r=" << int{r} << " is not the smallest";
    }
  }
  // A 10% path (estimate p/(1+p)) needs more than the configured two.
  EXPECT_GT(fec::loss_sized_repairs(16, 0.1 / 1.1), RepairConfig{}.repair_packets);
}

/// Closes one generation of `n` members, each described by `loss`, and
/// returns its R (the repairs it emitted).
std::size_t close_generation_of(RepairEncoder& enc, const MemberSet& m,
                                std::size_t n, const fec::MemberLoss& loss) {
  std::size_t repairs = 0;
  for (std::size_t i = 0; i < n; ++i) {
    enc.begin_packet();
    (void)enc.next_tag();
    enc.add_member(m.wires[i % m.wires.size()], loss);
    repairs += enc.emitted().size();
  }
  if (enc.generation_open()) {
    enc.begin_packet();
    enc.close_generation();
    repairs += enc.emitted().size();
  }
  return repairs;
}

constexpr fec::MemberLoss kCleanPath{0.0, ~std::uint64_t{0}};

TEST(RepairCode, RepairCountFollowsObservedLoss) {
  util::Rng rng(testutil::test_seed(0xFEC0E));
  RepairConfig cfg;  // G = 16, R = 2
  const MemberSet m = make_members(rng, 16);
  RepairEncoder enc(cfg);
  const std::size_t g = cfg.generation_packets;
  // Start-up: nothing is known about the path yet.
  for (std::uint64_t i = 0; i < fec::kLossMemoryGenerations; ++i) {
    ASSERT_EQ(close_generation_of(enc, m, g, kCleanPath), cfg.repair_packets)
        << "start-up generation " << i;
  }
  // A path clean for the whole memory pays nothing ...
  EXPECT_EQ(close_generation_of(enc, m, g, kCleanPath), 0u);
  EXPECT_EQ(close_generation_of(
                enc, m, g, {0.0, fec::kLossMemoryGenerations}),
            0u);
  // ... but one member whose path lost a packet within the memory brings
  // R back, and so does loss seen while the generation is open.
  {
    std::size_t repairs = 0;
    for (std::size_t i = 0; i < g; ++i) {
      enc.begin_packet();
      (void)enc.next_tag();
      enc.add_member(m.wires[i], i == 7 ? fec::MemberLoss{
                                              0.0,
                                              fec::kLossMemoryGenerations - 1}
                                        : kCleanPath);
      repairs += enc.emitted().size();
    }
    EXPECT_EQ(repairs, cfg.repair_packets);
  }
  enc.begin_packet();
  (void)enc.next_tag();
  enc.add_member(m.wires[0], kCleanPath);
  enc.note_loss();
  EXPECT_EQ(close_generation_of(enc, m, g - 1, kCleanPath),
            cfg.repair_packets);
  // Loss in excess of what R masks raises R to the loss-sized count.
  const double ten_percent = 0.1 / 1.1;
  EXPECT_EQ(close_generation_of(enc, m, g, {ten_percent, 0}),
            fec::loss_sized_repairs(g, ten_percent));
  // A clean generation closed short still announces its size.
  EXPECT_EQ(close_generation_of(enc, m, 5, kCleanPath), 1u);
  EXPECT_EQ(enc.repairs_per_generation().count(), enc.stats().generations);
  EXPECT_EQ(enc.repairs_per_generation().sum(), enc.stats().repair_payloads);
  enc.audit();
}

// ----------------------------------------------------------- repair wire --

TEST(RepairWire, EmittedRepairsParseBackAndPinTheirCoefficients) {
  util::Rng rng(testutil::test_seed(0xFEC07));
  RepairConfig cfg;
  cfg.generation_packets = 4;
  cfg.repair_packets = 3;
  const MemberSet m = make_members(rng, 4);
  RepairEncoder enc(cfg);
  const EncodedGeneration g = encode_generation(enc, m);
  ASSERT_EQ(g.repairs.size(), 3u);
  for (std::size_t r = 0; r < g.repairs.size(); ++r) {
    ASSERT_TRUE(fec::is_repair_payload(g.repairs[r]));
    fec::RepairPacket p;
    ASSERT_TRUE(fec::RepairPacket::parse_repair_into(g.repairs[r], p));
    EXPECT_EQ(p.gen_size, 4);
    EXPECT_EQ(p.repair_index, r);
    EXPECT_EQ(p.repair_total, 3);
    ASSERT_EQ(p.coeffs.size(), 4u);
    for (std::size_t j = 0; j < p.coeffs.size(); ++j) {
      // The decoder reads coefficients off the wire; pin that they are
      // the Cauchy construction so either side can be upgraded alone.
      EXPECT_EQ(p.coeffs[j],
                fec::repair_coeff(static_cast<std::uint8_t>(r),
                                  static_cast<std::uint8_t>(j)));
    }
  }
}

TEST(RepairWire, GenSerialArithmeticWraps) {
  EXPECT_TRUE(fec::gen_newer(1, 0));
  EXPECT_FALSE(fec::gen_newer(0, 1));
  EXPECT_FALSE(fec::gen_newer(5, 5));
  EXPECT_TRUE(fec::gen_newer(2, 0xFFFF));
  EXPECT_EQ(fec::gen_distance(2, 0xFFFF), 3);
  EXPECT_FALSE(fec::gen_newer(0x8000, 0));
}

// ---------------------------------------------------------- reorder cache --

TEST(RepairDecoder, ReorderedArrivalsAreReleasedInOrder) {
  util::Rng rng(testutil::test_seed(0xFEC08));
  constexpr std::size_t kG = 12;
  RepairConfig cfg;
  cfg.generation_packets = kG;
  cfg.repair_packets = 2;
  const MemberSet m = make_members(rng, kG);
  RepairEncoder enc(cfg);
  const EncodedGeneration g = encode_generation(enc, m);

  // Shuffle all arrivals (no losses), feed out of order.
  std::vector<std::size_t> order(kG);
  for (std::size_t i = 0; i < kG; ++i) order[i] = i;
  for (std::size_t i = kG; i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform(0, i - 1)]);
  }
  RepairDecoder dec(cfg);
  std::vector<RepairDecoder::Released> out;
  for (const std::size_t i : order) {
    dec.on_data(g.tags[i].gen_id, g.tags[i].gen_seq,
                packet::clone_packet(*m.pkts[i]), out);
  }
  dec.audit();
  const std::vector<bool> dropped(kG, false);
  expect_full_recovery(m, out, dropped);
  EXPECT_EQ(dec.stats().forced_releases, 0u);
  EXPECT_EQ(dec.stats().reconstructed, 0u);
  EXPECT_GT(dec.stats().resequenced, 0u);
}

/// Encodes `packets` members on a clean path and feeds each, then any
/// repairs its generation closed with, into `dec` in order.  With
/// `expect_direct`, checks that every member is released on arrival.
void feed_clean_stream(RepairEncoder& enc, RepairDecoder& dec,
                              const MemberSet& m, std::size_t packets,
                              std::vector<RepairDecoder::Released>& out,
                              bool expect_direct) {
  for (std::size_t i = 0; i < packets; ++i) {
    const packet::Packet& p = *m.pkts[i % m.pkts.size()];
    enc.begin_packet();
    const RepairEncoder::Tag tag = enc.next_tag();
    enc.add_member(packet::to_wire(p), kCleanPath);
    const std::size_t before = out.size();
    dec.on_data(tag.gen_id, tag.gen_seq, packet::clone_packet(p), out);
    if (expect_direct) {
      // Released on arrival: exactly this packet, nothing held back.
      EXPECT_EQ(out.size(), before + 1) << "packet " << i;
      EXPECT_EQ(dec.buffered(), 0u) << "packet " << i;
    }
    for (const util::Bytes& r : enc.emitted()) dec.on_repair(r, out);
  }
}

TEST(RepairDecoder, RepairFreeGenerationsReleaseWithoutStalling) {
  // A lossless in-order stream whose generations carry no repairs past
  // start-up: each retires on its last member, so every packet flows
  // straight through and the cursor never waits on a size announcement.
  util::Rng rng(testutil::test_seed(0xFEC0F));
  RepairConfig cfg;  // G = 16
  const MemberSet m = make_members(rng, 16);
  RepairEncoder enc(cfg);
  RepairDecoder dec(cfg);
  std::vector<RepairDecoder::Released> out;
  constexpr std::size_t kRepairFree = 200;
  const std::size_t gens = fec::kLossMemoryGenerations + kRepairFree;
  const std::size_t fed = gens * cfg.generation_packets;
  feed_clean_stream(enc, dec, m, fed, out, /*expect_direct=*/true);
  dec.audit();
  enc.audit();
  // The last kRepairFree generations emitted nothing.
  EXPECT_EQ(enc.stats().generations, gens);
  EXPECT_EQ(enc.stats().repair_payloads,
            fec::kLossMemoryGenerations * cfg.repair_packets);
  ASSERT_EQ(out.size(), fed);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i].pkt->uid, m.pkts[i % m.pkts.size()]->uid) << i;
  }
  EXPECT_EQ(dec.stats().released, fed);
  EXPECT_EQ(dec.stats().resequenced, 0u);
  EXPECT_EQ(dec.stats().forced_releases, 0u);
  EXPECT_EQ(dec.stats().generations_abandoned, 0u);
  EXPECT_EQ(dec.stats().generations_completed, gens);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(RepairDecoder, ShortGenerationWaitsForItsSizeAnnouncement) {
  // Past start-up a clean generation closed short (a retransmission or
  // teardown) carries one repair: only it says the generation ended, so
  // the cursor holds newer traffic until it arrives.
  util::Rng rng(testutil::test_seed(0xFEC10));
  RepairConfig cfg;  // G = 16
  const MemberSet m = make_members(rng, 16);
  RepairEncoder enc(cfg);
  RepairDecoder dec(cfg);
  std::vector<RepairDecoder::Released> out;
  feed_clean_stream(enc, dec, m,
                    fec::kLossMemoryGenerations * cfg.generation_packets, out,
                    /*expect_direct=*/true);
  const std::uint64_t completed = dec.stats().generations_completed;

  constexpr std::size_t kShort = 5;
  feed_clean_stream(enc, dec, m, kShort, out, /*expect_direct=*/true);
  enc.begin_packet();
  enc.close_generation();
  ASSERT_EQ(enc.emitted().size(), 1u);
  const util::Bytes repair = enc.emitted()[0];
  fec::RepairPacket parsed;
  ASSERT_TRUE(fec::RepairPacket::parse_repair_into(repair, parsed));
  EXPECT_EQ(parsed.gen_size, kShort);
  EXPECT_EQ(parsed.repair_total, 1);
  // Its members flowed through, but the generation is still open ...
  EXPECT_EQ(dec.stats().generations_completed, completed);
  // ... so the next generation's first member waits behind it.
  const std::size_t before = out.size();
  feed_clean_stream(enc, dec, m, 1, out, /*expect_direct=*/false);
  EXPECT_EQ(out.size(), before);
  EXPECT_EQ(dec.buffered(), 1u);
  // The repair announces the size: the generation retires and the held
  // member follows.
  dec.on_repair(repair, out);
  EXPECT_EQ(out.size(), before + 1);
  EXPECT_EQ(dec.buffered(), 0u);
  EXPECT_EQ(dec.stats().generations_completed, completed + 1);
  EXPECT_EQ(dec.stats().resequenced, 1u);
  EXPECT_EQ(dec.stats().forced_releases, 0u);
  dec.audit();
}

TEST(RepairDecoder, DuplicateArrivalsAreSuppressedNotReplayed) {
  util::Rng rng(testutil::test_seed(0xFEC09));
  constexpr std::size_t kG = 4;
  RepairConfig cfg;
  cfg.generation_packets = kG;
  cfg.repair_packets = 1;
  const MemberSet m = make_members(rng, kG);
  RepairEncoder enc(cfg);
  const EncodedGeneration g = encode_generation(enc, m);

  RepairDecoder dec(cfg);
  std::vector<RepairDecoder::Released> out;
  for (std::size_t i = 0; i < kG; ++i) {
    dec.on_data(g.tags[i].gen_id, g.tags[i].gen_seq,
                packet::clone_packet(*m.pkts[i]), out);
  }
  ASSERT_EQ(out.size(), kG);
  // Re-delivering an already-released member (in-flight duplication or a
  // spurious retransmission of the same wire image) must NOT surface it
  // again: replaying its cache ops would desync the core decoder.
  dec.on_data(g.tags[1].gen_id, g.tags[1].gen_seq,
              packet::clone_packet(*m.pkts[1]), out);
  EXPECT_EQ(out.size(), kG);
  EXPECT_EQ(dec.stats().duplicates, 1u);
  // Duplicate repairs are counted redundant, not re-solved.
  for (const util::Bytes& r : g.repairs) dec.on_repair(r, out);
  for (const util::Bytes& r : g.repairs) dec.on_repair(r, out);
  EXPECT_EQ(out.size(), kG);
  EXPECT_GT(dec.stats().repairs_redundant, 0u);
  dec.audit();
}

TEST(RepairDecoder, UnrecoverableGenerationIsForceReleasedPromptly) {
  util::Rng rng(testutil::test_seed(0xFEC0A));
  constexpr std::size_t kG = 8, kR = 2;
  RepairConfig cfg;
  cfg.generation_packets = kG;
  cfg.repair_packets = kR;
  // kG members fill generation 0; one more opens generation 1 — the
  // newer-traffic evidence the give-up heuristic requires.
  const MemberSet m = make_members(rng, kG + 1);
  RepairEncoder enc(cfg);
  const EncodedGeneration g = encode_generation(enc, m);
  ASSERT_EQ(g.repairs.size(), 2 * kR);  // both generations closed

  // R + 1 losses in generation 0: short of rows even with every repair.
  std::vector<bool> dropped(kG);
  dropped[1] = dropped[2] = dropped[5] = true;
  RepairDecoder dec(cfg);
  std::vector<RepairDecoder::Released> out;
  for (std::size_t i = 0; i < kG; ++i) {
    if (dropped[i]) continue;
    dec.on_data(g.tags[i].gen_id, g.tags[i].gen_seq,
                packet::clone_packet(*m.pkts[i]), out);
  }
  for (std::size_t r = 0; r < kR; ++r) dec.on_repair(g.repairs[r], out);
  // All repairs seen, still unsolvable — but every arrival so far was
  // for generation 0 itself, so the decoder keeps waiting: the missing
  // members may merely be reordered behind the repairs.
  EXPECT_EQ(out.size(), 1u);  // seq 0 flowed through before the gap
  EXPECT_EQ(dec.stats().forced_releases, 0u);
  // The first packet of generation 1 proves the stream moved on: the
  // stuck generation is abandoned at once, not after the whole arrival
  // budget.  Survivors come out, gaps stay gaps for TCP to recover.
  dec.on_data(g.tags[kG].gen_id, g.tags[kG].gen_seq,
              packet::clone_packet(*m.pkts[kG]), out);
  dec.audit();
  EXPECT_EQ(out.size(), kG - 3 + 1);
  EXPECT_EQ(out.back().pkt->uid, m.pkts[kG]->uid);
  EXPECT_GE(dec.stats().forced_releases, 1u);
  EXPECT_EQ(dec.stats().generations_abandoned, 1u);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(RepairDecoder, BlockedCursorReleasesAfterArrivalBudget) {
  util::Rng rng(testutil::test_seed(0xFEC0B));
  RepairConfig cfg;
  cfg.generation_packets = 4;
  cfg.repair_packets = 1;
  cfg.blocked_arrival_budget = 6;
  const MemberSet m = make_members(rng, 12);  // three generations of 4

  RepairEncoder enc(cfg);
  const EncodedGeneration g = encode_generation(enc, m);
  ASSERT_EQ(g.repairs.size(), 3u);  // one per generation
  RepairDecoder dec(cfg);
  std::vector<RepairDecoder::Released> out;
  // Generation 0 loses member 0 AND its only repair: unrecoverable, but
  // the decoder cannot prove it (the repair may still arrive).  Later
  // traffic keeps flowing; the arrival budget must unblock the cursor.
  for (std::size_t i = 1; i < 4; ++i) {
    dec.on_data(g.tags[i].gen_id, g.tags[i].gen_seq,
                packet::clone_packet(*m.pkts[i]), out);
  }
  EXPECT_EQ(out.size(), 0u);  // gap at seq 0 holds everything
  for (std::size_t i = 4; i < 12; ++i) {
    dec.on_data(g.tags[i].gen_id, g.tags[i].gen_seq,
                packet::clone_packet(*m.pkts[i]), out);
    // Generations 1 and 2 keep their repairs: they retire normally once
    // a repair announces their size and every member is out.
    if (i == 7) dec.on_repair(g.repairs[1], out);
  }
  dec.on_repair(g.repairs[2], out);
  dec.audit();
  // The budget fired: generation 0's survivors were force-released and
  // all later in-order traffic flowed out behind them.
  EXPECT_GE(dec.stats().forced_releases, 1u);
  EXPECT_EQ(out.size(), 11u);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(RepairDecoder, DrainReleasesEverythingOldestFirst) {
  util::Rng rng(testutil::test_seed(0xFEC0C));
  RepairConfig cfg;
  cfg.generation_packets = 4;
  cfg.repair_packets = 1;
  const MemberSet m = make_members(rng, 8);
  RepairEncoder enc(cfg);
  const EncodedGeneration g = encode_generation(enc, m);

  RepairDecoder dec(cfg);
  std::vector<RepairDecoder::Released> out;
  // Hold members back in both generations: gaps at seq 0 of each.
  for (const std::size_t i : {1ul, 2ul, 5ul, 7ul}) {
    dec.on_data(g.tags[i].gen_id, g.tags[i].gen_seq,
                packet::clone_packet(*m.pkts[i]), out);
  }
  EXPECT_EQ(out.size(), 0u);
  EXPECT_EQ(dec.buffered(), 4u);
  dec.drain(out);
  dec.audit();
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].pkt->uid, m.pkts[1]->uid);
  EXPECT_EQ(out[1].pkt->uid, m.pkts[2]->uid);
  EXPECT_EQ(out[2].pkt->uid, m.pkts[5]->uid);
  EXPECT_EQ(out[3].pkt->uid, m.pkts[7]->uid);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(RepairDecoder, GenerationWindowOverflowForceReleasesOldest) {
  util::Rng rng(testutil::test_seed(0xFEC0D));
  RepairConfig cfg;
  cfg.generation_packets = 2;
  cfg.repair_packets = 1;
  cfg.gen_window = 2;
  cfg.blocked_arrival_budget = 1000;  // keep the budget out of the way
  const MemberSet m = make_members(rng, 10);  // five generations of 2
  RepairEncoder enc(cfg);
  const EncodedGeneration g = encode_generation(enc, m);

  RepairDecoder dec(cfg);
  std::vector<RepairDecoder::Released> out;
  // Every generation is gapped at seq 0; claiming generation k (>=
  // window) must evict generation k - window rather than grow.
  for (std::size_t i = 1; i < 10; i += 2) {
    dec.on_data(g.tags[i].gen_id, g.tags[i].gen_seq,
                packet::clone_packet(*m.pkts[i]), out);
  }
  dec.audit();
  EXPECT_GE(dec.stats().forced_releases, 3u);
  EXPECT_LE(dec.buffered(), 2u);
}

}  // namespace
}  // namespace bytecache
