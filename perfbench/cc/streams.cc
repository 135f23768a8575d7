#include "streams.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "packet/ipv4.h"
#include "packet/tcp.h"
#include "packet/udp.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace perfbench {

using bc::util::Bytes;
using bc::util::BytesView;

namespace {

constexpr std::size_t kMss = 1460;
constexpr std::size_t kTcpSeqOffset = 4;  // byte offset of the seq field

std::uint32_t load_be32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} << 24 | std::uint32_t{p[1]} << 16 |
         std::uint32_t{p[2]} << 8 | std::uint32_t{p[3]};
}

void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

void push(Stream& s, Offered o) {
  s.offered_bytes += o.bytes.size();
  s.pkts.push_back(std::move(o));
}

Offered tcp_segment(std::uint32_t src, std::uint32_t dst,
                    std::uint16_t sport, std::uint16_t dport,
                    std::uint32_t seq, std::uint8_t flags, BytesView data) {
  bc::packet::TcpHeader h;
  h.src_port = sport;
  h.dst_port = dport;
  h.seq = seq;
  h.flags = flags;
  Offered o;
  o.src = src;
  o.dst = dst;
  o.bytes.reserve(bc::packet::TcpHeader::kSize + data.size());
  h.serialize(o.bytes, data, src, dst);
  return o;
}

// ---- churn_mix shape ----------------------------------------------------
// Sized so that one pass (~25 MB of segments) is several times the tier's
// capacity (3 x 256 KiB L1 + 4 MiB L2 per side): repeats of popular site
// objects still hit, but most bytes are literals — video segments are
// fresh on every fetch.
constexpr std::size_t kSites = 6;
constexpr std::size_t kPagesPerSite = 12;
constexpr std::size_t kDepsPerSite = 6;
constexpr std::size_t kClients = 240;
constexpr std::size_t kFlows = 1500;
constexpr std::size_t kActiveFlows = 24;
constexpr double kTupleReuse = 0.5;
constexpr std::size_t kVideoPerTen = 3;  // of every ten fresh 4-tuples

struct Tuple {
  std::uint32_t client = 0;
  std::uint32_t server = 0;
  std::uint16_t sport = 0;
  std::uint16_t dport = 0;
};

struct Flow {
  Tuple t;
  std::vector<std::size_t> objects;  // catalog indices
  std::uint32_t seq = 0;
  std::size_t obj = 0;               // current object
  std::size_t off = 0;               // offset in the current object
};

}  // namespace

BytesView Offered::datagram() const {
  BytesView all(bytes);
  return tcp ? all : all.subspan(bc::packet::UdpHeader::kSize);
}

Stream make_hot_replay(std::uint64_t seed) {
  bc::util::Rng rng(seed);
  const Bytes file = bc::workload::make_file1(rng, 587'567);
  const std::uint32_t src = bc::packet::make_ip(10, 0, 0, 1);
  const std::uint32_t dst = bc::packet::make_ip(10, 0, 1, 1);
  Stream s;
  std::uint32_t seq = 1;
  for (std::size_t off = 0; off < file.size(); off += kMss) {
    const std::size_t n = std::min(kMss, file.size() - off);
    push(s, tcp_segment(src, dst, 40000, 5001, seq,
                        bc::packet::TcpHeader::kAck,
                        BytesView(file.data() + off, n)));
    seq += static_cast<std::uint32_t>(n);
  }
  return s;
}

Stream make_churn_mix(std::uint64_t seed) {
  bc::util::Rng rng(seed);

  // Catalog: per site, web pages sharing the site's templates and
  // dependency files (scripts, style sheets).  Video segments are
  // appended as they are fetched.  Object sizes, the video share and the
  // objects per flow follow the index, not the seed, so that seeds vary
  // the bytes and the order but not the traffic mix (and the metrics).
  std::vector<Bytes> catalog;
  std::vector<std::vector<std::size_t>> site_objects(kSites);
  for (std::size_t site = 0; site < kSites; ++site) {
    for (std::size_t i = 0; i < kPagesPerSite; ++i) {
      bc::workload::WebPageParams p;
      p.items = 4 + (i * 5) % 11;
      p.sentences_per_item = 2;
      p.boilerplate = 1800;
      p.site_seed = seed * 131 + site;
      site_objects[site].push_back(catalog.size());
      catalog.push_back(bc::workload::make_web_page(rng, p));
    }
    for (std::size_t i = 0; i < kDepsPerSite; ++i) {
      bc::workload::DepFileParams p;
      p.size = 3'000 + (i * 1'700) % 9'000;
      site_objects[site].push_back(catalog.size());
      catalog.push_back(bc::workload::make_dep_file(rng, p));
    }
  }

  const std::uint32_t video_server = bc::packet::make_ip(172, 16, 1, 1);
  auto client_ip = [](std::size_t c) {
    return bc::packet::make_ip(10, 1, static_cast<std::uint8_t>(c / 200),
                               static_cast<std::uint8_t>(1 + c % 200));
  };

  std::vector<Tuple> closed;
  std::uint16_t next_port = 20000;
  std::size_t fresh_tuples = 0;
  std::size_t flows = 0;
  auto new_flow = [&]() {
    Flow f;
    if (!closed.empty() && rng.chance(kTupleReuse)) {
      f.t = closed[rng.uniform(0, closed.size() - 1)];
    } else {
      f.t.client = client_ip(rng.uniform(0, kClients - 1));
      const bool video = fresh_tuples++ % 10 < kVideoPerTen;
      f.t.server = video ? video_server
                         : bc::packet::make_ip(
                               172, 16, 0,
                               static_cast<std::uint8_t>(
                                   1 + rng.zipf(kSites, 0.8)));
      f.t.sport = next_port++;
      if (next_port < 20000) next_port = 20000;
      f.t.dport = video ? 8080 : 80;
    }
    const std::size_t n_objects = 1 + flows++ % 3;
    for (std::size_t i = 0; i < n_objects; ++i) {
      if (f.t.server == video_server) {
        f.objects.push_back(catalog.size());
        catalog.push_back(bc::workload::make_video(rng, rng.uniform(6'000, 20'000)));
      } else {
        const auto& objs = site_objects[(f.t.server & 0xFF) - 1];
        f.objects.push_back(objs[rng.zipf(objs.size(), 1.0)]);
      }
    }
    f.seq = static_cast<std::uint32_t>(rng.next_u64());  // random ISN
    return f;
  };

  // Flows overlap: each step advances one of the open flows by a segment.
  // Connections carry data only: the codec skips header-only segments but
  // the decoder caches them, which a bounded cache cannot absorb.
  Stream s;
  std::vector<Flow> active;
  std::size_t started = 0;
  while (started < kFlows || !active.empty()) {
    while (active.size() < kActiveFlows && started < kFlows) {
      active.push_back(new_flow());
      ++started;
    }
    const std::size_t i = rng.uniform(0, active.size() - 1);
    Flow& f = active[i];
    const Bytes& obj = catalog[f.objects[f.obj]];
    const std::size_t n = std::min(kMss, obj.size() - f.off);
    push(s, tcp_segment(f.t.client, f.t.server, f.t.sport, f.t.dport, f.seq,
                        bc::packet::TcpHeader::kAck,
                        BytesView(obj.data() + f.off, n)));
    f.seq += static_cast<std::uint32_t>(n);
    f.off += n;
    if (f.off == obj.size()) {
      f.off = 0;
      if (++f.obj == f.objects.size()) {
        closed.push_back(f.t);
        active[i] = std::move(active.back());
        active.pop_back();
      }
    }
  }
  return s;
}

Stream make_tunnel_mix(std::uint64_t seed) {
  // One cycle of datagram templates; the tunnel driver replays it with
  // fresh sequence numbers, so its length only bounds the redundancy
  // period, not the run.
  constexpr std::size_t kDatagrams = 8192;
  constexpr std::size_t kSources = 4;
  constexpr std::size_t kLarge = 1200;
  constexpr std::size_t kSmall = 64;
  bc::util::Rng rng(seed);

  // Each source streams its own redundant object (a dependency file, so
  // slices repeat earlier bytes of the same source); small messages are
  // drawn from a handful of templates.  Every cache hit this content
  // produces is worth encoding: a hit the encoder looks up but does not
  // reference refreshes that packet's LRU position on the encoder side
  // only, and a bounded cache then drops different packets on the two
  // sides (see README.md).
  std::vector<Bytes> objects;
  for (std::size_t i = 0; i < kSources; ++i) {
    bc::workload::DepFileParams p;
    p.size = 256 * 1024;
    objects.push_back(bc::workload::make_dep_file(rng, p));
  }
  std::vector<Bytes> templates;
  for (int i = 0; i < 8; ++i) {
    Bytes t(kSmall);
    for (auto& b : t) b = static_cast<std::uint8_t>(rng.uniform(32, 126));
    templates.push_back(std::move(t));
  }

  std::vector<std::size_t> cursor(kSources, 0);
  Stream s;
  const std::uint32_t dst = bc::packet::make_ip(10, 0, 1, 1);
  for (std::size_t i = 0; i < kDatagrams; ++i) {
    const std::size_t src = rng.uniform(0, kSources - 1);
    Bytes data;
    if (rng.chance(0.5)) {
      data = templates[rng.uniform(0, templates.size() - 1)];
    } else {
      const Bytes& obj = objects[src];
      const std::size_t len = kLarge - 16 + rng.uniform(0, 32);
      if (cursor[src] + len > obj.size()) cursor[src] = 0;
      data.assign(obj.begin() + static_cast<std::ptrdiff_t>(cursor[src]),
                  obj.begin() + static_cast<std::ptrdiff_t>(cursor[src] + len));
      cursor[src] += len;
    }
    const std::uint64_t index = i;
    std::memcpy(data.data(), &index, sizeof index);

    // Virtual addressing as the encoder tunnel assigns it: source N of a
    // run is 10.0.0.(1+N) talking to 10.0.1.1, ports 5004 -> 5006.
    Offered o;
    o.tcp = false;
    o.src = bc::packet::make_ip(10, 0, 0, static_cast<std::uint8_t>(1 + src));
    o.dst = dst;
    bc::packet::UdpHeader udp;
    udp.src_port = 5004;
    udp.dst_port = 5006;
    udp.serialize(o.bytes, data, o.src, o.dst);
    push(s, std::move(o));
  }
  return s;
}

bc::packet::PacketPtr to_packet(const Offered& o, std::uint32_t seq_shift,
                                std::uint64_t uid) {
  auto pkt = bc::packet::make_packet(
      o.src, o.dst, o.tcp ? bc::packet::IpProto::kTcp : bc::packet::IpProto::kUdp,
      o.bytes);
  pkt->uid = uid;
  if (o.tcp && seq_shift != 0) {
    std::uint8_t* p = pkt->payload.data() + kTcpSeqOffset;
    store_be32(p, load_be32(p) + seq_shift);
  }
  return pkt;
}

bool same_bytes(BytesView payload, const Offered& o, std::uint32_t seq_shift) {
  if (payload.size() != o.bytes.size()) return false;
  if (!o.tcp || seq_shift == 0) {
    return std::memcmp(payload.data(), o.bytes.data(), payload.size()) == 0;
  }
  constexpr std::size_t kSeqEnd = kTcpSeqOffset + 4;
  return std::memcmp(payload.data(), o.bytes.data(), kTcpSeqOffset) == 0 &&
         load_be32(payload.data() + kTcpSeqOffset) ==
             load_be32(o.bytes.data() + kTcpSeqOffset) + seq_shift &&
         std::memcmp(payload.data() + kSeqEnd, o.bytes.data() + kSeqEnd,
                     payload.size() - kSeqEnd) == 0;
}

}  // namespace perfbench
