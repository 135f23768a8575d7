// Versioned snapshot I/O: the one save(Writer&) / load(Reader&) surface
// every cache layer implements (CacheTier, L2Store stripes), replacing
// the former persist.h free functions.
//
// A SnapshotWriter is an append-only byte builder; a SnapshotReader is a
// bounds-checked cursor with a sticky failure flag, so load paths can
// read unconditionally and check ok() once per record instead of
// sprinkling size arithmetic.  All integers are big-endian, matching the
// original BCC1 format.
//
// Container formats (each starts with a u32 magic, so load paths can
// sniff what they were handed):
//   "BCC1"  flat L1 image (the original persist format, unchanged —
//           old snapshots stay readable, and an L2-less CacheTier still
//           emits exactly it)
//   "BCS1"  one L2 stripe's contents
//   "BCT1"  full two-tier image: seq | BCC1 L1 block | host-key patch
//           table | BCS1 block
// Both packet-carrying formats store a packet's metadata as one
// PacketMeta record (write_meta / read_meta below).
#pragma once

#include <cstdint>

#include "cache/packet_store.h"
#include "util/bytes.h"

namespace bytecache::cache {

inline constexpr std::uint32_t kSnapMagicFlat = 0x42434331;    // "BCC1"
inline constexpr std::uint32_t kSnapMagicStripe = 0x42435331;  // "BCS1"
inline constexpr std::uint32_t kSnapMagicTier = 0x42435431;    // "BCT1"

class SnapshotWriter {
 public:
  void u8(std::uint8_t v) { util::put_u8(buf_, v); }
  void u16(std::uint16_t v) { util::put_u16(buf_, v); }
  void u32(std::uint32_t v) { util::put_u32(buf_, v); }
  void u64(std::uint64_t v) { util::put_u64(buf_, v); }
  void bytes(util::BytesView b) { util::append(buf_, b); }

  /// Writes a zero u32 and returns its position: a count known only
  /// after the records it counts are out, set then with patch_u32().
  [[nodiscard]] std::size_t u32_placeholder() {
    const std::size_t at = buf_.size();
    u32(0);
    return at;
  }
  void patch_u32(std::size_t at, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_[at + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(v >> (24 - 8 * i));
    }
  }

  [[nodiscard]] const util::Bytes& buffer() const { return buf_; }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

  /// Moves the accumulated bytes out, leaving the writer empty.
  [[nodiscard]] util::Bytes take() { return std::move(buf_); }

 private:
  util::Bytes buf_;
};

class SnapshotReader {
 public:
  explicit SnapshotReader(util::BytesView data) : data_(data) {}

  std::uint8_t u8() { return have(1) ? util::get_u8(data_, off_) : 0; }
  std::uint16_t u16() { return have(2) ? util::get_u16(data_, off_) : 0; }
  std::uint32_t u32() { return have(4) ? util::get_u32(data_, off_) : 0; }
  std::uint64_t u64() { return have(8) ? util::get_u64(data_, off_) : 0; }

  /// A view of the next `n` raw bytes (empty view + failure if short).
  /// The view aliases the snapshot buffer: valid as long as it is.
  util::BytesView bytes(std::size_t n) {
    if (!have(n)) return {};
    const util::BytesView v = data_.subspan(off_, n);
    off_ += n;
    return v;
  }

  /// The next u32 without consuming it (format sniffing); does not set
  /// the failure flag.
  [[nodiscard]] std::uint32_t peek_u32() const {
    if (data_.size() - off_ < 4) return 0;
    std::size_t off = off_;
    return util::get_u32(data_, off);
  }

  [[nodiscard]] bool ok() const { return !failed_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - off_; }
  [[nodiscard]] bool at_end() const { return ok() && remaining() == 0; }
  [[nodiscard]] std::size_t offset() const { return off_; }

  /// Marks the snapshot malformed (semantic validation failures — bad
  /// ids, dangling references — use the same flag as truncation).
  void fail() { failed_ = true; }

 private:
  bool have(std::size_t n) {
    if (failed_ || data_.size() - off_ < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  util::BytesView data_;
  std::size_t off_ = 0;
  bool failed_ = false;
};

/// Which PacketMeta fields a snapshot record carries.  BCC1 predates
/// host attribution (BCT1 patches its host keys in out of band); BCS1
/// records append the host key.
enum class MetaFields : std::uint8_t { kBase, kWithHostKey };

/// Writes one PacketMeta record: flow_key, src_uid, stream_index,
/// tcp_seq, tcp_end_seq, epoch, has_tcp_seq [, host_key].
inline void write_meta(SnapshotWriter& w, const PacketMeta& m,
                       MetaFields fields) {
  w.u64(m.flow_key);
  w.u64(m.src_uid);
  w.u64(m.stream_index);
  w.u32(m.tcp_seq);
  w.u32(m.tcp_end_seq);
  w.u32(m.epoch);
  w.u8(m.has_tcp_seq ? 1 : 0);
  if (fields == MetaFields::kWithHostKey) w.u64(m.host_key);
}

/// Reads the record write_meta() wrote (check r.ok() afterwards).
inline PacketMeta read_meta(SnapshotReader& r, MetaFields fields) {
  PacketMeta m;
  m.flow_key = r.u64();
  m.src_uid = r.u64();
  m.stream_index = r.u64();
  m.tcp_seq = r.u32();
  m.tcp_end_seq = r.u32();
  m.epoch = r.u32();
  m.has_tcp_seq = r.u8() != 0;
  if (fields == MetaFields::kWithHostKey) m.host_key = r.u64();
  return m;
}

}  // namespace bytecache::cache
