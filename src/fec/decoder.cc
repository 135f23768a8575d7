#include "fec/decoder.h"

#include <algorithm>
#include <bit>

#include "fec/gf256.h"
#include "packet/ipv4.h"
#include "util/check.h"

namespace bytecache::fec {

RepairDecoder::RepairDecoder(const RepairConfig& cfg) : cfg_(cfg) {
  BC_CHECK(cfg_.gen_window >= 1) << "gen_window must be at least 1";
  BC_CHECK(cfg_.generation_packets >= 1 &&
           cfg_.generation_packets <= kMaxGenerationPackets)
      << "generation_packets " << int{cfg_.generation_packets}
      << " outside [1, " << kMaxGenerationPackets << "]";
  gens_.resize(cfg_.gen_window);
}

void RepairDecoder::on_data(std::uint16_t gen_id, std::uint8_t gen_seq,
                            packet::PacketPtr pkt,
                            std::vector<Released>& out) {
  ++stats_.data_packets;
  if (!cursor_locked_) {
    cursor_ = gen_id;
    cursor_locked_ = true;
  }
  if (gen_id != cursor_ && !gen_newer(gen_id, cursor_)) {
    // The cursor already passed this generation — or the id is the
    // antipode (exactly 0x8000 away), which the serial comparison calls
    // neither newer nor older; claiming such an id would clobber the
    // in-window slot it aliases, so it is treated as stale too.  The
    // slot's tombstone (if not reused yet) tells duplicates from
    // genuine stragglers; a duplicate must be suppressed — re-decoding
    // it would replay its cache ops and desync the core decoder.
    const Generation& g = slot(gen_id);
    if (g.id == gen_id && !g.active && gen_seq < kMaxGenerationPackets &&  // NOLINT(bc-rawseq): gen_seq is a 0..63 member index, not a wrapping seq
        ((g.delivered_mask >> gen_seq) & 1) != 0) {
      ++stats_.duplicates;
      return;
    }
    ++stats_.late_delivered;
    out.push_back(Released{std::move(pkt), false});
    return;
  }

  const std::size_t out_before = out.size();
  const std::uint16_t cursor_before = cursor_;
  Generation& g = claim(gen_id, out);
  if (gen_seq >= members(g)) {  // NOLINT(bc-rawseq): member index
    // A tag no generation can contain: corrupt shim or encoder bug.
    // Let the packet through — the core decoder's shim CRC decides.
    ++stats_.tag_rejects;
    out.push_back(Released{std::move(pkt), false});
    after_arrival(out_before, cursor_before, gen_id, out);
    return;
  }
  if (((g.known_mask | g.delivered_mask) >> gen_seq) & 1) {
    ++stats_.duplicates;
    after_arrival(out_before, cursor_before, gen_id, out);
    return;
  }

  store_symbol(g, gen_seq, *pkt);
  g.held[gen_seq] = std::move(pkt);
  ++held_count_;
  g.known_mask |= std::uint64_t{1} << gen_seq;
  reduce_rows(g, gen_seq);
  try_solve(g);

  arrival_is_data_ = true;
  arrival_gen_ = gen_id;
  arrival_seq_ = gen_seq;
  release_ready(out);
  arrival_is_data_ = false;
  after_arrival(out_before, cursor_before, gen_id, out);
}

void RepairDecoder::on_repair(util::BytesView payload,
                              std::vector<Released>& out) {
  if (!RepairPacket::parse_repair_into(payload, scratch_)) {
    ++stats_.repairs_malformed;
    return;
  }
  ++stats_.repair_packets;
  if (!cursor_locked_) {
    cursor_ = scratch_.gen_id;
    cursor_locked_ = true;
  }
  if (scratch_.gen_id != cursor_ && !gen_newer(scratch_.gen_id, cursor_)) {
    // Passed generation, or the unclaimable antipodal id (see on_data).
    ++stats_.repairs_redundant;
    return;
  }

  const std::size_t out_before = out.size();
  const std::uint16_t cursor_before = cursor_;
  Generation& g = claim(scratch_.gen_id, out);
  if (((g.repair_seen_mask >> scratch_.repair_index) & 1) != 0) {
    ++stats_.repairs_redundant;
    after_arrival(out_before, cursor_before, scratch_.gen_id, out);
    return;
  }
  if (g.size == 0) {
    // First repair of the generation announces its geometry.
    g.size = scratch_.gen_size;
    g.repair_total = scratch_.repair_total;
    g.symbol_len = scratch_.symbol_len;
    // Members held under a seq the announced size rules out can only be
    // corrupt tags; let them through for the core CRC to judge.
    for (std::size_t s = g.size; s < kMaxGenerationPackets; ++s) {
      if (!g.held[s]) continue;
      ++stats_.tag_rejects;
      g.known_mask &= ~(std::uint64_t{1} << s);
      out.push_back(Released{std::move(g.held[s]), false});
      --held_count_;
    }
  } else if (g.size != scratch_.gen_size ||
             g.repair_total != scratch_.repair_total ||
             g.symbol_len != scratch_.symbol_len) {
    ++stats_.repairs_malformed;
    after_arrival(out_before, cursor_before, scratch_.gen_id, out);
    return;
  }
  g.repair_seen_mask |= std::uint32_t{1} << scratch_.repair_index;

  if (g.rows.size() <= g.rows_used) g.rows.emplace_back();
  Row& row = g.rows[g.rows_used];
  row.coeff.fill(0);
  std::copy(scratch_.coeffs.begin(), scratch_.coeffs.end(),
            row.coeff.begin());
  row.sym = scratch_.symbol;
  ++g.rows_used;
  // Reduce the fresh row by every member already known, so rows always
  // reference only the still-missing columns regardless of whether the
  // member or the repair arrived first (a no-op for the older rows,
  // whose known coefficients are already zero).
  for (std::uint8_t s = 0; s < g.size; ++s) {
    if (((g.known_mask >> s) & 1) != 0 && row.coeff[s] != 0) {
      reduce_rows(g, s);
    }
  }
  try_solve(g);
  release_ready(out);
  after_arrival(out_before, cursor_before, scratch_.gen_id, out);
}

RepairDecoder::Generation& RepairDecoder::claim(std::uint16_t id,
                                                std::vector<Released>& out) {
  // Make room: the ring covers [cursor_, cursor_ + window); claiming
  // past its far edge force-releases from the cursor until it fits.
  while (gen_newer(id, cursor_) &&
         gen_distance(id, cursor_) >= gens_.size()) {
    force_release_cursor(out);
  }
  Generation& g = slot(id);
  if (g.active && g.id == id) return g;
  // Ids reaching claim() are cursor-or-newer within the window, so an
  // active occupant always IS the claimed generation; a reinit here can
  // only recycle a tombstone (retire() verified it holds nothing).
  BC_AUDIT(!g.active) << "claim(" << id << ") would clobber live slot "
                      << g.id;
  g.id = id;
  g.active = true;
  g.size = 0;
  g.repair_total = 0;
  g.symbol_len = 0;
  g.next_seq = 0;
  g.known_mask = 0;
  g.delivered_mask = 0;
  g.reconstructed_mask = 0;
  g.repair_seen_mask = 0;
  g.rows_used = 0;
  g.arena.clear();
  return g;
}

void RepairDecoder::store_symbol(Generation& g, std::uint8_t seq,
                                 const packet::Packet& p) {
  packet::to_wire_into(p, wire_scratch_);
  g.arena_off[seq] = static_cast<std::uint32_t>(g.arena.size());
  g.arena_len[seq] = static_cast<std::uint16_t>(wire_scratch_.size());
  util::append(g.arena, wire_scratch_);
}

void RepairDecoder::reduce_rows(Generation& g, std::uint8_t seq) {
  const std::uint8_t* img = g.arena.data() + g.arena_off[seq];
  const std::uint16_t len = g.arena_len[seq];
  for (std::uint8_t i = 0; i < g.rows_used; ++i) {
    Row& row = g.rows[i];
    const std::uint8_t c = row.coeff[seq];
    if (c == 0) continue;
    row.coeff[seq] = 0;
    if (row.sym.size() < 2) continue;
    // Member symbol = u16 wire length + wire image, zero-padded; the
    // padding contributes nothing, so only len bytes need the axpy.
    row.sym[0] ^= gf_mul(c, static_cast<std::uint8_t>(len >> 8));
    row.sym[1] ^= gf_mul(c, static_cast<std::uint8_t>(len));
    const std::size_t n =
        std::min<std::size_t>(len, row.sym.size() - 2);
    gf_axpy(row.sym.data() + 2, img, n, c);
  }
}

void RepairDecoder::try_solve(Generation& g) {
  if (g.size == 0) return;
  const std::uint64_t missing = missing_mask(g);
  const int nmiss = std::popcount(missing);
  if (nmiss == 0 || g.rows_used < nmiss) return;

  std::array<std::uint8_t, kMaxGenerationPackets> cols{};
  int ncols = 0;
  for (std::uint8_t s = 0; s < g.size; ++s) {
    if (((missing >> s) & 1) != 0) cols[ncols++] = s;
  }

  // Gauss-Jordan over the missing columns.  Rows were pre-reduced, so
  // only those columns carry nonzero coefficients.
  for (int m = 0; m < ncols; ++m) {
    const std::uint8_t col = cols[m];
    int pivot = -1;
    for (int r = m; r < g.rows_used; ++r) {
      if (g.rows[r].coeff[col] != 0) {
        pivot = r;
        break;
      }
    }
    if (pivot < 0) {
      // Rank-deficient (only possible with non-Cauchy peers or after a
      // silently corrupted member poisoned a row): keep waiting.
      ++stats_.solve_deferred;
      return;
    }
    if (pivot != m) std::swap(g.rows[pivot], g.rows[m]);
    Row& prow = g.rows[m];
    const std::uint8_t inv = gf_inv(prow.coeff[col]);
    gf_scale(prow.coeff.data(), g.size, inv);
    gf_scale(prow.sym.data(), prow.sym.size(), inv);
    for (int r = 0; r < g.rows_used; ++r) {
      if (r == m) continue;
      Row& orow = g.rows[r];
      const std::uint8_t c = orow.coeff[col];
      if (c == 0) continue;
      gf_axpy(orow.coeff.data(), prow.coeff.data(), g.size, c);
      gf_axpy(orow.sym.data(), prow.sym.data(),
              std::min(orow.sym.size(), prow.sym.size()), c);
    }
  }

  // Row m now holds exactly member cols[m]'s symbol.
  for (int m = 0; m < ncols; ++m) {
    const std::uint8_t seq = cols[m];
    const util::Bytes& sym = g.rows[m].sym;
    bool ok = sym.size() >= 2;
    std::uint16_t len = 0;
    if (ok) {
      len = static_cast<std::uint16_t>((sym[0] << 8) | sym[1]);
      ok = len >= packet::Ipv4Header::kSize &&
           static_cast<std::size_t>(len) + 2 <= sym.size();
    }
    packet::PacketPtr pkt;
    if (ok) pkt = packet::from_wire(util::BytesView(sym).subspan(2, len));
    if (!pkt) {
      // A poisoned solve (corrupted member fed the elimination).  The
      // member stays missing downstream; mark it known so the release
      // cursor can pass the gap instead of wedging on it.
      ++stats_.reconstruct_failed;
      g.known_mask |= std::uint64_t{1} << seq;
      continue;
    }
    g.arena_off[seq] = static_cast<std::uint32_t>(g.arena.size());
    g.arena_len[seq] = len;
    g.arena.insert(g.arena.end(), sym.begin() + 2, sym.begin() + 2 + len);
    g.held[seq] = std::move(pkt);
    ++held_count_;
    g.known_mask |= std::uint64_t{1} << seq;
    g.reconstructed_mask |= std::uint64_t{1} << seq;
    ++stats_.reconstructed;
  }
  g.rows_used = 0;  // consumed
  ++stats_.solves;
}

void RepairDecoder::release_ready(std::vector<Released>& out) {
  if (!cursor_locked_) return;
  for (;;) {
    Generation& g = slot(cursor_);
    if (!g.active || g.id != cursor_) {
      // Ghost generation: nothing of it ever arrived.  Skip it only
      // when newer traffic proves the stream moved past it; otherwise
      // hold position and wait.
      bool newer_active = false;
      for (const Generation& o : gens_) {
        if (o.active && gen_newer(o.id, cursor_)) {
          newer_active = true;
          break;
        }
      }
      if (!newer_active) break;
      ++cursor_;
      blocked_ = 0;
      continue;
    }
    while (g.next_seq < kMaxGenerationPackets &&  // NOLINT(bc-rawseq): member index
           ((g.known_mask >> g.next_seq) & 1) != 0) {
      const std::uint8_t s = g.next_seq;
      g.delivered_mask |= std::uint64_t{1} << s;
      ++g.next_seq;
      if (!g.held[s]) continue;  // reconstruct_failed gap
      const bool rebuilt = ((g.reconstructed_mask >> s) & 1) != 0;
      const bool direct = arrival_is_data_ && !rebuilt &&
                          arrival_gen_ == g.id && arrival_seq_ == s;
      ++stats_.released;
      if (!direct && !rebuilt) ++stats_.resequenced;
      out.push_back(Released{std::move(g.held[s]), rebuilt});
      --held_count_;
    }
    if (g.next_seq >= members(g)) {  // NOLINT(bc-rawseq): member index
      retire(g, /*completed=*/true);
      ++cursor_;
      blocked_ = 0;
      continue;
    }
    break;
  }
}

void RepairDecoder::force_release_cursor(std::vector<Released>& out) {
  ++stats_.forced_releases;
  Generation& g = slot(cursor_);
  if (g.active && g.id == cursor_) {
    for (std::size_t s = g.next_seq; s < kMaxGenerationPackets; ++s) {
      if (!g.held[s]) continue;
      const bool rebuilt = ((g.reconstructed_mask >> s) & 1) != 0;
      g.delivered_mask |= std::uint64_t{1} << s;
      ++stats_.released;
      if (!rebuilt) ++stats_.resequenced;
      out.push_back(Released{std::move(g.held[s]), rebuilt});
      --held_count_;
    }
    retire(g, /*completed=*/false);
  }
  ++cursor_;
  blocked_ = 0;
}

void RepairDecoder::retire(Generation& g, bool completed) {
  if (completed) {
    ++stats_.generations_completed;
  } else {
    ++stats_.generations_abandoned;
  }
  g.active = false;
  g.rows_used = 0;
  g.arena.clear();
  for (packet::PacketPtr& p : g.held) {
    BC_CHECK(!p) << "retiring generation " << g.id
                 << " with a packet still held";
  }
}

void RepairDecoder::after_arrival(std::size_t out_before,
                                  std::uint16_t cursor_before,
                                  std::uint16_t arrival_gen,
                                  std::vector<Released>& out) {
  const bool progressed =
      out.size() > out_before || cursor_ != cursor_before;
  if (progressed) {
    blocked_ = 0;
  } else if (gen_newer(arrival_gen, cursor_)) {
    // Only arrivals from *newer* generations pay the blocked budget:
    // the cursor generation's own members and repairs are expected
    // traffic still converging on a solve, however many there are (a
    // hole at seq 0 buffers G-1 members before the first repair lands).
    // Newer-generation arrivals with no cursor progress are the stream
    // leaving the generation behind — including every TCP-timeout
    // retransmission, which the encoder re-tags into a fresh
    // generation, so a starved sender still pays this budget down.
    ++blocked_;
  }

  // Unrecoverable cursor generation — every repair seen, still short of
  // rows — is released as soon as the stream proves it moved past the
  // generation (an arrival from a newer one).  Arrivals for the cursor
  // generation itself never trigger the give-up: with repairs reordered
  // in front of their members, "missing" columns are merely in flight
  // and each one that lands narrows the deficit.  A wedged cursor with
  // no newer traffic falls to the arrival budget instead.
  bool give_up = false;
  const Generation& g = slot(cursor_);
  if (g.active && g.id == cursor_ && g.size != 0 && g.repair_total != 0 &&
      gen_newer(arrival_gen, cursor_) &&
      std::popcount(g.repair_seen_mask) >=
          static_cast<int>(g.repair_total) &&
      std::popcount(missing_mask(g)) > static_cast<int>(g.rows_used)) {
    give_up = true;
  }
  if (give_up || blocked_ > cfg_.blocked_arrival_budget) {
    force_release_cursor(out);
    release_ready(out);
  }
}

void RepairDecoder::drain(std::vector<Released>& out) {
  for (;;) {
    const Generation* oldest = nullptr;
    for (const Generation& g : gens_) {
      if (!g.active) continue;
      if (oldest == nullptr || gen_newer(oldest->id, g.id)) oldest = &g;
    }
    if (oldest == nullptr) break;
    cursor_ = oldest->id;
    force_release_cursor(out);
  }
  blocked_ = 0;
}

void RepairDecoder::audit() const {
  if (!util::kAuditEnabled) return;
  std::size_t held = 0;
  for (const Generation& g : gens_) {
    for (std::size_t s = 0; s < kMaxGenerationPackets; ++s) {
      const bool has = g.held[s] != nullptr;
      held += has ? 1 : 0;
      if (has) {
        BC_AUDIT(g.active) << "retired generation " << g.id
                           << " still holds seq " << s;
        BC_AUDIT(((g.known_mask >> s) & 1) != 0)
            << "generation " << g.id << " holds seq " << s
            << " without its known bit";
        BC_AUDIT(((g.delivered_mask >> s) & 1) == 0)
            << "generation " << g.id << " holds already-delivered seq "
            << s;
      }
    }
    if (!g.active) continue;
    BC_AUDIT(!cursor_locked_ || !gen_newer(cursor_, g.id))
        << "active generation " << g.id << " behind cursor " << cursor_;
    BC_AUDIT(g.rows_used <= g.rows.size())
        << "rows_used " << int{g.rows_used} << " beyond storage "
        << g.rows.size();
    if (g.id != (cursor_locked_ ? cursor_ : g.id)) {
      BC_AUDIT(g.next_seq == 0 || g.id == cursor_)
          << "non-cursor generation " << g.id << " partially released";
    }
  }
  BC_AUDIT(held == held_count_)
      << held << " packets held but counter says " << held_count_;
  BC_AUDIT(stats_.data_packets + stats_.reconstructed ==
           stats_.released + stats_.late_delivered + stats_.tag_rejects +
               stats_.duplicates + held_count_)
      << "packet conservation violated: " << stats_.data_packets << "+"
      << stats_.reconstructed << " in, " << stats_.released << "+"
      << stats_.late_delivered << "+" << stats_.tag_rejects << "+"
      << stats_.duplicates << "+" << held_count_ << " accounted";
  BC_AUDIT(stats_.resequenced <= stats_.released)  // NOLINT(bc-rawseq): released/resequenced are plain counters
      << stats_.resequenced << " resequenced of " << stats_.released;
}

}  // namespace bytecache::fec
