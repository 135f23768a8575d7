// AVX2 tier of the fingerprint index's batched operations (see
// fingerprint_table.h).  This translation unit is the only one in the
// cache library that emits AVX2 instructions; every function carries a
// target("avx2") attribute, so the file builds without -mavx2 and the
// library stays baseline-ISA.  FingerprintTable calls these only when
// util::simd() reports avx2.
//
// The entry points are also `flatten`: the shared loops of
// fingerprint_batch.h and the map operations they call are inlined into
// them, so the AVX2 bucket compare inlines too (GCC will not inline a
// target("avx2") callee into a baseline-ISA template body).

#include "cache/fingerprint_batch.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace bytecache::cache {

namespace {

using Bucket = util::FlatBucket<std::uint64_t, util::EmptySlot::kZeroValue>;
static_assert(sizeof(Bucket) == 64 && alignof(Bucket) == 64);

/// util::ScalarKeyMatch for the index's bucket, two 256-bit compares:
/// keys at bytes 0-31, values at 32-63 (a zero value is an empty slot).
struct Avx2KeyMatch {
  __attribute__((target("avx2"))) static unsigned keys(const Bucket& b,
                                                        std::uint64_t key) {
    const __m256i k =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(b.keys));
    const __m256i v =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(b.values));
    const __m256i hit =
        _mm256_cmpeq_epi64(k, _mm256_set1_epi64x(static_cast<long long>(key)));
    const __m256i empty = _mm256_cmpeq_epi64(v, _mm256_setzero_si256());
    return static_cast<unsigned>(_mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_andnot_si256(empty, hit))));
  }

  __attribute__((target("avx2"))) static unsigned free(const Bucket& b) {
    const __m256i v =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(b.values));
    return static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(
        _mm256_cmpeq_epi64(v, _mm256_setzero_si256()))));
  }
};

}  // namespace

__attribute__((target("avx2"), flatten)) void
FingerprintTable::probe_batch_avx2(std::span<const rabin::Anchor> anchors,
                                   std::span<ProbeResult> out) const {
  probe_batch_with<Avx2KeyMatch>(anchors, out);
}

__attribute__((target("avx2"), flatten)) void
FingerprintTable::put_anchors_avx2(std::uint64_t id,
                                   std::span<const rabin::Anchor> anchors) {
  put_anchors_with<Avx2KeyMatch>(id, anchors);
}

__attribute__((target("avx2"), flatten)) std::size_t
FingerprintTable::purge_avx2(std::uint64_t packet_id,
                             std::span<const rabin::Fingerprint> fps) {
  return purge_with<Avx2KeyMatch>(packet_id, fps);
}

}  // namespace bytecache::cache

#endif
