// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//
// The DRE shim header carries a CRC32 of the original payload so the decoder
// can verify a reconstruction and convert any cache desynchronization
// (reordering, corruption, collision) into a clean drop rather than silently
// delivering wrong bytes.  See DESIGN.md "Decoder safety".
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/bytes.h"

namespace bytecache::util {

/// Computes CRC32 over `data`, optionally continuing from a previous value.
/// Dispatched (util/simd.h): inputs of 64 bytes or more fold 64 bytes
/// per step with PCLMULQDQ where the CPU has it; shorter inputs and the
/// sub-16-byte tail run crc32_scalar.  Both give the same value.
[[nodiscard]] std::uint32_t crc32(BytesView data, std::uint32_t seed = 0);

/// The slice-by-8 reference: the oracle and the fallback of crc32().
[[nodiscard]] std::uint32_t crc32_scalar(BytesView data,
                                         std::uint32_t seed = 0);

/// The tier crc32() dispatches to: "pclmul" or "slice8" (bench stamps).
[[nodiscard]] const char* crc32_kernel();

}  // namespace bytecache::util
