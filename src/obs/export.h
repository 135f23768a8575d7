// Snapshot exporters: JSON-lines and a single JSON object.
//
// Both render an obs::Snapshot deterministically (entries are sorted by
// name), so the outputs are golden-testable (tests/data/, regenerate
// with BC_REGEN_GOLDEN=1).
//
// JSON-lines: one self-contained JSON object per metric per line —
// greppable, streamable, and trivially ingested by scripting pipelines:
//
//   {"name":"encoder.packets","type":"counter","value":42}
//   {"name":"gateway.encoder.encode_ns","type":"histogram","count":3,
//    "sum":96,"max":64,"buckets":[[1,1],[32,1],[64,1]]}
//
// Histogram "buckets" pairs are [inclusive_upper_bound, count], sparse
// (zero buckets omitted).
#pragma once

#include <string>

#include "obs/metrics.h"

namespace bytecache::obs {

/// One metric per line; trailing newline.
[[nodiscard]] std::string to_jsonl(const Snapshot& snap);

/// A single JSON object {"name":value,...} with histogram sub-objects —
/// the form embedded into experiment/bench JSON documents.
[[nodiscard]] std::string to_json_object(const Snapshot& snap);

}  // namespace bytecache::obs
