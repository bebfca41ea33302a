// The graph-record format: the ops a WAL record payload carries, their
// encoder, and the one bounds-checked decoder that replays them — for the
// write path (Transaction::Log), the snapshot export behind checkpoints and
// the follower bootstrap (Graph::ExportSnapshot), and every replay
// (Graph::ApplyWalRecord). An op is an opcode byte and the source vertex
// (i64); edge ops add the label (u16) and destination (i64); ops with
// properties end in {u32 len, bytes}. Fields are native-endian. These are
// the on-disk WAL bytes, pinned by tests/core/wal_format_test.cc.
#ifndef LIVEGRAPH_CORE_WAL_OPS_H_
#define LIVEGRAPH_CORE_WAL_OPS_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "util/types.h"

namespace livegraph::wal_ops {

constexpr uint8_t kOpAddVertex = 1;  // replays like kOpPutVertex: an upsert
constexpr uint8_t kOpPutVertex = 2;
constexpr uint8_t kOpDeleteVertex = 3;
constexpr uint8_t kOpAddEdge = 4;
constexpr uint8_t kOpDeleteEdge = 5;

/// One op; a decoded `props` views the payload.
struct Op {
  uint8_t code = 0;
  vertex_t v = 0;
  label_t label = 0;  // edge ops only
  vertex_t dst = 0;   // edge ops only
  std::string_view props;
};

inline bool IsEdgeOp(uint8_t code) {
  return code == kOpAddEdge || code == kOpDeleteEdge;
}
inline bool HasProps(uint8_t code) {
  return code != kOpDeleteVertex && code != kOpDeleteEdge;
}

inline void Encode(std::string* out, const Op& op) {
  auto put = [out](const auto& value) {
    out->append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  put(op.code);
  put(op.v);
  if (IsEdgeOp(op.code)) {
    put(op.label);
    put(op.dst);
  }
  if (HasProps(op.code)) {
    put(static_cast<uint32_t>(op.props.size()));
    out->append(op.props.data(), op.props.size());
  }
}

/// Walks a payload op by op. Next() checks every read against the payload
/// end before it happens, and rejects an unknown opcode and a source
/// vertex outside [0, max_vertices) — the engine's index and lock arrays
/// hold exactly max_vertices entries. Destinations are not checked: an
/// edge may name a vertex of another shard.
class Decoder {
 public:
  Decoder(std::string_view payload, vertex_t max_vertices)
      : rest_(payload), max_vertices_(max_vertices) {}

  bool done() const { return rest_.empty(); }

  /// Decodes the next op into `op`; false when the payload is malformed.
  bool Next(Op* op) {
    uint32_t len = 0;
    if (!Read(&op->code) || op->code < kOpAddVertex ||
        op->code > kOpDeleteEdge || !Read(&op->v) || op->v < 0 ||
        op->v >= max_vertices_ ||
        (IsEdgeOp(op->code) && !(Read(&op->label) && Read(&op->dst)))) {
      return false;
    }
    if (!HasProps(op->code)) return true;
    if (!Read(&len) || rest_.size() < len) return false;
    op->props = rest_.substr(0, len);
    rest_.remove_prefix(len);
    return true;
  }

 private:
  template <typename T>
  bool Read(T* value) {
    if (rest_.size() < sizeof(T)) return false;
    std::memcpy(value, rest_.data(), sizeof(T));
    rest_.remove_prefix(sizeof(T));
    return true;
  }

  std::string_view rest_;
  vertex_t max_vertices_;
};

}  // namespace livegraph::wal_ops

#endif  // LIVEGRAPH_CORE_WAL_OPS_H_
