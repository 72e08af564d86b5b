#ifndef TMDB_NET_WIRE_H_
#define TMDB_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "exec/exec_context.h"
#include "values/value.h"

namespace tmdb {

/// The query service speaks a small length-prefixed framed protocol,
/// CRC-guarded like the spill codec. Every frame is
///
///   [magic u32][type u32][payload_len u32][request_id u64][crc32 u32]
///   [payload ...]
///
/// with fixed-width fields little-endian. The CRC-32 covers the type, the
/// payload length, the request id, and the payload — every header byte is
/// protected by the magic check, the CRC, or (for the CRC field itself)
/// the verification mismatch, exactly the spill-block discipline. A torn,
/// truncated, or bit-flipped frame surfaces as kIoError at the receiver
/// before any payload byte is interpreted; the connection is then dead by
/// protocol (streams cannot resynchronise past a bad frame).
///
/// A request is one kQuery frame; the response to request id R is a
/// sequence of frames all carrying id R: optional kAccepted, zero or more
/// kRows, then exactly one terminator — kStats+kDone on success, kError on
/// a failed execution, kRejected when admission control refused the work.
/// Payloads reuse the spill subsystem's canonical Value codec for rows and
/// LEB128 varints for scalars, so wire bytes are deterministic for a given
/// result.

inline constexpr uint32_t kWireMagic = 0x544D5146u;  // "FQMT" LE on the wire
inline constexpr uint32_t kWireProtoVersion = 1;
inline constexpr size_t kWireHeaderBytes = 24;
/// Upper bound a receiver enforces on payload_len before allocating —
/// a corrupted or hostile length field fails cleanly instead of OOMing.
inline constexpr size_t kWireMaxPayloadBytes = 64u << 20;
/// Row frames are chunked to roughly this many payload bytes so a slow or
/// vanished client is detected within one chunk, not one result set.
inline constexpr size_t kWireRowsChunkBytes = 64u << 10;

/// Server error-frame messages for admission refusals start with this
/// prefix; QueryClient::WasRejected keys on it (plus the status code) so
/// retry loops can distinguish "try again later" from real failures.
inline constexpr std::string_view kRejectedMessagePrefix =
    "admission rejected";

enum class FrameType : uint32_t {
  // client → server
  kQuery = 1,    // payload: WireRequest
  kCancel = 2,   // empty payload; request_id names the query to cancel
  kGoodbye = 3,  // empty payload; clean connection shutdown
  // server → client
  kAccepted = 16,  // payload: WireAccepted (admission grant, informational)
  kRows = 17,      // payload: varint row count + canonical Value encodings
  kStats = 18,     // payload: WireStats (ExecStats snapshot)
  kDone = 19,      // payload: varint-length DDL/DML message ("" for queries);
                   // successful response terminator
  kError = 20,     // payload: WireError; failed-execution terminator
  kRejected = 21,  // payload: WireRejected; admission-refusal terminator
};

/// True for the frame types a conforming peer may put on the wire.
bool IsKnownFrameType(uint32_t raw);

struct Frame {
  FrameType type = FrameType::kGoodbye;
  uint64_t request_id = 0;
  std::string payload;
};

/// Decoded fixed-width header of an incoming frame.
struct FrameHeader {
  uint32_t type = 0;
  uint32_t payload_len = 0;
  uint64_t request_id = 0;
  uint32_t crc = 0;
};

/// Appends the complete wire encoding (header + payload) of `frame`.
void EncodeFrame(const Frame& frame, std::string* out);

/// Decodes the kWireHeaderBytes-byte header. Fails on bad magic, unknown
/// frame type, or a payload length over kWireMaxPayloadBytes.
Status DecodeFrameHeader(const char* data, FrameHeader* header);

/// Verifies the CRC of a fully received frame (header already decoded,
/// payload bytes in hand).
Status ValidateFramePayload(const FrameHeader& header,
                            std::string_view payload);

/// Per-request knobs mirroring RunOptions, carried by a kQuery frame.
/// Budgets are requests, not entitlements: the server clamps them to what
/// admission control grants the query.
struct WireRequest {
  std::string query;      // statement text (query, CREATE, INSERT, ...)
  std::string strategy;   // StrategyName, "" = server default (nestjoin)
  /// Desired max parallelism. Doubles as the admission weight: the grant
  /// is a weighted share of the server's scheduler pool, and the query
  /// runs capped at min(num_threads, granted share). Threads themselves
  /// come from the process-wide work-stealing scheduler, not a
  /// per-session pool.
  uint32_t num_threads = 1;
  uint64_t timeout_ms = 0;
  uint64_t memory_budget_bytes = 0;
  uint64_t max_rows = 0;
  /// How long the request may wait in the admission queue before the
  /// server gives up and rejects it. 0 = server default.
  uint64_t queue_wait_ms = 0;
  bool enable_spill = false;
  bool enable_columnar = true;
};

void EncodeRequest(const WireRequest& request, std::string* out);
Status DecodeRequest(std::string_view payload, WireRequest* request);

/// kError payload: the execution outcome's Status. `message` is already
/// the canonical user-facing rendering (FormatStatusForUser), so every
/// front end shows guard trips identically.
struct WireError {
  StatusCode code = StatusCode::kInternal;
  std::string message;
};

void EncodeError(const WireError& error, std::string* out);
Status DecodeError(std::string_view payload, WireError* error);

/// kRejected payload: a typed kResourceExhausted-style refusal plus a
/// backoff hint.
struct WireRejected {
  StatusCode code = StatusCode::kResourceExhausted;
  std::string message;
  uint64_t retry_after_ms = 0;
};

void EncodeRejected(const WireRejected& rejected, std::string* out);
Status DecodeRejected(std::string_view payload, WireRejected* rejected);

/// kAccepted payload: what admission control granted this query.
struct WireAccepted {
  uint64_t granted_memory_bytes = 0;  // 0 = unlimited
  uint32_t granted_threads = 1;
  uint32_t active_queries = 0;  // including this one, at grant time
};

void EncodeAccepted(const WireAccepted& accepted, std::string* out);
Status DecodeAccepted(std::string_view payload, WireAccepted* accepted);

/// kRows payload codec. Encode appends rows [begin, end) of `rows`;
/// Decode appends every row in the payload to `out`.
void EncodeRowsPayload(const std::vector<Value>& rows, size_t begin,
                       size_t end, std::string* out);
Status DecodeRowsPayload(std::string_view payload, std::vector<Value>* out);

/// kDone payload codec: the DDL/DML outcome message ("" for queries).
void EncodeDonePayload(std::string_view message, std::string* out);
Status DecodeDonePayload(std::string_view payload, std::string* message);

/// kStats payload codec: every ExecStats counter as a varint, in counter
/// table order.
void EncodeStatsPayload(const ExecStats& stats, std::string* out);
Status DecodeStatsPayload(std::string_view payload, ExecStats* stats);

}  // namespace tmdb

#endif  // TMDB_NET_WIRE_H_
