// Frame and payload codec tests for the wire protocol: roundtrips,
// corruption detection (the CRC discipline mirrored from the spill codec),
// bounds enforcement, and the FaultInjector wire channels.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "base/fault_injector.h"
#include "exec/exec_context.h"
#include "net/wire.h"
#include "values/value.h"

namespace tmdb {
namespace {

Frame RoundtripHeaderAndPayload(const Frame& in, Status* status) {
  std::string bytes;
  EncodeFrame(in, &bytes);
  FrameHeader header;
  *status = DecodeFrameHeader(bytes.data(), &header);
  if (!status->ok()) return Frame{};
  std::string_view payload(bytes.data() + kWireHeaderBytes,
                           header.payload_len);
  *status = ValidateFramePayload(header, payload);
  if (!status->ok()) return Frame{};
  Frame out;
  out.type = static_cast<FrameType>(header.type);
  out.request_id = header.request_id;
  out.payload = std::string(payload);
  return out;
}

TEST(WireFrameTest, RoundtripsHeaderPayloadAndRequestId) {
  Frame in;
  in.type = FrameType::kRows;
  in.request_id = 0x1122334455667788ull;
  in.payload = "some payload bytes";
  Status status;
  const Frame out = RoundtripHeaderAndPayload(in, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(out.type, in.type);
  EXPECT_EQ(out.request_id, in.request_id);
  EXPECT_EQ(out.payload, in.payload);
}

TEST(WireFrameTest, EmptyPayloadRoundtrips) {
  Frame in;
  in.type = FrameType::kGoodbye;
  in.request_id = 7;
  Status status;
  const Frame out = RoundtripHeaderAndPayload(in, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(out.payload.empty());
}

TEST(WireFrameTest, DetectsBadMagic) {
  Frame in;
  in.type = FrameType::kDone;
  std::string bytes;
  EncodeFrame(in, &bytes);
  bytes[0] = static_cast<char>(bytes[0] ^ 0xFF);
  FrameHeader header;
  EXPECT_EQ(DecodeFrameHeader(bytes.data(), &header).code(),
            StatusCode::kIoError);
}

TEST(WireFrameTest, DetectsUnknownFrameType) {
  Frame in;
  in.type = static_cast<FrameType>(99);
  std::string bytes;
  EncodeFrame(in, &bytes);
  FrameHeader header;
  EXPECT_EQ(DecodeFrameHeader(bytes.data(), &header).code(),
            StatusCode::kIoError);
}

TEST(WireFrameTest, RejectsOversizedPayloadLength) {
  Frame in;
  in.type = FrameType::kRows;
  std::string bytes;
  EncodeFrame(in, &bytes);
  // Overwrite payload_len (bytes 8..11) with a hostile length.
  const uint32_t huge = static_cast<uint32_t>(kWireMaxPayloadBytes) + 1;
  bytes[8] = static_cast<char>(huge & 0xFF);
  bytes[9] = static_cast<char>((huge >> 8) & 0xFF);
  bytes[10] = static_cast<char>((huge >> 16) & 0xFF);
  bytes[11] = static_cast<char>((huge >> 24) & 0xFF);
  FrameHeader header;
  EXPECT_EQ(DecodeFrameHeader(bytes.data(), &header).code(),
            StatusCode::kIoError);
}

TEST(WireFrameTest, EveryFlippedBitFailsCrcOrHeaderCheck) {
  Frame in;
  in.type = FrameType::kError;
  in.request_id = 42;
  in.payload = "corruption sweep target";
  std::string clean;
  EncodeFrame(in, &clean);
  // Flip each byte (past the magic) once: header decode or CRC validation
  // must reject every single corruption — the spill-block discipline.
  for (size_t i = 4; i < clean.size(); ++i) {
    std::string bytes = clean;
    bytes[i] = static_cast<char>(bytes[i] ^ 0x10);
    FrameHeader header;
    Status status = DecodeFrameHeader(bytes.data(), &header);
    if (status.ok()) {
      status = ValidateFramePayload(
          header, std::string_view(bytes.data() + kWireHeaderBytes,
                                   bytes.size() - kWireHeaderBytes));
    }
    EXPECT_FALSE(status.ok()) << "corruption at byte " << i << " undetected";
  }
}

TEST(WireRequestTest, RoundtripsEveryKnob) {
  WireRequest in;
  in.query = "SELECT x FROM R x WHERE x.a > 3";
  in.strategy = "nestjoin";
  in.num_threads = 4;
  in.timeout_ms = 1500;
  in.memory_budget_bytes = 123456;
  in.max_rows = 999;
  in.queue_wait_ms = 250;
  in.enable_spill = true;
  in.enable_columnar = false;
  std::string payload;
  EncodeRequest(in, &payload);
  WireRequest out;
  ASSERT_TRUE(DecodeRequest(payload, &out).ok());
  EXPECT_EQ(out.query, in.query);
  EXPECT_EQ(out.strategy, in.strategy);
  EXPECT_EQ(out.num_threads, in.num_threads);
  EXPECT_EQ(out.timeout_ms, in.timeout_ms);
  EXPECT_EQ(out.memory_budget_bytes, in.memory_budget_bytes);
  EXPECT_EQ(out.max_rows, in.max_rows);
  EXPECT_EQ(out.queue_wait_ms, in.queue_wait_ms);
  EXPECT_EQ(out.enable_spill, in.enable_spill);
  EXPECT_EQ(out.enable_columnar, in.enable_columnar);
}

TEST(WireRequestTest, RejectsTrailingBytesAndTruncation) {
  WireRequest in;
  in.query = "SELECT 1";
  std::string payload;
  EncodeRequest(in, &payload);
  WireRequest out;
  EXPECT_FALSE(DecodeRequest(payload + "x", &out).ok());
  EXPECT_FALSE(
      DecodeRequest(std::string_view(payload).substr(0, payload.size() - 1),
                    &out)
          .ok());
  EXPECT_FALSE(DecodeRequest("", &out).ok());
}

TEST(WireRequestTest, RejectsWrongProtocolVersion) {
  WireRequest in;
  in.query = "SELECT 1";
  std::string payload;
  EncodeRequest(in, &payload);
  payload[0] = static_cast<char>(kWireProtoVersion + 1);  // version varint
  WireRequest out;
  EXPECT_FALSE(DecodeRequest(payload, &out).ok());
}

TEST(WirePayloadTest, ErrorRejectedAcceptedDoneRoundtrip) {
  WireError error_in{StatusCode::kDeadlineExceeded, "query deadline exceeded"};
  std::string payload;
  EncodeError(error_in, &payload);
  WireError error_out;
  ASSERT_TRUE(DecodeError(payload, &error_out).ok());
  EXPECT_EQ(error_out.code, error_in.code);
  EXPECT_EQ(error_out.message, error_in.message);

  WireRejected rejected_in;
  rejected_in.code = StatusCode::kResourceExhausted;
  rejected_in.message = std::string(kRejectedMessagePrefix) + ": queue full";
  rejected_in.retry_after_ms = 75;
  payload.clear();
  EncodeRejected(rejected_in, &payload);
  WireRejected rejected_out;
  ASSERT_TRUE(DecodeRejected(payload, &rejected_out).ok());
  EXPECT_EQ(rejected_out.code, rejected_in.code);
  EXPECT_EQ(rejected_out.message, rejected_in.message);
  EXPECT_EQ(rejected_out.retry_after_ms, rejected_in.retry_after_ms);

  WireAccepted accepted_in;
  accepted_in.granted_memory_bytes = 32 << 20;
  accepted_in.granted_threads = 2;
  accepted_in.active_queries = 5;
  payload.clear();
  EncodeAccepted(accepted_in, &payload);
  WireAccepted accepted_out;
  ASSERT_TRUE(DecodeAccepted(payload, &accepted_out).ok());
  EXPECT_EQ(accepted_out.granted_memory_bytes,
            accepted_in.granted_memory_bytes);
  EXPECT_EQ(accepted_out.granted_threads, accepted_in.granted_threads);
  EXPECT_EQ(accepted_out.active_queries, accepted_in.active_queries);

  payload.clear();
  EncodeDonePayload("created table R", &payload);
  std::string message;
  ASSERT_TRUE(DecodeDonePayload(payload, &message).ok());
  EXPECT_EQ(message, "created table R");
}

TEST(WirePayloadTest, ErrorPayloadRejectsUnknownStatusCode) {
  std::string payload;
  payload.push_back(60);  // no such StatusCode
  payload.push_back(0);   // empty message
  WireError error;
  EXPECT_FALSE(DecodeError(payload, &error).ok());
}

TEST(WirePayloadTest, RowsRoundtripThroughCanonicalCodec) {
  std::vector<Value> rows;
  rows.push_back(Value::Int(1));
  rows.push_back(Value::String("two"));
  rows.push_back(Value::Tuple({"a", "b"},
                              {Value::Int(3), Value::String("three")}));
  std::string payload;
  EncodeRowsPayload(rows, 0, rows.size(), &payload);
  std::vector<Value> decoded;
  ASSERT_TRUE(DecodeRowsPayload(payload, &decoded).ok());
  ASSERT_EQ(decoded.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(decoded[i] == rows[i]) << "row " << i;
  }
  EXPECT_FALSE(DecodeRowsPayload(payload + "x", &decoded).ok());
}

TEST(WirePayloadTest, StatsRoundtripAllCounters) {
  // A distinct value per counter, most of them multi-byte varints, so a
  // swapped or dropped field cannot decode to the right block.
  ExecStats in;
  uint64_t i = 0;
  for (const StatCounter& counter : kStatCounters) {
    in.*counter.field = (uint64_t{1} << (3 * i)) + i;
    ++i;
  }
  std::string payload;
  EncodeStatsPayload(in, &payload);
  ExecStats out;
  ASSERT_TRUE(DecodeStatsPayload(payload, &out).ok());
  for (const StatCounter& counter : kStatCounters) {
    EXPECT_EQ(out.*counter.field, in.*counter.field) << counter.name;
  }
  EXPECT_FALSE(DecodeStatsPayload(payload + "x", &out).ok());
  EXPECT_FALSE(
      DecodeStatsPayload(payload.substr(0, payload.size() - 1), &out).ok());
}

// Pins the stats payload bytes: each counter is set by name to its 1-based
// wire position, so the payload is the one-byte varints 0x01..0x15 in wire
// order. Reordering the counter table changes the wire format and fails
// here.
TEST(WirePayloadTest, StatsPayloadGoldenBytes) {
  ExecStats in;
  in.rows_emitted = 1;
  in.predicate_evals = 2;
  in.subplan_evals = 3;
  in.hash_probes = 4;
  in.rows_built = 5;
  in.spill_partitions = 6;
  in.spill_bytes_written = 7;
  in.spill_bytes_read = 8;
  in.spill_max_depth = 9;
  in.spill_sort_runs = 10;
  in.subplan_cache_hits = 11;
  in.subplan_cache_misses = 12;
  in.subplan_cache_evictions = 13;
  in.subplan_cache_disk_evictions = 14;
  in.subplan_cache_disk_faults = 15;
  in.guard_checkpoints = 16;
  in.strategy_chosen = 17;
  in.strategy_switches = 18;
  in.est_distinct_corr = 19;
  in.morsels_dispatched = 20;
  in.morsels_stolen = 21;
  std::string golden;
  for (char byte = 0x01; byte <= 0x15; ++byte) golden.push_back(byte);
  std::string payload;
  EncodeStatsPayload(in, &payload);
  EXPECT_EQ(payload, golden);
  ExecStats decoded;
  ASSERT_TRUE(DecodeStatsPayload(golden, &decoded).ok());
  std::string reencoded;
  EncodeStatsPayload(decoded, &reencoded);
  EXPECT_EQ(reencoded, golden);
}

TEST(WireFaultChannelTest, SendChannelFiresOnNthSendOnly) {
  FaultInjector injector;
  injector.ArmWire(WireFaultKind::kCorruptCrc, 3);
  EXPECT_EQ(injector.ShouldFailSend(), WireFaultKind::kNone);
  EXPECT_EQ(injector.ShouldFailSend(), WireFaultKind::kNone);
  EXPECT_EQ(injector.ShouldFailSend(), WireFaultKind::kCorruptCrc);
  EXPECT_EQ(injector.ShouldFailSend(), WireFaultKind::kNone);
  EXPECT_EQ(injector.wire_sends_seen(), 4u);
  EXPECT_EQ(injector.wire_faults_fired(), 1u);
}

TEST(WireFaultChannelTest, ChannelsAreIndependent) {
  FaultInjector injector;
  injector.ArmWire(WireFaultKind::kShortRead, 1);
  // Send and accept consultations do not consume the recv channel's count.
  EXPECT_EQ(injector.ShouldFailSend(), WireFaultKind::kNone);
  EXPECT_FALSE(injector.ShouldFailAccept());
  EXPECT_TRUE(injector.ShouldFailRecv());
  EXPECT_FALSE(injector.ShouldFailRecv());
  EXPECT_EQ(injector.wire_sends_seen(), 1u);
  EXPECT_EQ(injector.wire_accepts_seen(), 1u);
  EXPECT_EQ(injector.wire_recvs_seen(), 2u);
}

TEST(WireFaultChannelTest, CountOnlyArmTalliesWithoutFiring) {
  FaultInjector injector;
  injector.ArmWire(WireFaultKind::kNone, 0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(injector.ShouldFailSend(), WireFaultKind::kNone);
  }
  EXPECT_EQ(injector.wire_sends_seen(), 5u);
  EXPECT_EQ(injector.wire_faults_fired(), 0u);
  injector.DisarmWire();
  EXPECT_EQ(injector.ShouldFailSend(), WireFaultKind::kNone);
}

}  // namespace
}  // namespace tmdb
