#include "base/fault_injector.h"

#include "base/hash.h"

namespace tmdb {

namespace {

constexpr double kTwoPow53 = 9007199254740992.0;  // 2^53

}  // namespace

void FaultInjector::ArmNth(uint64_t n) {
  nth_ = n;
  counter_.store(0, std::memory_order_relaxed);
  fired_.store(0, std::memory_order_relaxed);
  mode_.store(kNth, std::memory_order_relaxed);
}

void FaultInjector::ArmRate(double p, uint64_t seed) {
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  seed_ = seed;
  rate_threshold_ = static_cast<uint64_t>(p * kTwoPow53);
  counter_.store(0, std::memory_order_relaxed);
  fired_.store(0, std::memory_order_relaxed);
  mode_.store(kRate, std::memory_order_relaxed);
}

void FaultInjector::Disarm() { mode_.store(kDisabled, std::memory_order_relaxed); }

bool FaultInjector::ShouldFail() {
  const int mode = mode_.load(std::memory_order_relaxed);
  if (mode == kDisabled) return false;
  const uint64_t index = counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  bool fail;
  if (mode == kNth) {
    fail = nth_ != 0 && index == nth_;
  } else {
    // Top 53 bits of the mix compared against p * 2^53: each checkpoint
    // fails independently with probability p, reproducibly under seed_.
    fail = (Mix64(seed_ ^ (index * 0x9e3779b97f4a7c15ull)) >> 11) <
           rate_threshold_;
  }
  if (fail) fired_.fetch_add(1, std::memory_order_relaxed);
  return fail;
}

void FaultInjector::ArmIo(IoFaultKind kind, uint64_t n) {
  io_kind_ = kind;
  io_nth_ = n;
  io_writes_.store(0, std::memory_order_relaxed);
  io_reads_.store(0, std::memory_order_relaxed);
  io_unlinks_.store(0, std::memory_order_relaxed);
  io_fired_.store(0, std::memory_order_relaxed);
}

void FaultInjector::DisarmIo() { io_kind_ = IoFaultKind::kNone; }

bool FaultInjector::IoOp(IoFaultKind channel_kind,
                         std::atomic<uint64_t>* channel) {
  const uint64_t index = channel->fetch_add(1, std::memory_order_relaxed) + 1;
  if (channel_kind == IoFaultKind::kNone || io_kind_ != channel_kind ||
      io_nth_ == 0 || index != io_nth_) {
    return false;
  }
  io_fired_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

IoFaultKind FaultInjector::ShouldFailWrite() {
  // Both write-shaped faults share the channel counter: the n-th write fails
  // in whichever way was armed.
  const IoFaultKind kind = io_kind_;
  const bool write_fault =
      kind == IoFaultKind::kShortWrite || kind == IoFaultKind::kEnospc;
  return IoOp(write_fault ? kind : IoFaultKind::kNone, &io_writes_)
             ? kind
             : IoFaultKind::kNone;
}

bool FaultInjector::ShouldFailRead() {
  return IoOp(IoFaultKind::kCorruptRead, &io_reads_);
}

bool FaultInjector::ShouldFailUnlink() {
  return IoOp(IoFaultKind::kUnlinkFail, &io_unlinks_);
}

void FaultInjector::ArmWire(WireFaultKind kind, uint64_t n) {
  wire_kind_.store(kind, std::memory_order_relaxed);
  wire_nth_.store(n, std::memory_order_relaxed);
  wire_sends_.store(0, std::memory_order_relaxed);
  wire_recvs_.store(0, std::memory_order_relaxed);
  wire_accepts_.store(0, std::memory_order_relaxed);
  wire_fired_.store(0, std::memory_order_relaxed);
}

void FaultInjector::DisarmWire() {
  wire_kind_.store(WireFaultKind::kNone, std::memory_order_relaxed);
}

bool FaultInjector::WireOp(bool channel_matches_kind,
                           std::atomic<uint64_t>* channel) {
  const uint64_t index = channel->fetch_add(1, std::memory_order_relaxed) + 1;
  const uint64_t nth = wire_nth_.load(std::memory_order_relaxed);
  if (!channel_matches_kind || nth == 0 || index != nth) return false;
  wire_fired_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

WireFaultKind FaultInjector::ShouldFailSend() {
  const WireFaultKind kind = wire_kind_.load(std::memory_order_relaxed);
  const bool send_fault = kind == WireFaultKind::kShortWrite ||
                          kind == WireFaultKind::kTornFrame ||
                          kind == WireFaultKind::kCorruptCrc ||
                          kind == WireFaultKind::kDisconnect;
  return WireOp(send_fault, &wire_sends_) ? kind : WireFaultKind::kNone;
}

bool FaultInjector::ShouldFailRecv() {
  const WireFaultKind kind = wire_kind_.load(std::memory_order_relaxed);
  return WireOp(kind == WireFaultKind::kShortRead, &wire_recvs_);
}

bool FaultInjector::ShouldFailAccept() {
  const WireFaultKind kind = wire_kind_.load(std::memory_order_relaxed);
  return WireOp(kind == WireFaultKind::kAcceptFail, &wire_accepts_);
}

}  // namespace tmdb
