#include "src/coop/wire.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/support/check.h"
#include "src/support/str.h"

namespace gist {
namespace {

class Writer {
 public:
  void U32(uint32_t value) {
    for (int i = 0; i < 4; ++i) {
      bytes_.push_back(static_cast<uint8_t>(value >> (8 * i)));
    }
  }
  void U64(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      bytes_.push_back(static_cast<uint8_t>(value >> (8 * i)));
    }
  }
  void I64(int64_t value) { U64(static_cast<uint64_t>(value)); }
  void U8(uint8_t value) { bytes_.push_back(value); }
  void Bytes(const std::vector<uint8_t>& data) {
    U64(data.size());
    bytes_.insert(bytes_.end(), data.begin(), data.end());
  }
  void String(const std::string& text) {
    U64(text.size());
    bytes_.insert(bytes_.end(), text.begin(), text.end());
  }

  std::vector<uint8_t> Take() && { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& bytes) : bytes_(bytes) {}

  bool U32(uint32_t* out) {
    if (offset_ + 4 > bytes_.size()) {
      return false;
    }
    uint32_t value = 0;
    for (int i = 3; i >= 0; --i) {
      value = (value << 8) | bytes_[offset_ + static_cast<size_t>(i)];
    }
    offset_ += 4;
    *out = value;
    return true;
  }
  bool U64(uint64_t* out) {
    if (offset_ + 8 > bytes_.size()) {
      return false;
    }
    uint64_t value = 0;
    for (int i = 7; i >= 0; --i) {
      value = (value << 8) | bytes_[offset_ + static_cast<size_t>(i)];
    }
    offset_ += 8;
    *out = value;
    return true;
  }
  bool I64(int64_t* out) {
    uint64_t raw;
    if (!U64(&raw)) {
      return false;
    }
    *out = static_cast<int64_t>(raw);
    return true;
  }
  bool U8(uint8_t* out) {
    if (offset_ >= bytes_.size()) {
      return false;
    }
    *out = bytes_[offset_++];
    return true;
  }
  bool Bytes(std::vector<uint8_t>* out) {
    uint64_t size;
    if (!U64(&size) || size > bytes_.size() - offset_) {
      return false;
    }
    out->assign(bytes_.begin() + static_cast<long>(offset_),
                bytes_.begin() + static_cast<long>(offset_ + size));
    offset_ += size;
    return true;
  }
  bool String(std::string* out) {
    uint64_t size;
    if (!U64(&size) || size > bytes_.size() - offset_) {
      return false;
    }
    out->assign(bytes_.begin() + static_cast<long>(offset_),
                bytes_.begin() + static_cast<long>(offset_ + size));
    offset_ += size;
    return true;
  }
  // Validates a forthcoming element count against the bytes that remain:
  // each element needs at least `min_element_bytes`, so a corrupt length
  // field cannot trigger a huge allocation.
  bool Count(uint64_t* out, uint64_t min_element_bytes) {
    if (!U64(out)) {
      return false;
    }
    return *out <= (bytes_.size() - offset_) / min_element_bytes;
  }
  bool Done() const { return offset_ == bytes_.size(); }

 private:
  const std::vector<uint8_t>& bytes_;
  size_t offset_ = 0;
};

}  // namespace

std::vector<uint8_t> SerializeRunTrace(const RunTrace& trace) {
  Writer w;
  w.U32(kWireMagic);
  w.U32(kWireVersion);
  w.U64(trace.run_id);
  w.U8(trace.failed ? 1 : 0);

  // Failure report.
  w.U8(static_cast<uint8_t>(trace.failure.type));
  w.U32(trace.failure.failing_instr);
  w.U32(trace.failure.failing_thread);
  w.String(trace.failure.message);
  w.U64(trace.failure.stack_trace.size());
  for (InstrId frame : trace.failure.stack_trace) {
    w.U32(frame);
  }

  // PT buffers, one per core.
  w.U64(trace.pt_buffers.size());
  for (const std::vector<uint8_t>& buffer : trace.pt_buffers) {
    w.Bytes(buffer);
  }

  // Watchpoint log.
  w.U64(trace.watch_events.size());
  for (const WatchEvent& event : trace.watch_events) {
    w.U64(event.seq);
    w.U32(event.tid);
    w.U32(event.instr);
    w.U64(event.addr);
    w.I64(event.value);
    w.U8(event.is_write ? 1 : 0);
  }

  // Activity counters.
  w.U64(trace.activity.pt_bytes);
  w.U64(trace.activity.pt_toggles);
  w.U64(trace.activity.watch_traps);
  w.U64(trace.activity.watch_arms);
  w.U64(trace.baseline_instructions);
  return std::move(w).Take();
}

Result<RunTrace> DeserializeRunTrace(const std::vector<uint8_t>& bytes) {
  Reader r(bytes);
  uint32_t magic = 0;
  uint32_t version = 0;
  if (!r.U32(&magic) || magic != kWireMagic) {
    return Error("bad magic: not a Gist run trace");
  }
  if (!r.U32(&version) || version != kWireVersion) {
    return Error(StrFormat("unsupported wire version %u", version));
  }

  RunTrace trace;
  uint8_t failed;
  if (!r.U64(&trace.run_id) || !r.U8(&failed)) {
    return Error("truncated header");
  }
  trace.failed = failed != 0;

  uint8_t failure_type;
  if (!r.U8(&failure_type) || !r.U32(&trace.failure.failing_instr) ||
      !r.U32(&trace.failure.failing_thread) || !r.String(&trace.failure.message)) {
    return Error("truncated failure report");
  }
  trace.failure.type = static_cast<FailureType>(failure_type);
  uint64_t frames;
  if (!r.Count(&frames, 4)) {
    return Error("corrupt stack-trace length");
  }
  for (uint64_t i = 0; i < frames; ++i) {
    uint32_t frame;
    if (!r.U32(&frame)) {
      return Error("truncated stack trace");
    }
    trace.failure.stack_trace.push_back(frame);
  }

  uint64_t buffers;
  if (!r.Count(&buffers, 8)) {
    return Error("corrupt PT buffer count");
  }
  for (uint64_t i = 0; i < buffers; ++i) {
    std::vector<uint8_t> buffer;
    if (!r.Bytes(&buffer)) {
      return Error("truncated PT buffer");
    }
    trace.pt_buffers.push_back(std::move(buffer));
  }

  uint64_t events;
  if (!r.Count(&events, 33)) {
    return Error("corrupt watch-event count");
  }
  for (uint64_t i = 0; i < events; ++i) {
    WatchEvent event;
    uint8_t is_write;
    if (!r.U64(&event.seq) || !r.U32(&event.tid) || !r.U32(&event.instr) ||
        !r.U64(&event.addr) || !r.I64(&event.value) || !r.U8(&is_write)) {
      return Error("truncated watch event");
    }
    event.is_write = is_write != 0;
    trace.watch_events.push_back(event);
  }

  if (!r.U64(&trace.activity.pt_bytes) || !r.U64(&trace.activity.pt_toggles) ||
      !r.U64(&trace.activity.watch_traps) || !r.U64(&trace.activity.watch_arms) ||
      !r.U64(&trace.baseline_instructions)) {
    return Error("truncated activity counters");
  }
  if (!r.Done()) {
    return Error("trailing bytes after trace");
  }
  return trace;
}

std::vector<WireMessage> SplitWireMessages(const std::vector<uint8_t>& bytes, size_t mtu_bytes) {
  GIST_CHECK(mtu_bytes > 0);
  const uint32_t total =
      bytes.empty() ? 1 : static_cast<uint32_t>((bytes.size() + mtu_bytes - 1) / mtu_bytes);
  std::vector<WireMessage> messages;
  messages.reserve(total);
  for (uint32_t seq = 0; seq < total; ++seq) {
    WireMessage message;
    message.seq = seq;
    message.total = total;
    const size_t begin = static_cast<size_t>(seq) * mtu_bytes;
    const size_t end = std::min(bytes.size(), begin + mtu_bytes);
    message.payload.assign(bytes.begin() + static_cast<long>(begin),
                           bytes.begin() + static_cast<long>(end));
    messages.push_back(std::move(message));
  }
  return messages;
}

Result<std::vector<uint8_t>> ReassembleWireMessages(std::vector<WireMessage> messages) {
  if (messages.empty()) {
    return Error("no chunks arrived");
  }
  const uint32_t total = messages[0].total;
  for (const WireMessage& message : messages) {
    if (message.total != total) {
      return Error(StrFormat("chunks disagree on total: %u vs %u", message.total, total));
    }
  }
  if (messages.size() > total) {
    return Error(StrFormat("%zu chunks arrived for a %u-chunk upload", messages.size(), total));
  }
  std::sort(messages.begin(), messages.end(),
            [](const WireMessage& a, const WireMessage& b) { return a.seq < b.seq; });
  for (uint32_t seq = 0; seq < messages.size(); ++seq) {
    if (messages[seq].seq != seq) {
      return Error(StrFormat("chunk %u missing from %u-chunk upload",
                             seq < messages[seq].seq ? seq : messages[seq].seq, total));
    }
  }
  if (messages.size() != total) {
    return Error(StrFormat("only %zu of %u chunks arrived", messages.size(), total));
  }
  std::vector<uint8_t> bytes;
  for (const WireMessage& message : messages) {
    bytes.insert(bytes.end(), message.payload.begin(), message.payload.end());
  }
  return bytes;
}

}  // namespace gist
