// Failure reports: what a production machine ships to the Gist server after a
// crash (paper Fig. 2 input ①: coredump, stack trace, failing statement).

#ifndef GIST_SRC_VM_FAILURE_H_
#define GIST_SRC_VM_FAILURE_H_

#include <string>
#include <vector>

#include "src/ir/ids.h"

namespace gist {

enum class FailureType : uint8_t {
  kNone,
  kSegFault,         // null or unmapped address dereference
  kUseAfterFree,     // access to a freed heap block
  kDoubleFree,       // free of an already-freed block
  kInvalidFree,      // free of a non-heap address
  kAssertViolation,  // assert condition was zero
  kArithmeticFault,  // division/remainder by zero
  kDeadlock,         // all live threads blocked
  kHang,             // step budget exhausted
  kStackOverflow,    // call depth exceeded the configured stack limit
};

const char* FailureTypeName(FailureType type);

struct FailureReport {
  FailureType type = FailureType::kNone;
  // Statement where the failure manifested (kNoInstr for deadlock/hang, which
  // have no single faulting statement; the report then carries the last
  // instruction of the reporting thread).
  InstrId failing_instr = kNoInstr;
  ThreadId failing_thread = kNoThread;
  std::string message;
  // Call-site instruction ids, outermost first, ending with failing_instr.
  std::vector<InstrId> stack_trace;

  bool IsFailure() const { return type != FailureType::kNone; }

  // Gist matches "the same failure across multiple executions by matching the
  // program counters and stack traces" (paper §3, footnote 1).
  uint64_t MatchHash() const;

  bool operator==(const FailureReport&) const = default;
};

}  // namespace gist

#endif  // GIST_SRC_VM_FAILURE_H_
