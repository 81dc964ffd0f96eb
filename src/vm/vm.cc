#include "src/vm/vm.h"

#include <algorithm>
#include <type_traits>

#include "src/support/str.h"

namespace gist {
namespace {

// Whether an access to `addr` can trap: an inline compare against the
// observer's few armed addresses; an empty set costs one size test.
bool IsArmed(const std::vector<Addr>& armed, Addr addr) {
  return std::find(armed.begin(), armed.end(), addr) != armed.end();
}

}  // namespace

bool ParseExecTier(std::string_view text, ExecTier* tier) {
  if (text == "fast") {
    *tier = ExecTier::kFast;
    return true;
  }
  if (text == "ref" || text == "reference") {
    *tier = ExecTier::kReference;
    return true;
  }
  return false;
}

Vm::Vm(const Module& module, Workload workload, VmOptions options)
    : module_(module),
      workload_(std::move(workload)),
      options_(std::move(options)),
      memory_(module),
      rng_(workload_.schedule_seed) {
  GIST_CHECK_GT(options_.num_cores, 0u);
  if (options_.decoded != nullptr) {
    GIST_CHECK(&options_.decoded->module() == &module_)
        << "VmOptions::decoded caches a different module";
    decoded_ = options_.decoded;
  } else {
    owned_decoded_ = std::make_unique<DecodedModule>(module_);
    decoded_ = owned_decoded_.get();
  }
  if (options_.profile != nullptr) {
    // Size the shard once so StepBurst can index it unchecked.
    options_.profile->EnsureSize(decoded_->num_blocks());
  }
  core_occupant_.assign(options_.num_cores, kNoThread);
  threads_.reserve(kMaxThreads);
  BuildDispatch();
}

void Vm::BuildDispatch() {
  const bool reference = options_.reference_dispatch;
  for (ExecutionObserver* observer : options_.observers) {
    const uint32_t mask = reference ? kEvAll : observer->SubscribedEvents();
    if (mask & kEvContextSwitch) {
      on_context_switch_.push_back(observer);
    }
    if (mask & kEvBlockEnter) {
      on_block_enter_.push_back(observer);
    }
    if (mask & kEvBranch) {
      on_branch_.push_back(observer);
    }
    if (mask & kEvReturn) {
      on_return_.push_back(observer);
    }
    if (mask & kEvThreadLifecycle) {
      on_thread_event_.push_back(observer);
    }
    if (mask & kEvMemAccess) {
      on_mem_.push_back(observer);
    }
    if (mask & kEvInstrRetired) {
      on_retired_.push_back(observer);
    }
  }

  // The run's site table (DESIGN.md §7). A hook without one runs everywhere,
  // as does every hook under reference dispatch.
  const SiteTable* table = nullptr;
  if (options_.hook != nullptr) {
    table = reference ? nullptr : options_.hook->Sites();
    hook_everywhere_ = table == nullptr;
    if (table != nullptr) {
      site_mask_ |= kSiteHookBefore | kSiteHookAfter;
    }
  }
  // An event class is filtered only when its one subscriber supplies the
  // run's table; any other subscriber needs every event. Reference dispatch
  // never filters.
  auto filter_table = [&](const std::vector<ExecutionObserver*>& subscribers)
      -> const SiteTable* {
    if (reference || subscribers.size() != 1) {
      return nullptr;
    }
    const SiteTable* sites = subscribers.front()->Sites();
    return table == nullptr || sites == table ? sites : nullptr;
  };
  if (const SiteTable* sites = filter_table(on_retired_); sites != nullptr) {
    table = sites;
    site_mask_ |= kSitePtStop;
  }
  if (const SiteTable* sites = filter_table(on_mem_);
      sites != nullptr && on_mem_.front()->ArmedAddrs() != nullptr) {
    table = sites;
    armed_ = on_mem_.front()->ArmedAddrs();
    site_mask_ |= kSiteWatch;
  }
  if (const SiteTable* sites = filter_table(on_block_enter_); sites != nullptr) {
    table = sites;
    block_sites_ = sites->blocks.data();
  }
  if (table != nullptr) {
    GIST_CHECK_EQ(table->instrs.size(), module_.num_instructions())
        << "site table compiled for a different module";
    GIST_CHECK_EQ(table->blocks.size(), decoded_->num_blocks())
        << "site table compiled for a different module";
    sites_ = table->instrs.data();
  }

  // Fused bodies (DESIGN.md §12). Whole-run deopt: reference dispatch is the
  // per-op oracle, a hook without a table runs at every op, and an
  // unfiltered retired subscriber needs a call per op — fused bodies retire
  // nothing, so such runs interpret every op.
  const bool retired_unfiltered = !on_retired_.empty() && (site_mask_ & kSitePtStop) == 0;
  if (!reference && !hook_everywhere_ && !retired_unfiltered) {
    fused_entry_ = decoded_->fused_entries();
    if (table != nullptr) {
      // Per-block deopt: a block holding a site in force (hook, PT stop,
      // watched access) interprets per op, so its hook calls and site
      // deliveries happen exactly where per-op interpretation puts them.
      for (size_t block = 0; block < fused_entry_.size(); ++block) {
        if ((table->blocks[block] & site_mask_) != 0) {
          fused_entry_[block] = nullptr;
        }
      }
    }
  }
}

ThreadId Vm::SpawnThread(FunctionId function, const std::vector<Word>& args, bool is_main) {
  GIST_CHECK_LT(threads_.size(), kMaxThreads) << "thread limit exceeded";
  const DecodedFunction& decoded_function = decoded_->function(function);
  GIST_CHECK(!decoded_function.blocks.empty()) << "spawned function has no blocks";
  const ThreadId tid = static_cast<ThreadId>(threads_.size());
  ThreadState thread;
  thread.id = tid;
  thread.core = tid % options_.num_cores;
  Frame frame;
  frame.function = &decoded_function;
  frame.block = &decoded_function.entry();
  frame.regs.assign(decoded_function.num_regs, 0);
  for (size_t i = 0; i < args.size() && i < frame.regs.size(); ++i) {
    frame.regs[i] = args[i];
  }
  thread.stack.push_back(std::move(frame));
  threads_.push_back(std::move(thread));
  ++runnable_;
  ++result_.stats.threads_created;
  if (!is_main) {
    ++result_.stats.thread_events;
    Dispatch(on_thread_event_, [&](ExecutionObserver& o) { o.OnThreadStart(tid); });
  }
  return tid;
}

void Vm::RaiseFailure(ThreadState& thread, FailureType type, InstrId instr,
                      const std::string& message) {
  result_.failure.type = type;
  result_.failure.failing_instr = instr;
  result_.failure.failing_thread = thread.id;
  result_.failure.message = message;
  result_.failure.stack_trace = StackTrace(thread, instr);
  done_ = true;
}

void Vm::RaiseFault(ThreadState& thread, FailureType type, InstrId instr,
                    const std::string& message) {
  ++unretired_steps_;
  RaiseFailure(thread, type, instr, message);
}

std::vector<InstrId> Vm::StackTrace(const ThreadState& thread, InstrId failing) const {
  std::vector<InstrId> trace;
  for (const Frame& frame : thread.stack) {
    if (frame.call_site != kNoInstr) {
      trace.push_back(frame.call_site);
    }
  }
  trace.push_back(failing);
  return trace;
}

void Vm::NotifyBlockEnter(ThreadState& thread) {
  const Frame& frame = thread.stack.back();
  if (!NeedsBlockEnter(frame.block->profile_index)) {
    return;
  }
  Dispatch(on_block_enter_, [&](ExecutionObserver& o) {
    o.OnBlockEnter(thread.id, thread.core, frame.function->id, frame.block->id);
  });
}

void Vm::ExitThread(ThreadState& thread) {
  thread.status = ThreadStatus::kExited;
  --runnable_;
  ++result_.stats.thread_events;
  Dispatch(on_thread_event_, [&](ExecutionObserver& o) { o.OnThreadExit(thread.id); });
  // Wake joiners.
  for (ThreadState& other : threads_) {
    if (other.status == ThreadStatus::kBlockedJoin && other.join_target == thread.id) {
      other.status = ThreadStatus::kRunnable;
      other.join_target = kNoThread;
      ++runnable_;
    }
  }
}

uint64_t Vm::StepBurst(ThreadState& thread, uint64_t max_count) {
  // Hoisted out of the per-instruction path: the scheduler loop in Run()
  // charges the whole burst to the step budget and the quantum at once, and
  // the observer/hook configuration cannot change mid-run.
  const uint8_t* const sites = sites_;
  const uint8_t site_mask = site_mask_;
  const uint8_t hook_all = hook_everywhere_ ? kSiteHookBefore | kSiteHookAfter : 0;
  const bool mem_observed = !on_mem_.empty();
  // Whether every retired event is delivered; otherwise only those at
  // PT-stop sites in force are (none when nobody subscribed).
  const bool retire_all = !on_retired_.empty() && (site_mask_ & kSitePtStop) == 0;
  const std::vector<Addr>* const armed = armed_;
  const ThreadId tid = thread.id;
  const CoreId core = thread.core;

  // The interpreter's position (current block, index into it, register file)
  // lives in locals for the whole burst; the frame is written back only at
  // control transfers that need it (calls push, so the caller's resume point
  // must be durable) and at burst exits (the scheduler and the hang reporter
  // read it). Observers never inspect the running thread's frame mid-burst —
  // every event carries its payload — so this is invisible.
  Frame* frame = &thread.stack.back();
  const DecodedBlock* block = frame->block;
  const DecodedInstr* instrs = block->instrs;
  uint32_t block_size = block->size;
  uint32_t index = frame->index;
  Word* regs = frame->regs.data();

  // Profiling (src/obs/profiler.h): the retired counter of the *current*
  // block stays in a hoisted pointer, so the per-instruction cost with
  // profiling on is one increment; it is re-aimed only at control transfers.
  // Null when no profile shard is attached.
  BlockProfile* const prof = options_.profile;
  uint64_t* prof_retired = prof != nullptr ? &prof->retired[block->profile_index] : nullptr;

  auto sync_frame = [&]() {
    frame->block = block;
    frame->index = index;
  };
  auto load_frame = [&]() {
    frame = &thread.stack.back();
    block = frame->block;
    instrs = block->instrs;
    block_size = block->size;
    index = frame->index;
    regs = frame->regs.data();
    if (prof != nullptr) {
      prof_retired = &prof->retired[block->profile_index];
    }
  };
  auto enter_block = [&](const DecodedBlock* b) {
    block = b;
    instrs = b->instrs;
    block_size = b->size;
    index = 0;
    ++result_.stats.block_enters;
    if (prof != nullptr) {
      ++prof->exec[b->profile_index];
      prof_retired = &prof->retired[b->profile_index];
    }
  };
  // Register indices were validated when the module was decoded, so access
  // is unchecked here.
  auto reg = [&](Reg r) -> Word { return regs[r]; };
  auto set_reg = [&](Reg r, Word value) {
    if (r != kNoReg) {
      regs[r] = value;
    }
  };
  auto notify_block_enter = [&]() {
    if (!NeedsBlockEnter(block->profile_index)) {
      return;
    }
    Dispatch(on_block_enter_, [&](ExecutionObserver& o) {
      o.OnBlockEnter(tid, core, frame->function->id, block->id);
    });
  };
  // With no observers at all, every Dispatch at a control transfer is a
  // no-op (all subscriber lists are empty), so the hot branch/jump/call/
  // return paths skip them wholesale.
  const bool quiet = options_.observers.empty();
  // Fused bodies (DESIGN.md §12): non-empty only when BuildDispatch decided
  // this run's dispatch/observer configuration permits fused execution.
  const bool fused_active = !fused_entry_.empty();

  uint64_t executed = 0;
  while (executed < max_count) {
    // Fused entry: at a block boundary, or mid-block on the burst's first
    // iteration (the previous quantum usually ends inside a block). The chain
    // runs exactly the ops the quantum covers — or, when this is the only
    // runnable thread, on through later quanta whose boundaries it settles
    // on exit, extending this burst — so scheduling still lands on the same
    // instruction boundaries as per-op interpretation.
    if (fused_active && (index == 0 || executed == 0)) {
      const FusedBlock* fb = fused_entry_[block->profile_index];
      if (fb != nullptr) {
        const DecodedBlock* resume = nullptr;
        uint32_t resume_index = 0;
        const uint64_t steps_base = result_.stats.steps + executed;
        const uint64_t extended_before = chain_extended_;
        const auto run_chain = [&](auto observed, auto profiled) {
          return RunFusedChain<decltype(observed)::value, decltype(profiled)::value>(
              thread, fb, index, max_count - executed, steps_base, &resume, &resume_index);
        };
        using kNo = std::false_type;
        using kYes = std::true_type;
        executed += quiet ? (prof == nullptr ? run_chain(kNo{}, kNo{}) : run_chain(kNo{}, kYes{}))
                          : (prof == nullptr ? run_chain(kYes{}, kNo{}) : run_chain(kYes{}, kYes{}));
        max_count += chain_extended_ - extended_before;  // settled bursts grew it
        if (done_) {
          return executed;  // fault inside the fused body; frame already synced
        }
        // Deopt: resume per-op interpretation wherever the chain stopped — a
        // non-fused successor (entered, index 0; its enter accounting already
        // ran inside the chain) or the exact op where the quantum ended.
        block = resume;
        instrs = block->instrs;
        block_size = block->size;
        index = resume_index;
        if (prof != nullptr) {
          prof_retired = &prof->retired[block->profile_index];
        }
        continue;
      }
    }
    GIST_CHECK_LT(index, block_size);
    const DecodedInstr& instr = instrs[index];
    ++executed;
    if (prof_retired != nullptr) {
      ++*prof_retired;
    }

    // This instruction's sites in force (hook calls, filtered deliveries).
    const uint8_t site = (sites != nullptr ? sites[instr.id] & site_mask : 0) | hook_all;

    auto mem_fault = [&](MemFault fault, Addr addr) {
      const Instruction& full = *instr.src;
      RaiseFault(thread, MemFaultToFailure(fault), instr.id,
                 StrFormat("%s at address 0x%llx: %s", FailureTypeName(MemFaultToFailure(fault)),
                           static_cast<unsigned long long>(addr),
                           full.loc.text.empty() ? OpcodeName(instr.op) : full.loc.text.c_str()));
    };
    auto emit_access = [&](Addr addr, Word value, bool is_write) {
      const uint64_t seq = result_.stats.mem_accesses++;
      if (!mem_observed) {
        return;
      }
      // Under access filtering: a watch-site access (which may arm its
      // address) or a hit on an armed one.
      if (armed == nullptr || (site & kSiteWatch) != 0 || IsArmed(*armed, addr)) {
        DeliverMemAccess(MemAccessEvent{seq, tid, core, instr.id, addr, value, is_write});
      }
    };
    auto retire = [&]() {
      if (retire_all || (site & kSitePtStop) != 0) {
        DeliverRetired(tid, core, instr.id);
      }
    };

    if ((site & kSiteHookBefore) != 0) {
      options_.hook->BeforeInstr(tid, instr.id, frame->regs);
    }

    // Most instructions fall through to the next index; control flow overrides.
    ++index;

    switch (instr.exec) {
      case ExecOp::kConst:
        set_reg(instr.dst, instr.imm);
        break;
      case ExecOp::kMove:
        set_reg(instr.dst, reg(instr.op0));
        break;
      case ExecOp::kNot:
        set_reg(instr.dst, reg(instr.op0) == 0 ? 1 : 0);
        break;
      case ExecOp::kAdd:
        set_reg(instr.dst, reg(instr.op0) + reg(instr.op1));
        break;
      case ExecOp::kSub:
        set_reg(instr.dst, reg(instr.op0) - reg(instr.op1));
        break;
      case ExecOp::kMul:
        set_reg(instr.dst, reg(instr.op0) * reg(instr.op1));
        break;
      case ExecOp::kDiv:
      case ExecOp::kRem: {
        const Word lhs = reg(instr.op0);
        const Word rhs = reg(instr.op1);
        if (rhs == 0) {
          sync_frame();
          RaiseFault(thread, FailureType::kArithmeticFault, instr.id, "division by zero");
          return executed;
        }
        set_reg(instr.dst, instr.exec == ExecOp::kDiv ? lhs / rhs : lhs % rhs);
        break;
      }
      case ExecOp::kEq:
        set_reg(instr.dst, reg(instr.op0) == reg(instr.op1));
        break;
      case ExecOp::kNe:
        set_reg(instr.dst, reg(instr.op0) != reg(instr.op1));
        break;
      case ExecOp::kLt:
        set_reg(instr.dst, reg(instr.op0) < reg(instr.op1));
        break;
      case ExecOp::kLe:
        set_reg(instr.dst, reg(instr.op0) <= reg(instr.op1));
        break;
      case ExecOp::kGt:
        set_reg(instr.dst, reg(instr.op0) > reg(instr.op1));
        break;
      case ExecOp::kGe:
        set_reg(instr.dst, reg(instr.op0) >= reg(instr.op1));
        break;
      case ExecOp::kAnd:
        set_reg(instr.dst, (reg(instr.op0) != 0) && (reg(instr.op1) != 0));
        break;
      case ExecOp::kOr:
        set_reg(instr.dst, (reg(instr.op0) != 0) || (reg(instr.op1) != 0));
        break;
      case ExecOp::kXor:
        set_reg(instr.dst, reg(instr.op0) ^ reg(instr.op1));
        break;
      case ExecOp::kShl:
        set_reg(instr.dst, static_cast<Word>(static_cast<uint64_t>(reg(instr.op0))
                                             << (reg(instr.op1) & 63)));
        break;
      case ExecOp::kShr:
        set_reg(instr.dst, static_cast<Word>(static_cast<uint64_t>(reg(instr.op0)) >>
                                             (reg(instr.op1) & 63)));
        break;
      case ExecOp::kLoad: {
        const Addr addr = static_cast<Addr>(reg(instr.op0));
        Word value = 0;
        const MemFault fault = memory_.Read(addr, &value);
        if (fault != MemFault::kOk) {
          sync_frame();
          mem_fault(fault, addr);
          return executed;
        }
        set_reg(instr.dst, value);
        emit_access(addr, value, /*is_write=*/false);
        break;
      }
      case ExecOp::kStore: {
        const Addr addr = static_cast<Addr>(reg(instr.op0));
        const Word value = reg(instr.op1);
        const MemFault fault = memory_.Write(addr, value);
        if (fault != MemFault::kOk) {
          sync_frame();
          mem_fault(fault, addr);
          return executed;
        }
        emit_access(addr, value, /*is_write=*/true);
        break;
      }
      case ExecOp::kAddrOfGlobal:
        set_reg(instr.dst, static_cast<Word>(memory_.GlobalAddr(instr.global)) + instr.imm);
        break;
      case ExecOp::kGep:
        set_reg(instr.dst, reg(instr.op0) + reg(instr.op1));
        break;
      case ExecOp::kAlloc: {
        const Word size = reg(instr.op0);
        set_reg(instr.dst, static_cast<Word>(memory_.Alloc(size > 0 ? static_cast<uint64_t>(size)
                                                                    : 1)));
        break;
      }
      case ExecOp::kFree: {
        const Addr addr = static_cast<Addr>(reg(instr.op0));
        const MemFault fault = memory_.Free(addr);
        if (fault != MemFault::kOk) {
          sync_frame();
          mem_fault(fault, addr);
          return executed;
        }
        break;
      }
      case ExecOp::kCall: {
        if (thread.stack.size() >= options_.max_call_depth) {
          sync_frame();
          RaiseFault(thread, FailureType::kStackOverflow, instr.id,
                     "call depth exceeded the stack limit");
          return executed;
        }
        const DecodedFunction& callee_function = decoded_->function(instr.callee);
        GIST_CHECK(!callee_function.blocks.empty()) << "called function has no blocks";
        Frame callee;
        callee.function = &callee_function;
        callee.block = &callee_function.entry();
        callee.regs.assign(callee_function.num_regs, 0);
        const std::vector<Reg>& call_args = instr.src->operands;
        for (size_t i = 0; i < call_args.size(); ++i) {
          callee.regs[i] = reg(call_args[i]);
        }
        callee.ret_dst = instr.dst;
        callee.call_site = instr.id;
        retire();
        // The push may reallocate the stack and invalidate `frame`; persist
        // the caller's resume point first, then rebase onto the callee.
        sync_frame();
        thread.stack.push_back(std::move(callee));
        load_frame();
        // Entering the callee's entry block (load_frame re-aimed the retired
        // pointer; the entry still needs its execution count).
        ++result_.stats.block_enters;
        if (prof != nullptr) {
          ++prof->exec[block->profile_index];
        }
        if (!quiet) {
          notify_block_enter();
        }
        continue;
      }
      case ExecOp::kRet: {
        const Word value = instr.num_operands == 0 ? 0 : reg(instr.op0);
        const Reg ret_dst = frame->ret_dst;
        ++result_.stats.returns;
        retire();
        thread.stack.pop_back();
        if (thread.stack.empty()) {
          Dispatch(on_return_, [&](ExecutionObserver& o) {
            o.OnReturn(tid, core, instr.id, kNoFunction, kNoBlock, 0);
          });
          ExitThread(thread);
          return executed;  // thread left the runnable set: slice is over
        }
        load_frame();
        if (ret_dst != kNoReg) {
          regs[ret_dst] = value;
        }
        if (!quiet) {
          Dispatch(on_return_, [&](ExecutionObserver& o) {
            o.OnReturn(tid, core, instr.id, frame->function->id, block->id, index);
          });
        }
        continue;
      }
      case ExecOp::kBr: {
        const bool taken = reg(instr.op0) != 0;
        ++result_.stats.branches;
        if (prof != nullptr) {
          // Edge profile: charged to the branching block, before enter_block
          // re-aims the block pointer.
          ++(taken ? prof->taken : prof->not_taken)[block->profile_index];
        }
        if (quiet) {
          enter_block(taken ? instr.target0 : instr.target1);
          continue;
        }
        Dispatch(on_branch_, [&](ExecutionObserver& o) {
          o.OnBranch(tid, core, instr.id, taken);
        });
        enter_block(taken ? instr.target0 : instr.target1);
        retire();
        notify_block_enter();
        continue;
      }
      case ExecOp::kJmp:
        enter_block(instr.target0);
        if (!quiet) {
          retire();
          notify_block_enter();
        }
        continue;
      case ExecOp::kAssert:
        if (reg(instr.op0) == 0) {
          sync_frame();
          RaiseFault(thread, FailureType::kAssertViolation, instr.id,
                     "assertion failed: " + instr.src->text);
          return executed;
        }
        break;
      case ExecOp::kThreadCreate: {
        const Word arg = instr.num_operands == 0 ? 0 : reg(instr.op0);
        const ThreadId child = SpawnThread(instr.callee, {arg}, /*is_main=*/false);
        set_reg(instr.dst, static_cast<Word>(child));
        break;
      }
      case ExecOp::kThreadJoin: {
        const Word target = reg(instr.op0);
        if (target < 0 || static_cast<size_t>(target) >= threads_.size()) {
          sync_frame();
          RaiseFault(thread, FailureType::kSegFault, instr.id, "join of invalid thread id");
          return executed;
        }
        ThreadState& joinee = threads_[static_cast<size_t>(target)];
        if (joinee.status != ThreadStatus::kExited) {
          thread.status = ThreadStatus::kBlockedJoin;
          thread.join_target = joinee.id;
          --runnable_;
          // Re-execute the join when woken; keep the pc on this instruction.
          --index;
          retire();
          sync_frame();
          return executed;
        }
        break;
      }
      case ExecOp::kLock: {
        const Addr addr = static_cast<Addr>(reg(instr.op0));
        const MemFault fault = memory_.Check(addr);
        if (fault != MemFault::kOk) {
          sync_frame();
          mem_fault(fault, addr);
          return executed;
        }
        Mutex& mutex = mutexes_[addr];
        if (mutex.owner == kNoThread) {
          mutex.owner = tid;
        } else if (mutex.owner != tid) {
          thread.status = ThreadStatus::kBlockedLock;
          thread.lock_target = addr;
          --runnable_;
          mutex.waiters.push_back(tid);
          --index;  // retry the acquire when woken
          retire();
          sync_frame();
          return executed;
        }
        break;
      }
      case ExecOp::kUnlock: {
        const Addr addr = static_cast<Addr>(reg(instr.op0));
        const MemFault fault = memory_.Check(addr);
        if (fault != MemFault::kOk) {
          sync_frame();
          mem_fault(fault, addr);
          return executed;
        }
        auto it = mutexes_.find(addr);
        if (it != mutexes_.end() && it->second.owner == tid) {
          Mutex& mutex = it->second;
          mutex.owner = kNoThread;
          while (!mutex.waiters.empty()) {
            const ThreadId waiter = mutex.waiters.front();
            mutex.waiters.pop_front();
            if (threads_[waiter].status == ThreadStatus::kBlockedLock) {
              threads_[waiter].status = ThreadStatus::kRunnable;
              threads_[waiter].lock_target = kNullAddr;
              ++runnable_;
              break;
            }
          }
        }
        break;
      }
      case ExecOp::kInput: {
        const size_t input_index = static_cast<size_t>(instr.imm);
        set_reg(instr.dst,
                input_index < workload_.inputs.size() ? workload_.inputs[input_index] : 0);
        break;
      }
      case ExecOp::kPrint:
        result_.outputs.push_back(reg(instr.op0));
        break;
      case ExecOp::kNop:
        break;
    }

    if ((site & kSiteHookAfter) != 0) {
      options_.hook->AfterInstr(tid, instr.id, frame->regs);
    }
    retire();
  }
  sync_frame();
  return executed;
}

// The fused executor (DESIGN.md §12). Entered from StepBurst at any
// instruction of a fused block; stays inside fused bodies while terminators
// land on fused successors. The straight-line loop is the executor's whole
// point: no per-op bounds check, budget check, hook probe, profile pointer
// test, or retire branch — those costs are paid once per quantum chunk or
// once per region instead. When the burst budget is spent inside the region
// and this is the only runnable thread (the hot single-threaded case), the
// chain does not stop: fused ops cannot spawn, block, unlock or exit, so the
// runnable set cannot change before the chain exits, and every boundary in
// between would pick this thread again. The budget is raised to the run's
// step limit and the crossed boundaries are settled at the exit
// (SettleSoloBoundaries). With more than one runnable thread, or at the step
// limit, the chain deopts on the spent budget and Run() runs the boundary.
//
// Byte identity with StepBurst is preserved op for op:
//   * counters (mem_accesses, branches, block_enters, bursts,
//     context_switches, profile exec/retired/edges) take identical final
//     values — retired is charged per quantum chunk instead of per op, which
//     is invisible outside the run;
//   * scheduler state is identical: the settle consumes the same pick and
//     quantum-re-roll rng draws, in the same order, for the same boundaries
//     Run() would have run one by one, and no boundary a solo chain crosses
//     switches context;
//   * kObserved replicates the exact deliveries and boundary dispatches:
//     straight-line accesses are delivered in op order (subject to the same
//     armed-address filter), a kBr dispatches its branch event and then
//     (when needed) the entered block's — the same events in the same order
//     as StepBurst. No retired event is ever due here: the run has no
//     retired subscriber, or retired delivery is filtered and blocks holding
//     a PT-stop site never run fused;
//   * faults sync the frame to the faulting op (index = op + 1, exactly
//     where StepBurst leaves it) and raise the identical FailureReport;
//     the faulting op is charged to the step budget but never retires, and
//     a faulting access bumps no access counters.
template <bool kObserved, bool kProfiled>
uint64_t Vm::RunFusedChain(ThreadState& thread, const FusedBlock* fb, uint32_t index,
                           uint64_t budget, uint64_t steps_base, const DecodedBlock** resume,
                           uint32_t* resume_index) {
  const ThreadId tid = thread.id;
  const CoreId core = thread.core;
  Frame* const frame = &thread.stack.back();
  Word* const regs = frame->regs.data();
  const FunctionId function_id = frame->function->id;
  [[maybe_unused]] BlockProfile* const prof = options_.profile;
  // Under access filtering no op here is a watch site, so only accesses to
  // armed addresses are delivered.
  const bool mem_observed = kObserved && !on_mem_.empty();
  const std::vector<Addr>* const armed = armed_;

  uint64_t executed = 0;
  const FusedOp* chunk_begin = nullptr;
  ++result_.stats.fused_chains;
  // Solo stretch: the chain-relative position of the first scheduler
  // boundary crossed and not yet settled (0: the chain is not solo; the
  // first boundary lies at executed == budget >= 1).
  uint64_t solo_boundary = 0;
  auto settle = [&] {
    if (solo_boundary != 0) {
      SettleSoloBoundaries(steps_base + solo_boundary, steps_base + executed);
    }
  };
  const FusedBlock* const* const fused_entries = fused_entry_.data();

  // Counters the hot loop bumps once or more per block, accumulated in
  // registers and folded into result_.stats at every chain exit (faults
  // included: fault_at flushes before the failure is raised).
  uint64_t c_retired = 0;
  uint64_t c_blocks = 0;
  uint64_t c_branches = 0;
  uint64_t c_enters = 0;
  auto flush_stats = [&] {
    RunStats& stats = result_.stats;
    stats.fused_retired += c_retired;
    stats.fused_blocks += c_blocks;
    stats.branches += c_branches;
    stats.block_enters += c_enters;
    c_retired = c_blocks = c_branches = c_enters = 0;
  };

  // Fault exit: charge the current chunk's ops (the faulting op included) and
  // park the frame on the instruction after it, which is where StepBurst's
  // ++index-before-switch leaves it.
  auto fault_at = [&](const FusedOp* op) {
    const uint64_t ops_done = static_cast<uint64_t>(op - chunk_begin) + 1;
    executed += ops_done;
    c_retired += ops_done;
    flush_stats();
    settle();
    if constexpr (kProfiled) {
      prof->retired[fb->profile_index] += ops_done;
    }
    frame->block = fb->block;
    frame->index = static_cast<uint32_t>(op - fb->body) + 1;
  };
  auto mem_fault = [&](const FusedOp* op, MemFault fault, Addr addr) {
    fault_at(op);
    const DecodedInstr& instr = *op->src;
    const Instruction& full = *instr.src;
    RaiseFault(thread, MemFaultToFailure(fault), instr.id,
               StrFormat("%s at address 0x%llx: %s",
                         FailureTypeName(MemFaultToFailure(fault)),
                         static_cast<unsigned long long>(addr),
                         full.loc.text.empty() ? OpcodeName(instr.op) : full.loc.text.c_str()));
  };

  // Dispatch-state locals shared by every entry into the threaded region
  // below; each entry point sets them before jumping into the table.
  const FusedOp* op = nullptr;
  const FusedOp* end = nullptr;
  const FusedOp* body_ops = nullptr;
  uint32_t body = 0;
  const DecodedBlock* next = nullptr;
  uint32_t next_pi = 0;

  // Token-threaded dispatch (GNU computed goto, supported by GCC and
  // Clang; the build targets both). Every handler jumps to the next op's
  // handler from its own indirect-branch site, so the predictor learns
  // the per-op successor pattern of the fused body instead of sharing
  // one switch-dispatch target across every op. Entries follow ExecOp
  // declaration order; ops the builder never admits alias op_nop, and the
  // kBr/kJmp slots serve the sentinel terminator each fused body carries at
  // ops[body_len], so the stream flows off the last body op straight into
  // the terminator handler without leaving the dispatch region.
  static const void* const kDispatch[] = {
      &&op_const, &&op_move,  &&op_not,    &&op_add,     &&op_sub,  &&op_mul,
      &&op_div,   &&op_rem,   &&op_eq,     &&op_ne,      &&op_lt,   &&op_le,
      &&op_gt,    &&op_ge,    &&op_and,    &&op_or,      &&op_xor,  &&op_shl,
      &&op_shr,   &&op_load,  &&op_store,  &&op_addrof,  &&op_gep,  &&op_alloc,
      &&op_free,  &&op_nop /* kCall */,    &&op_nop /* kRet */,
      &&op_term_br /* kBr */, &&op_term_jmp /* kJmp */,  &&op_assert,
      &&op_nop /* kThreadCreate */,        &&op_nop /* kThreadJoin */,
      &&op_nop /* kLock */,   &&op_nop /* kUnlock */,    &&op_input,
      &&op_print, &&op_nop};
#define GIST_FUSED_NEXT()                           \
  do {                                              \
    if (++op == end) {                              \
      goto chunk_done;                              \
    }                                               \
    goto* kDispatch[static_cast<size_t>(op->exec)]; \
  } while (false)

block_top:
  ++c_blocks;
  body_ops = fb->body;
  body = fb->body_len;
chunk_next:
  if (budget - executed > body - index) {
    // The whole remaining body plus the terminator fit in the budget: run
    // the threaded stream straight through the sentinel terminator, which
    // exits via term_done below (`end` is never reached on this path).
    op = body_ops + index;
    end = body_ops + body + 1;
    chunk_begin = op;
    goto* kDispatch[static_cast<size_t>(op->exec)];
  }
  if (executed == budget) {
    // The quantum is spent. Alone, and short of the step limit: run on to
    // the limit, settling the boundaries at the exit. A solo chain reaches
    // this point again only at the limit.
    if (solo_boundary == 0 && runnable_ == 1 && steps_base + executed < step_limit_) {
      solo_boundary = executed;
      budget = step_limit_ - steps_base;
      goto chunk_next;
    }
    flush_stats();
    settle();
    *resume = fb->block;
    *resume_index = index;  // index == body: resume on the terminator itself
    return executed;
  }
  // The budget expires at or before the terminator: run the body ops the
  // quantum still covers, land in chunk_done, and come back here.
  op = body_ops + index;
  end = op + (budget - executed);
  chunk_begin = op;
  goto* kDispatch[static_cast<size_t>(op->exec)];

chunk_done:
  // Partial-chunk accounting: these ops retired (matching StepBurst's per-op
  // retired bumps); the budget is now exactly spent, chunk_next decides.
  {
    const uint64_t done = static_cast<uint64_t>(op - chunk_begin);
    index += static_cast<uint32_t>(done);
    executed += done;
    c_retired += done;
    if constexpr (kProfiled) {
      prof->retired[fb->profile_index] += done;
    }
  }
  goto chunk_next;
    op_const:
      regs[op->dst] = op->imm;
      GIST_FUSED_NEXT();
    op_move:
      regs[op->dst] = regs[op->a];
      GIST_FUSED_NEXT();
    op_not:
      regs[op->dst] = regs[op->a] == 0 ? 1 : 0;
      GIST_FUSED_NEXT();
    op_add:
      regs[op->dst] = regs[op->a] + regs[op->b];
      GIST_FUSED_NEXT();
    op_sub:
      regs[op->dst] = regs[op->a] - regs[op->b];
      GIST_FUSED_NEXT();
    op_mul:
      regs[op->dst] = regs[op->a] * regs[op->b];
      GIST_FUSED_NEXT();
    op_div:
      if (regs[op->b] == 0) {
        fault_at(op);
        RaiseFault(thread, FailureType::kArithmeticFault, op->src->id, "division by zero");
        return executed;
      }
      regs[op->dst] = regs[op->a] / regs[op->b];
      GIST_FUSED_NEXT();
    op_rem:
      if (regs[op->b] == 0) {
        fault_at(op);
        RaiseFault(thread, FailureType::kArithmeticFault, op->src->id, "division by zero");
        return executed;
      }
      regs[op->dst] = regs[op->a] % regs[op->b];
      GIST_FUSED_NEXT();
    op_eq:
      regs[op->dst] = regs[op->a] == regs[op->b];
      GIST_FUSED_NEXT();
    op_ne:
      regs[op->dst] = regs[op->a] != regs[op->b];
      GIST_FUSED_NEXT();
    op_lt:
      regs[op->dst] = regs[op->a] < regs[op->b];
      GIST_FUSED_NEXT();
    op_le:
      regs[op->dst] = regs[op->a] <= regs[op->b];
      GIST_FUSED_NEXT();
    op_gt:
      regs[op->dst] = regs[op->a] > regs[op->b];
      GIST_FUSED_NEXT();
    op_ge:
      regs[op->dst] = regs[op->a] >= regs[op->b];
      GIST_FUSED_NEXT();
    op_and:
      regs[op->dst] = (regs[op->a] != 0) && (regs[op->b] != 0);
      GIST_FUSED_NEXT();
    op_or:
      regs[op->dst] = (regs[op->a] != 0) || (regs[op->b] != 0);
      GIST_FUSED_NEXT();
    op_xor:
      regs[op->dst] = regs[op->a] ^ regs[op->b];
      GIST_FUSED_NEXT();
    op_shl:
      regs[op->dst] =
          static_cast<Word>(static_cast<uint64_t>(regs[op->a]) << (regs[op->b] & 63));
      GIST_FUSED_NEXT();
    op_shr:
      regs[op->dst] =
          static_cast<Word>(static_cast<uint64_t>(regs[op->a]) >> (regs[op->b] & 63));
      GIST_FUSED_NEXT();
    op_load: {
      const Addr addr = static_cast<Addr>(regs[op->a]);
      Word value = 0;
      const MemFault fault = memory_.Read(addr, &value);
      if (fault != MemFault::kOk) {
        mem_fault(op, fault, addr);
        return executed;
      }
      regs[op->dst] = value;
      const uint64_t seq = result_.stats.mem_accesses++;
      if (mem_observed && (armed == nullptr || IsArmed(*armed, addr))) {
        DeliverMemAccess(
            MemAccessEvent{seq, tid, core, op->src->id, addr, value, /*is_write=*/false});
      }
      GIST_FUSED_NEXT();
    }
    op_store: {
      const Addr addr = static_cast<Addr>(regs[op->a]);
      const Word value = regs[op->b];
      const MemFault fault = memory_.Write(addr, value);
      if (fault != MemFault::kOk) {
        mem_fault(op, fault, addr);
        return executed;
      }
      const uint64_t seq = result_.stats.mem_accesses++;
      if (mem_observed && (armed == nullptr || IsArmed(*armed, addr))) {
        DeliverMemAccess(
            MemAccessEvent{seq, tid, core, op->src->id, addr, value, /*is_write=*/true});
      }
      GIST_FUSED_NEXT();
    }
    op_addrof:
      regs[op->dst] = static_cast<Word>(memory_.GlobalAddr(op->global)) + op->imm;
      GIST_FUSED_NEXT();
    op_gep:
      regs[op->dst] = regs[op->a] + regs[op->b];
      GIST_FUSED_NEXT();
    op_alloc: {
      const Word size = regs[op->a];
      regs[op->dst] =
          static_cast<Word>(memory_.Alloc(size > 0 ? static_cast<uint64_t>(size) : 1));
      GIST_FUSED_NEXT();
    }
    op_free: {
      const Addr addr = static_cast<Addr>(regs[op->a]);
      const MemFault fault = memory_.Free(addr);
      if (fault != MemFault::kOk) {
        mem_fault(op, fault, addr);
        return executed;
      }
      GIST_FUSED_NEXT();
    }
    op_assert:
      if (regs[op->a] == 0) {
        fault_at(op);
        RaiseFault(thread, FailureType::kAssertViolation, op->src->id,
                   "assertion failed: " + op->src->src->text);
        return executed;
      }
      GIST_FUSED_NEXT();
    op_input: {
      const size_t input_index = static_cast<size_t>(op->imm);
      regs[op->dst] =
          input_index < workload_.inputs.size() ? workload_.inputs[input_index] : 0;
      GIST_FUSED_NEXT();
    }
    op_print:
      result_.outputs.push_back(regs[op->a]);
      GIST_FUSED_NEXT();
    op_nop:
      GIST_FUSED_NEXT();
#undef GIST_FUSED_NEXT

    // --- sentinel terminator (one more step of the quantum) -------------------
    // Only the whole-body fast path above dispatches here; chunk_next never
    // admits the sentinel unless the budget covers it.
    op_term_br: {
      const bool taken = regs[fb->cond] != 0;
      ++c_branches;
      if constexpr (kProfiled) {
        ++(taken ? prof->taken : prof->not_taken)[fb->profile_index];
      }
      next = taken ? fb->taken : fb->not_taken;
      next_pi = taken ? fb->taken_pi : fb->not_taken_pi;
      if constexpr (kObserved) {
        const InstrId term_id = fb->term_src->id;
        Dispatch(on_branch_,
                 [&](ExecutionObserver& o) { o.OnBranch(tid, core, term_id, taken); });
      }
      goto term_done;
    }
    op_term_jmp:
      next = fb->taken;
      next_pi = fb->taken_pi;
    term_done: {
      // Chunk + terminator accounting: the body ops of this chunk and the
      // terminator retired (matching StepBurst's per-op retired bumps), and
      // `next` entered (matching StepBurst's enter_block).
      const uint64_t done = static_cast<uint64_t>(op - chunk_begin) + 1;
      executed += done;
      c_retired += done;
      ++c_enters;
      if constexpr (kProfiled) {
        prof->retired[fb->profile_index] += done;
        ++prof->exec[next_pi];
      }
      if constexpr (kObserved) {
        if (NeedsBlockEnter(next_pi)) {
          Dispatch(on_block_enter_, [&](ExecutionObserver& o) {
            o.OnBlockEnter(tid, core, function_id, next->id);
          });
        }
      }
      // Chain or deopt: stay fused while the successor has a fused body — a
      // spent quantum is decided at chunk_next above.
      const FusedBlock* const next_fb = fused_entries[next_pi];
      if (next_fb == nullptr) {
        flush_stats();
        settle();
        *resume = next;
        *resume_index = 0;
        return executed;
      }
      fb = next_fb;
      index = 0;
      goto block_top;
    }
}

// See the declaration for the contract. Run() would reach each of these
// boundaries with the quantum spent and this thread the only runnable one:
// PickNext() makes its one draw and picks it again, no context switch, a
// fresh quantum. `boundary < end <= step_limit_` holds for every boundary
// settled, so Run()'s limit checks would pass and only its clamps apply. A
// boundary at `end` itself is Run()'s: after a deopt or fault it finds the
// quantum spent on unchanged state and runs it; at the step limit it stops
// the run before any draw.
//
// The loop runs on locals — the generator, the quantum draw, the step limit
// and the counters — written back once, so a boundary costs the two
// generator steps of its draws plus a few register ops, with no call and no
// store to the VM. The runnable set cannot change inside a solo stretch, so
// one audit covers every boundary settled here.
void Vm::SettleSoloBoundaries(uint64_t boundary, uint64_t end) {
  if (boundary >= end) {
    return;
  }
  if (AuditEnabled()) {
    AuditRunnable();
  }
  Rng rng = rng_;
  const FixedBound quantum_draw = quantum_draw_;
  const uint64_t min_quantum = workload_.min_quantum;
  const uint64_t step_limit = step_limit_;
  uint64_t bursts = 0;
  uint64_t extended = 0;
  uint64_t owed = 0;
  while (boundary < end) {
    rng.NextU64();  // PickNext()'s draw with one runnable thread
    const uint64_t quantum = min_quantum + rng.NextBelow(quantum_draw);
    const uint64_t burst = std::min<uint64_t>(quantum == 0 ? 1 : quantum, step_limit - boundary);
    ++bursts;
    owed = quantum - std::min(quantum, burst);
    extended += burst;
    boundary += burst;
  }
  rng_ = rng;
  result_.stats.bursts += bursts;
  owed_quantum_ = owed;
  chain_extended_ += extended;
}

std::atomic<bool> Vm::audit_runnable_{false};
std::atomic<uint64_t> Vm::runnable_audits_{0};

void Vm::AuditRunnable() const {
  const auto scanned = std::count_if(threads_.begin(), threads_.end(), [](const ThreadState& t) {
    return t.status == ThreadStatus::kRunnable;
  });
  GIST_CHECK_EQ(static_cast<uint64_t>(scanned), runnable_) << "runnable count drifted";
  runnable_audits_.fetch_add(1, std::memory_order_relaxed);
}

ThreadId Vm::PickNext(ThreadId current) {
  ++result_.stats.picks;
  if (AuditEnabled()) {
    AuditRunnable();
  }
  if (runnable_ == 0) {
    return kNoThread;
  }
  if (runnable_ == 1) {
    // NextBelow(1) always accepts its first sample and returns 0; consume the
    // same draw without the modulo.
    rng_.NextU64();
    if (threads_[current].status == ThreadStatus::kRunnable) {
      return current;
    }
  }
  // Equivalent to collecting runnable ids in order and indexing: threads_ is
  // already in thread-id order.
  uint64_t pick = runnable_ == 1 ? 0 : rng_.NextBelow(runnable_);
  for (const ThreadState& thread : threads_) {
    if (thread.status != ThreadStatus::kRunnable) {
      continue;
    }
    if (pick == 0) {
      return thread.id;
    }
    --pick;
  }
  return kNoThread;
}

RunResult Vm::Run() {
  const FunctionId main_id = module_.FindFunction("main");
  GIST_CHECK_NE(main_id, kNoFunction) << "module has no main()";
  SpawnThread(main_id, {}, /*is_main=*/true);

  ThreadId current = 0;
  core_occupant_[threads_[0].core] = 0;
  {
    const Frame& main_frame = threads_[0].stack.back();
    Dispatch(on_context_switch_, [&](ExecutionObserver& o) {
      o.OnContextSwitch(threads_[0].core, kNoThread, 0, main_frame.function->id,
                        main_frame.block->id, main_frame.index);
    });
  }

  quantum_draw_ = FixedBound(workload_.max_quantum - workload_.min_quantum + 1);
  step_limit_ = options_.max_steps;
  if (options_.kill_after_steps != 0) {
    step_limit_ = std::min(step_limit_, options_.kill_after_steps);
  }
  uint64_t quantum = workload_.min_quantum + rng_.NextBelow(quantum_draw_);

  while (!done_) {
    if (options_.kill_after_steps != 0 && result_.stats.steps >= options_.kill_after_steps) {
      // Injected client death (DESIGN.md §8): stop cold at the burst
      // boundary, with no failure report — the machine is simply gone.
      result_.killed = true;
      break;
    }
    if (result_.stats.steps >= options_.max_steps) {
      ThreadState& thread = threads_[current];
      InstrId last = kNoInstr;
      if (!thread.stack.empty()) {
        const Frame& top = thread.stack.back();
        last = top.block->instrs[std::min<size_t>(top.index, top.block->size - 1)].id;
      }
      RaiseFailure(thread, FailureType::kHang, last, "step budget exhausted");
      break;
    }

    ThreadState* thread = &threads_[current];
    if (thread->status != ThreadStatus::kRunnable || quantum == 0) {
      const ThreadId next = PickNext(current);
      if (next == kNoThread) {
        bool any_blocked = false;
        for (const ThreadState& t : threads_) {
          if (t.status == ThreadStatus::kBlockedJoin || t.status == ThreadStatus::kBlockedLock) {
            any_blocked = true;
          }
        }
        if (any_blocked) {
          ThreadState& blocked = threads_[current];
          RaiseFailure(blocked, FailureType::kDeadlock, kNoInstr, "all live threads blocked");
        }
        break;  // every thread exited: normal termination
      }
      if (next != current) {
        ++result_.stats.context_switches;
        const CoreId core = threads_[next].core;
        const ThreadId prev = core_occupant_[core];
        core_occupant_[core] = next;
        const Frame& next_frame = threads_[next].stack.back();
        Dispatch(on_context_switch_, [&](ExecutionObserver& o) {
          o.OnContextSwitch(core, prev, next, next_frame.function->id, next_frame.block->id,
                            next_frame.index);
        });
      }
      current = next;
      thread = &threads_[current];
      quantum = workload_.min_quantum + rng_.NextBelow(quantum_draw_);
    }

    if (!thread->started) {
      thread->started = true;
      // First schedule of this thread: it enters its entry block now.
      ++result_.stats.block_enters;
      if (options_.profile != nullptr) {
        ++options_.profile->exec[thread->stack.back().block->profile_index];
      }
      NotifyBlockEnter(*thread);
    }
    // Execute the whole quantum as one burst. A zero quantum (possible when
    // the workload's min_quantum is 0) historically still ran one instruction
    // per scheduling decision, so the burst floor is 1. The cap keeps the
    // step-budget check exact and lands an injected death on its exact
    // instruction count, independent of quantum draws, so fault plans stay
    // bit-reproducible.
    const uint64_t burst =
        std::min<uint64_t>(quantum == 0 ? 1 : quantum, step_limit_ - result_.stats.steps);
    owed_quantum_ = quantum - std::min(quantum, burst);
    chain_extended_ = 0;
    ++result_.stats.bursts;
    const uint64_t executed = StepBurst(*thread, burst);
    result_.stats.steps += executed;
    // The thread owes what is left of its last quantum: the part past the
    // last burst's end, plus any granted budget the burst did not run (a
    // block, exit or fault cut it short). A burst always runs at least one
    // instruction, so a zero quantum stays zero.
    quantum = owed_quantum_ + (burst + chain_extended_ - executed);
  }
  result_.stats.retired = result_.stats.steps - unretired_steps_;
  return result_;
}

}  // namespace gist
