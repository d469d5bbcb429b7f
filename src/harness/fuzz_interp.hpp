// The op-program interpreter: executes corpus::Program sequences against
// a live kernel. One Runtime per simulation holds the ID tables and
// workload-side state (mailbox node pools, message-buffer payloads,
// held pool blocks); exec_op maps each op onto the corresponding service
// call with every operand clamped or index-guarded, so any program is
// safe to run against any object population. Shared by the fuzzer
// (fuzz.cpp) and the corpus bridge (corpus_bridge.cpp), which must
// interpret identically or corpus fingerprints and fuzz repros diverge.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness/fuzz_spec.hpp"
#include "tkernel/tkernel.hpp"

namespace rtk::api {
struct SystemSpec;
}  // namespace rtk::api

namespace rtk::harness::fuzz {

/// Per-op interception of the spec interpreter. `before_op` runs before
/// every op executes -- `index` is the 0-based global op-execution count
/// across all tasks and handlers of the run, `op` may be rewritten in
/// place (the spec itself is never mutated). This is how the fault
/// engine attributes injections to service calls and corrupts call
/// arguments deterministically.
struct WorkloadHooks {
    std::function<void(std::uint64_t index, corpus::Op& op, bool handler)> before_op;
};

/// Per-simulation interpreter state. Created fresh by the workload of
/// each run so identical specs replay identically.
struct Runtime {
    tkernel::TKernel* tk = nullptr;
    WorkloadHooks hooks;
    std::uint64_t op_index = 0;  ///< global op-execution counter

    std::vector<tkernel::ID> tasks, sems, flgs, mtxs, mbxs, mbfs, mpfs, mpls,
        cycs, alms;
    std::vector<tkernel::UINT> intvecs;

    struct MbxPool {
        std::vector<std::unique_ptr<tkernel::T_MSG_PRI>> nodes;
        std::vector<tkernel::T_MSG_PRI*> free;
    };
    std::vector<MbxPool> mbx_pools;

    struct TaskRt {
        std::vector<std::pair<std::size_t, void*>> mpf_held;
        std::vector<std::pair<std::size_t, void*>> mpl_held;
        std::vector<std::uint8_t> snd_buf;
        std::vector<std::uint8_t> rcv_buf;
    };
    std::vector<TaskRt> task_rt;

    bool task_idx_ok(std::int32_t i) const {
        return i >= 0 && static_cast<std::size_t>(i) < tasks.size();
    }
    /// True when `self` has workload-side buffers (mbf/mpf/mpl ops).
    bool task_rt_ok(int self) const {
        return self >= 0 && static_cast<std::size_t>(self) < task_rt.size();
    }
};

/// The user main of an interpreted workload: size the workload-side
/// state (`mbx_nodes[i]` message nodes for mailbox i, clamped to
/// [1, 64]; per-task send/receive payloads as long as the largest
/// message-buffer message), instantiate `sys`, then fill the ID tables.
/// Autostarted tasks can preempt the init task mid-instantiation;
/// exec_op's index guards turn ops against still-empty tables into
/// deterministic no-ops. A failed instantiation is a fatal report under
/// `who`, reading "<what> instantiation failed: <error>".
void instantiate_workload(Runtime& rt, const api::SystemSpec& sys,
                          const std::vector<int>& mbx_nodes,
                          std::string_view who, const std::string& what);

/// Execute one op. `self` is the invoking task's spec index, -1 in
/// handler context. Handlers never block: their timeouts collapse to
/// TMO_POL and task-state ops (held blocks, message nodes) are skipped.
void exec_op(Runtime& rt, int self, const corpus::Op& op, bool handler);

/// Interpret `ops` in order, routing each through hooks.before_op.
void run_program(const std::shared_ptr<Runtime>& rt, int self,
                 const std::vector<corpus::Op>& ops, bool handler);

}  // namespace rtk::harness::fuzz
