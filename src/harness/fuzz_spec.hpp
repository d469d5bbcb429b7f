// FuzzSpec -- the pure-data description of one randomized kernel
// scenario: kernel configuration, object population (tasks, semaphores,
// eventflags, mutexes, mailboxes, message buffers, memory pools, cyclic/
// alarm handlers, interrupt vectors) and one small op program per task
// and per handler. A FuzzSpec is everything the differential driver
// needs to reproduce a run:
//
//   seed  --generate-->  FuzzSpec  --build_scenario-->  ScenarioSpec
//
// generate() is deterministic and platform-independent (corpus/rng.hpp),
// and to_json()/from_json() round-trip losslessly, so a repro file can
// pin either the seed alone or a minimized spec that no longer matches
// any seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/json.hpp"
#include "corpus/ops.hpp"

namespace rtk::harness::fuzz {

// The op data model lives in rtk::corpus (corpus/ops.hpp) so corpus
// scenario files and fuzz specs share one encoding and one
// interpreter.
using SpecTmo = corpus::SpecTmo;
using OpKind = corpus::OpKind;
using corpus::op_kind_from_string;
using corpus::to_string;

struct TaskSpec {
    std::int32_t pri = 1;
    bool tex = false;  ///< define a task-exception handler at creation
    std::vector<corpus::Op> ops;
};

struct SemSpec {
    std::int32_t init = 0;
    std::int32_t max = 1;
    bool tpri = false;
    bool cnt_order = false;  ///< TA_CNT instead of TA_FIRST
};

struct FlgSpec {
    std::uint32_t init = 0;
    bool tpri = false;
    bool wmul = true;
};

struct MtxSpec {
    /// 0 = TA_TFIFO, 1 = TA_TPRI, 2 = TA_INHERIT, 3 = TA_CEILING.
    std::int32_t proto = 0;
    std::int32_t ceil = 1;
};

struct MbxSpec {
    bool tpri = false;
    bool mpri = false;
    std::int32_t nodes = 4;  ///< size of the workload's T_MSG node pool
};

struct MbfSpec {
    std::int32_t bufsz = 64;
    std::int32_t maxmsz = 16;
    bool tpri = false;
};

struct MpfSpec {
    std::int32_t cnt = 2;
    std::int32_t blksz = 16;
    bool tpri = false;
};

struct MplSpec {
    std::int32_t size = 256;
    bool tpri = false;
};

struct CycSpec {
    std::int32_t period_ms = 5;
    std::int32_t phase_ms = 0;
    bool autostart = true;
    bool phs = false;
    std::vector<corpus::Op> ops;
};

struct AlmSpec {
    std::int32_t start_ms = 0;  ///< 0: created stopped
    std::vector<corpus::Op> ops;
};

struct IntSpec {
    std::int32_t pri = 1;
    std::vector<corpus::Op> ops;
};

struct FuzzSpec {
    std::uint64_t seed = 0;       ///< generator seed (0 for hand-built specs)
    std::uint32_t duration_ms = 50;
    std::uint32_t tick_us = 1000;
    bool round_robin = false;     ///< scheduler policy under test
    std::int32_t iter_units = 10; ///< per-iteration base compute units

    std::vector<TaskSpec> tasks;
    std::vector<SemSpec> sems;
    std::vector<FlgSpec> flgs;
    std::vector<MtxSpec> mtxs;
    std::vector<MbxSpec> mbxs;
    std::vector<MbfSpec> mbfs;
    std::vector<MpfSpec> mpfs;
    std::vector<MplSpec> mpls;
    std::vector<CycSpec> cycs;
    std::vector<AlmSpec> alms;
    std::vector<IntSpec> ints;

    /// Scenario name used in reports: "fuzz/<seed>/<policy>".
    std::string scenario_name() const;

    api::Json to_json() const;
    static bool from_json(const api::Json& j, FuzzSpec& out,
                          std::string* error = nullptr);

    bool operator==(const FuzzSpec& other) const {
        return to_json().dump(-1) == other.to_json().dump(-1);
    }
};

/// Tunable bounds of the generator; the defaults match the fuzz-smoke
/// budget (small scenarios, every object class reachable).
struct GenParams {
    std::int32_t min_tasks = 2;
    std::int32_t max_tasks = 5;
    std::int32_t max_ops_per_task = 10;
    std::int32_t max_sems = 2;
    std::int32_t max_flgs = 2;
    std::int32_t max_mtxs = 2;
    std::int32_t max_mbxs = 1;
    std::int32_t max_mbfs = 1;
    std::int32_t max_mpfs = 1;
    std::int32_t max_mpls = 1;
    std::int32_t max_cycs = 2;
    std::int32_t max_alms = 1;
    std::int32_t max_ints = 2;
    std::int32_t min_duration_ms = 40;
    std::int32_t max_duration_ms = 90;
    std::int32_t max_pri = 16;
};

/// Deterministically expand `seed` into a scenario (both policies share
/// the structure: the policy is chosen by one low bit of the seed unless
/// overridden by the caller afterwards).
FuzzSpec generate_spec(std::uint64_t seed, const GenParams& params = GenParams{});

}  // namespace rtk::harness::fuzz
