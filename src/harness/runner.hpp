// ScenarioRunner -- fans a batch of ScenarioSpecs out across a pool of
// host worker threads, one isolated rtk::Simulation per scenario, and
// aggregates the per-scenario results into a structured BatchReport.
//
// This is the "hundreds of configurations in one binary" engine the
// paper's design-space-exploration story implies: scenario i runs in
// whatever worker grabs it first, but results[i] always corresponds to
// specs[i], and every scenario is bit-identical to a serial run of the
// same spec (each Simulation is fully self-contained: every object names
// its kernel, and only a running kernel is bound to its thread -- see
// sysc::Kernel::current()).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "harness/scenario.hpp"

namespace rtk::harness {

struct BatchReport {
    /// One result per input spec, in spec order (independent of which
    /// worker executed which scenario).
    std::vector<ScenarioResult> results;
    /// Worker threads used and wall-clock time of the whole batch.
    unsigned threads = 1;
    double wall_seconds = 0.0;
    /// Batch-level infrastructure failure (e.g. thread-pool creation
    /// threw); empty on a clean run. Scenarios still complete -- the
    /// surviving workers (or the calling thread) drain the batch.
    std::string error;

    std::size_t passed() const;
    std::size_t failed() const;
    bool all_passed() const { return failed() == 0; }
    double scenarios_per_second() const;
    /// Sum of per-scenario host times; wall_seconds times the effective
    /// parallelism.
    double total_host_seconds() const;
    /// Number of traced results (ScenarioSpec::trace.enabled runs).
    std::size_t traced() const;
    /// Scalar trace metrics summed over every traced result (per-task
    /// breakdowns stay in the individual results).
    trace::Metrics aggregate_metrics() const;

    /// Serialize to JSON (schema documented in README "Batch scenario
    /// runner"): {"batch": {...aggregates...}, "results": [...]}; traced
    /// batches add a "trace" aggregate and per-result trace members.
    std::string to_json() const;
    /// Write to_json() to `path`; returns false on I/O failure.
    bool write_json(const std::string& path) const;
};

class ScenarioRunner {
public:
    struct Options {
        /// Worker threads; 0 means one per hardware thread. 1 runs the
        /// batch serially on the calling thread.
        unsigned threads = 0;
    };

    ScenarioRunner() = default;
    explicit ScenarioRunner(Options opts) : opts_(opts) {}

    /// Run every spec to completion; never throws (per-scenario errors
    /// land in the corresponding result).
    BatchReport run(const std::vector<ScenarioSpec>& specs) const;

    /// Effective worker count for a batch of `n` scenarios.
    unsigned effective_threads(std::size_t n) const;

private:
    Options opts_;
};

}  // namespace rtk::harness
