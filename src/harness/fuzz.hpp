// rtk::harness::fuzz -- the property-based scenario fuzzer.
//
// Pipeline (one seed):
//
//   seed --generate_spec--> FuzzSpec --build_scenario--> ScenarioSpec
//        --run--> {serial run, parallel run} x InvariantOracle
//        --compare--> behaviour fingerprints must be bit-identical
//
// A failing seed (oracle violation, simulation error, or serial-vs-
// parallel fingerprint mismatch) is minimized by structural delta
// debugging and dumped as a self-contained repro JSON that replays
// byte-for-byte: the spec is embedded, so the repro stays valid even if
// the generator evolves. tests/fuzz/corpus/ pins replayed repros as
// regression tests.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/fuzz_interp.hpp"
#include "harness/fuzz_oracle.hpp"
#include "harness/fuzz_spec.hpp"
#include "harness/scenario.hpp"

namespace rtk::harness::fuzz {

/// Post-run oracle findings of one scenario execution (filled by the
/// check predicate installed by build_scenario()).
struct OracleReport {
    bool ran = false;
    std::uint64_t events = 0;
    std::uint64_t violation_count = 0;
    std::vector<std::string> violations;
};

struct BuiltScenario {
    ScenarioSpec scenario;
    /// Filled when the scenario's check predicate runs (end of run).
    std::shared_ptr<OracleReport> oracle;
};

/// Turn a spec into a runnable ScenarioSpec. The workload interprets the
/// spec's op programs; when `with_oracle` is set an InvariantOracle is
/// attached for the whole run and its findings land in `oracle`.
BuiltScenario build_scenario(const FuzzSpec& spec, bool with_oracle = true);

/// As above with interpreter hooks and an extra workload-time callback:
/// `attach` runs on the freshly built Simulation after the oracle is
/// installed (the fault engine registers its injector and trace
/// observers there, via sim.retain()).
BuiltScenario build_scenario(const FuzzSpec& spec, bool with_oracle,
                             WorkloadHooks hooks,
                             std::function<void(Simulation&)> attach);

/// Differential result of one spec: serial run vs. a run on a worker
/// thread pool, both under the oracle.
struct SpecVerdict {
    bool sim_error = false;
    std::string error;                     ///< first error (either leg)
    std::uint64_t violation_count = 0;     ///< both legs combined
    std::vector<std::string> violations;
    std::uint64_t serial_fingerprint = 0;
    std::uint64_t parallel_fingerprint = 0;
    bool mismatch = false;

    bool ok() const { return !sim_error && violation_count == 0 && !mismatch; }
    /// "invariant", "mismatch", "sim-error" or "ok".
    const char* kind() const;
    std::string detail() const;
};

/// Run one spec serially and once through a 2-worker ScenarioRunner,
/// oracle attached to both, and compare fingerprints.
SpecVerdict run_spec_differential(const FuzzSpec& spec);

/// Shrink `spec` while it keeps failing run_spec_differential(): drops
/// tasks, handlers, objects and ops (with index remapping) and halves
/// the duration. `budget` bounds the number of candidate executions.
FuzzSpec minimize_spec(const FuzzSpec& spec, int budget = 160);

// ---- repro files ------------------------------------------------------------

/// Self-contained repro document (spec embedded; see README).
std::string make_repro_json(const FuzzSpec& spec, const std::string& kind,
                            const std::string& detail, bool minimized);
/// Parse either a repro document or a bare spec object.
bool parse_repro_json(const std::string& text, FuzzSpec& out,
                      std::string* error = nullptr);

// ---- campaign ---------------------------------------------------------------

struct FuzzOptions {
    std::uint64_t base_seed = 1;
    std::size_t num_seeds = 100;
    /// Run every seed under both scheduler policies (doubles the
    /// scenario count).
    bool both_policies = true;
    /// Worker threads of the parallel leg (0 = min(hardware, 8)).
    unsigned parallel_threads = 0;
    bool minimize = true;
    /// When non-empty, write one repro JSON per failing seed here.
    std::string repro_dir;
    GenParams params;
};

struct FuzzFailure {
    std::uint64_t seed = 0;
    std::string scenario;
    std::string kind;
    std::string detail;
    std::string repro_json;
    std::string repro_path;  ///< empty when repro_dir was not set
};

struct FuzzReport {
    std::size_t scenarios = 0;  ///< specs executed (seeds x policies)
    std::size_t runs = 0;       ///< simulations executed (serial + parallel)
    std::uint64_t oracle_events = 0;
    std::size_t mismatches = 0;
    std::uint64_t violations = 0;
    std::size_t sim_errors = 0;
    std::vector<FuzzFailure> failures;
    double wall_seconds = 0.0;

    bool ok() const { return failures.empty(); }
    double scenarios_per_second() const {
        return wall_seconds > 0.0 ? static_cast<double>(scenarios) / wall_seconds
                                  : 0.0;
    }
    std::string to_json() const;
};

/// Run the campaign: generate num_seeds specs from base_seed, execute
/// each (both policies when requested) serially and through the parallel
/// ScenarioRunner, check every invariant, compare fingerprints, minimize
/// and dump repros for failures.
FuzzReport run_fuzz_campaign(const FuzzOptions& opts);

}  // namespace rtk::harness::fuzz
