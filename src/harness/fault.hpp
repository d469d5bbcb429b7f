// rtk::harness::fault -- the deterministic fault-injection campaign
// engine.
//
// Pipeline (one injection):
//
//   FuzzSpec workload --baseline run--> {fingerprint, event/op totals}
//   FaultSpec (workload + class + site) --build_injection--> ScenarioSpec
//       --run_scenario--> ScenarioResult x InvariantOracle
//       --classify--> masked | detected | invariant_violated | hung
//
// Faults are injected at SimObserver event sites (bit-flips of TCB /
// kernel-object bookkeeping, interrupt drop/duplication, timer skew) or
// at interpreter op sites (service-call argument corruption), always
// through the sanctioned mutation hooks of sim::SimApi and
// tkernel::TKernel -- never by calling service entry points from a
// callback. Every injection is a pure function of its FaultSpec: the
// trigger is an event/op ordinal, the victim a deterministic index into
// the live registries, so a repro JSON replays byte-for-byte.
//
// A campaign crosses a generated workload corpus with fault classes and
// sampled injection sites, runs every injection through the batch
// ScenarioRunner (hang-guarded by ScenarioSpec::delta_budget) and rolls
// the outcomes up into a service-call x fault-class coverage heat-map
// (BENCH_fault_coverage.json).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/fuzz.hpp"
#include "harness/runner.hpp"

namespace rtk::harness::fault {

using Json = api::Json;

// ---- fault classes ----------------------------------------------------------

enum class FaultClass : std::uint8_t {
    tcb_bitflip,     ///< flip a bit of a TCB bookkeeping field
    object_bitflip,  ///< flip a bit of a semaphore/eventflag field
    arg_corrupt,     ///< XOR a mask into one service-call argument
    irq_drop,        ///< swallow the next N interrupt raises
    irq_dup,         ///< deliver the next interrupt raise twice
    timer_skew,      ///< shift the earliest timer firing by +/- ms
};

inline constexpr std::size_t fault_class_count = 6;

/// All classes, in enum order (campaigns cycle through this).
const FaultClass* all_fault_classes();

const char* to_string(FaultClass c);
bool fault_class_from_string(const std::string& s, FaultClass& out);

// ---- FaultSpec --------------------------------------------------------------

/// One deterministic injection: a workload plus where and what to
/// corrupt. Replaying the same FaultSpec yields a bit-identical run.
struct FaultSpec {
    fuzz::FuzzSpec workload;
    FaultClass cls = FaultClass::tcb_bitflip;
    /// Injection site: the 0-based observer-event ordinal at which the
    /// fault is applied -- except for arg_corrupt, where it is the
    /// 0-based op-execution ordinal of the interpreter.
    std::uint64_t trigger = 0;
    /// Victim selector, reduced modulo the live object population of the
    /// targeted registry at injection time.
    std::uint32_t target = 0;
    /// Field selector (reduced modulo the per-class field count): the
    /// TCB/object field to flip, or the operand (a..d) to corrupt.
    std::uint32_t field = 0;
    /// Bit to flip (reduced modulo the field width by the kernel hook).
    std::uint32_t bit = 0;
    /// Class parameter: XOR mask (arg_corrupt), raise count (irq_drop),
    /// skew in ms (timer_skew); unused otherwise.
    std::int32_t param = 0;
    /// Hang guard handed to ScenarioSpec::delta_budget.
    std::uint64_t delta_budget = 2000000;

    /// "fault/<class>/<workload seed>/t<trigger>" -- the scenario name.
    std::string name() const;

    Json to_json() const;
    static bool from_json(const Json& j, FaultSpec& out,
                          std::string* error = nullptr);
};

// ---- outcomes ---------------------------------------------------------------

/// Oracle-classified outcome of one injection, in *ascending* severity.
/// Classification precedence is the reverse: hung beats
/// invariant_violated beats detected beats masked.
enum class Outcome : std::uint8_t {
    masked,              ///< run completed, oracle clean, no sim error
    detected,            ///< the simulation errored (fatal check fired)
    invariant_violated,  ///< the run completed but broke a kernel law
    hung,                ///< the delta budget ran out (livelock)
};

inline constexpr std::size_t outcome_count = 4;

const char* to_string(Outcome o);
bool outcome_from_string(const std::string& s, Outcome& out);

/// Everything observed about one injection run.
struct InjectionResult {
    Outcome outcome = Outcome::masked;
    /// The trigger actually fired (always true when trigger was sampled
    /// inside the baseline profile; kept for off-profile specs).
    bool injected = false;
    /// Behaviour fingerprint differs from the fault-free baseline --
    /// orthogonal to the outcome (a masked fault may still diverge).
    bool diverged = false;
    /// Service call active at the injection site ("(boot)" when the
    /// trigger fired before any op ran; "(none)" when never injected).
    std::string service_call = "(none)";
    std::uint64_t fingerprint = 0;
    std::uint64_t baseline_fingerprint = 0;
    std::uint64_t oracle_violations = 0;
    std::vector<std::string> violations;
    std::string error;  ///< ScenarioResult::error (empty when masked)
    /// Proof of multi-observer fan-out: events counted by the trace
    /// consumer riding alongside the oracle and the injector.
    std::uint64_t trace_events = 0;
};

// ---- single-injection execution ---------------------------------------------

/// Fault-free profile of one workload, used to sample injection sites
/// and as the divergence reference.
struct BaselineProfile {
    bool ok = false;    ///< the baseline run itself completed cleanly
    std::string error;  ///< baseline failure detail (workload is unusable)
    std::uint64_t fingerprint = 0;
    std::uint64_t events = 0;  ///< observer callbacks emitted by the run
    std::uint64_t ops = 0;     ///< interpreter ops executed by the run
};

/// Run `workload` once without a fault and profile it.
BaselineProfile profile_baseline(const fuzz::FuzzSpec& workload,
                                 std::uint64_t delta_budget = 2000000);

/// A built injection: the runnable scenario plus the shared state the
/// run fills in (harvest with harvest() after run_scenario).
struct BuiltInjection {
    ScenarioSpec scenario;
    std::shared_ptr<fuzz::OracleReport> oracle;
    std::shared_ptr<struct InjectionProbe> probe;
};

/// Turn a FaultSpec into a runnable ScenarioSpec (oracle + injector +
/// trace consumer all attached to the one SimApi). `with_fault = false`
/// builds the identical scenario minus the injection (baseline leg).
/// `trace` opts the run into binary tracing (trace::Recorder rides the
/// same observer fan-out; the injector stamps a "fault:" annotation at
/// the injection instant).
BuiltInjection build_injection(const FaultSpec& fault, bool with_fault = true,
                               const TraceConfig& trace = {});

/// Distill a finished run into an InjectionResult.
InjectionResult harvest(const BuiltInjection& built, const ScenarioResult& run,
                        const BaselineProfile& baseline);

/// Convenience: build, run and classify one injection.
InjectionResult run_injection(const FaultSpec& fault,
                              const BaselineProfile& baseline);

// ---- repro files ------------------------------------------------------------

/// Self-contained repro document: the FaultSpec (workload embedded) plus
/// the observed result. Deterministic, so replaying and re-serializing
/// reproduces the document byte-for-byte.
/// `trace_path`, when non-empty, is recorded as the result's "trace"
/// member -- the .rtktrace capture of this very injection run.
std::string make_repro_json(const FaultSpec& fault,
                            const InjectionResult& result,
                            const std::string& trace_path = std::string());
/// Parse a repro document (or a bare FaultSpec object) back into a spec.
bool parse_repro_json(const std::string& text, FaultSpec& out,
                      std::string* error = nullptr);

// ---- campaign ---------------------------------------------------------------

struct CampaignOptions {
    std::uint64_t base_seed = 1;
    /// Workload corpus size (specs generated from base_seed upward).
    std::size_t corpus = 8;
    /// Injections per corpus workload (classes cycled, sites sampled).
    std::size_t injections_per_workload = 32;
    /// Worker threads of the ScenarioRunner (0 = hardware concurrency).
    unsigned threads = 0;
    /// Hang guard per injection run.
    std::uint64_t delta_budget = 2000000;
    /// When non-empty, write one repro JSON per non-masked outcome here
    /// (at most max_repros files).
    std::string repro_dir;
    std::size_t max_repros = 8;
    /// When non-empty, trace every injection run (trace::Recorder on the
    /// same observer fan-out as oracle + injector) and write the
    /// .rtktrace of each non-masked injection here (at most max_repros
    /// files, referenced by the matching repro JSON's "trace" member).
    std::string trace_dir;
    fuzz::GenParams params;
};

/// One heat-map cell: outcome counts of (service call, fault class).
struct CoverageCell {
    std::uint64_t masked = 0;
    std::uint64_t detected = 0;
    std::uint64_t invariant_violated = 0;
    std::uint64_t hung = 0;

    std::uint64_t total() const {
        return masked + detected + invariant_violated + hung;
    }
    void add(Outcome o);
};

struct CampaignReport {
    std::size_t workloads = 0;   ///< corpus specs profiled
    std::size_t injections = 0;  ///< injection runs executed
    std::size_t injected = 0;    ///< runs whose trigger fired
    std::size_t diverged = 0;    ///< runs whose fingerprint moved
    std::uint64_t outcomes[outcome_count] = {0, 0, 0, 0};
    /// Heat-map: service call -> fault class -> outcome counts.
    std::map<std::string, std::map<std::string, CoverageCell>> heat;
    std::vector<std::string> repro_paths;
    /// .rtktrace files written for non-masked injections (campaigns with
    /// CampaignOptions::trace_dir set; parallel to repro_paths by index
    /// only when both dirs were configured).
    std::vector<std::string> trace_paths;
    /// Traced injection runs and their summed scalar trace metrics
    /// (zero / empty on untraced campaigns).
    std::size_t traced_runs = 0;
    trace::Metrics trace_metrics;
    double wall_seconds = 0.0;

    std::uint64_t count(Outcome o) const {
        return outcomes[static_cast<std::size_t>(o)];
    }
    /// Distinct service-call rows in the heat-map (excluding "(none)").
    std::size_t service_calls_covered() const;
    /// Distinct fault-class columns present in the heat-map.
    std::size_t fault_classes_covered() const;

    /// The BENCH_fault_coverage.json document as a Json tree -- callers
    /// that stamp extra members (e.g. the bench provenance block) edit
    /// the tree instead of splicing text.
    Json to_json_doc() const;
    /// to_json_doc() rendered with 2-space indent + trailing newline.
    std::string to_json() const;
};

/// Run a campaign: generate the corpus, profile fault-free baselines,
/// sample `injections_per_workload` injection sites per workload (fault
/// classes cycled so all six appear), run every injection through the
/// batch ScenarioRunner and classify each outcome.
CampaignReport run_fault_campaign(const CampaignOptions& opts);

}  // namespace rtk::harness::fault
