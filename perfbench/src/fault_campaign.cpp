// fault_campaign: fault::run_fault_campaign at threads = 1 with no store,
// repro or trace directories -- generated workloads x sampled injections,
// baseline profiling included.
//
// The traced pass rebuilds the campaign from its public pieces:
// generate_spec, profile_baseline, the campaign's site sampling (classes
// cycled, triggers uniform inside the baseline profile), build_injection,
// the run_scenario phases and harvest. Its outcome tallies must equal the
// campaign report's, and a sample of its injections re-run through
// fault::run_injection must classify identically.
#include <algorithm>

#include "api/json.hpp"
#include "bench.hpp"
#include "corpus/rng.hpp"
#include "harness/fault.hpp"

namespace perfbench {

namespace {

namespace fault = rtk::harness::fault;
namespace fuzz = rtk::harness::fuzz;

/// One campaign per workload (so each workload's host time is its own
/// timed item), six injections each so every fault class appears.
constexpr std::size_t workloads = 256;
constexpr std::size_t injections_per_workload = 6;
constexpr std::uint64_t delta_budget = 2000000;
/// Every 32nd traced injection is re-run through fault::run_injection.
constexpr std::size_t nistt_stride = 32;

/// Digests pinned at the default seed: outcome tallies and heat-map of
/// the campaign, and the statistics digest over every injection run.
constexpr std::uint64_t pinned_seed = 1;
constexpr std::uint64_t pinned_tally = 0x12336f3a62b4855dull;
constexpr std::uint64_t pinned_stats = 0x9becf29345858c67ull;

std::uint64_t tally_digest(const fault::CampaignReport& rep) {
    Digest d;
    d.mix(rep.workloads);
    d.mix(rep.injections);
    d.mix(rep.injected);
    d.mix(rep.diverged);
    for (std::uint64_t n : rep.outcomes) {
        d.mix(n);
    }
    for (const auto& [call, row] : rep.heat) {
        d.mix_string(call);
        for (const auto& [cls, cell] : row) {
            d.mix_string(cls);
            d.mix(cell.masked);
            d.mix(cell.detected);
            d.mix(cell.invariant_violated);
            d.mix(cell.hung);
        }
    }
    return d.value();
}

/// Counts the injector's trigger ordinal space (every observer event but
/// service enter/exit) and stamps host time at each sampled trigger.
class PrefixProbe final : public rtk::sim::SimObserver {
public:
    explicit PrefixProbe(std::vector<std::uint64_t> triggers)
        : triggers_(std::move(triggers)), stamps_(triggers_.size()) {
        std::sort(triggers_.begin(), triggers_.end());
    }

    std::uint64_t events() const { return events_; }
    /// Host time at which event `trigger` fired (a sampled trigger).
    Clock::time_point stamp(std::uint64_t trigger) const {
        const auto it = std::lower_bound(triggers_.begin(), triggers_.end(), trigger);
        return stamps_[static_cast<std::size_t>(it - triggers_.begin())];
    }

    void on_state_change(const rtk::sim::TThread&, rtk::sim::ThreadState,
                         rtk::sim::ThreadState, rtk::sysc::Time) override {
        step();
    }
    void on_dispatch(const rtk::sim::TThread&, rtk::sysc::Time) override { step(); }
    void on_preemption(const rtk::sim::TThread&, rtk::sysc::Time) override { step(); }
    void on_interrupt_enter(const rtk::sim::TThread&, rtk::sysc::Time) override {
        step();
    }
    void on_interrupt_return(const rtk::sim::TThread&, rtk::sysc::Time) override {
        step();
    }
    void on_wakeup(const rtk::sim::TThread&, const rtk::sim::TThread*,
                   rtk::sysc::Time) override {
        step();
    }
    void on_idle(rtk::sysc::Time) override { step(); }

private:
    void step() {
        const std::uint64_t index = events_++;
        while (next_ < triggers_.size() && triggers_[next_] == index) {
            stamps_[next_++] = Clock::now();
        }
    }

    std::vector<std::uint64_t> triggers_;
    std::vector<Clock::time_point> stamps_;
    std::size_t next_ = 0;
    std::uint64_t events_ = 0;
};

/// What the benchmark keeps of one classified injection.
struct Classified {
    fault::Outcome outcome = fault::Outcome::masked;
    bool injected = false;
    bool diverged = false;
    std::uint64_t fingerprint = 0;
    std::string service_call;

    bool same(const fault::InjectionResult& r) const {
        return outcome == r.outcome && injected == r.injected &&
               diverged == r.diverged && fingerprint == r.fingerprint &&
               service_call == r.service_call;
    }
};

class FaultCampaign final : public Workload {
public:
    explicit FaultCampaign(const Options& o) : seed_(o.seed), base_seed_(o.seed * 100000) {}

    bool setup(std::string& error, LayerValues&) override {
        // The campaign's workloads, generated and round-tripped through
        // their JSON form (the way campaign job lists carry them).
        specs_.clear();
        for (std::size_t i = 0; i < workloads; ++i) {
            const fuzz::FuzzSpec spec = fuzz::generate_spec(base_seed_ + i);
            rtk::api::Json j;
            fuzz::FuzzSpec back;
            if (!rtk::api::Json::parse(spec.to_json().dump(-1), j, &error) ||
                !fuzz::FuzzSpec::from_json(j, back, &error)) {
                return false;
            }
            specs_.push_back(std::move(back));
        }
        return true;
    }

    PassResult run_untraced() override {
        fault::CampaignOptions opts;
        opts.corpus = 1;
        opts.injections_per_workload = injections_per_workload;
        opts.threads = 1;
        opts.delta_budget = delta_budget;
        PassResult res;
        fault::CampaignReport all;
        for (std::size_t w = 0; w < workloads; ++w) {
            opts.base_seed = base_seed_ + w;
            const auto t0 = Clock::now();
            const fault::CampaignReport rep = fault::run_fault_campaign(opts);
            res.items.push_back(seconds_since(t0));
            merge(all, rep);
        }
        for (double s : res.items) {
            res.seconds += s;
        }
        res.units = all.injections;
        if (!check_pin(tally_pin_, tally_digest(all),
                       seed_ == pinned_seed ? pinned_tally : 0, "campaign tally")) {
            res.failed = res.units;
        }
        return res;
    }

    PassResult run_traced(Tracer& tracer) override {
        PassResult res;
        fault::CampaignReport rep;
        Digest stats;
        faults_.clear();
        workload_of_.clear();
        baselines_.clear();
        classified_.clear();
        corpus_.clear();
        {
            const auto pass = tracer.span(Phase::pass, 0);
            for (std::size_t w = 0; w < specs_.size(); ++w) {
                fault::BaselineProfile base;
                {
                    const auto s = tracer.span(Phase::fault_baseline, 0);
                    base = fault::profile_baseline(specs_[w], delta_budget);
                }
                if (base.events == 0) {
                    continue;
                }
                corpus_.push_back(&specs_[w]);
                baselines_.push_back(std::move(base));
                ++rep.workloads;
                const std::size_t first = faults_.size();
                sample_sites(corpus_.size() - 1, base_seed_ + w);
                for (std::size_t k = first; k < faults_.size(); ++k) {
                    run_injection_traced(tracer, k, rep, stats, res);
                }
            }
        }
        res.seconds = tracer.total(Phase::pass);
        res.units = rep.injections;
        const bool ok =
            check_pin(tally_pin_, tally_digest(rep), seed_ == pinned_seed ? pinned_tally : 0,
                      "traced tally") &&
            check_pin(stats_pin_, stats.value(), seed_ == pinned_seed ? pinned_stats : 0,
                      "traced statistics");
        res.failed = ok ? 0 : res.units;
        injection_sim_ms_ = res.sim_ms;
        const double n = static_cast<double>(std::max<std::size_t>(rep.injections, 1));
        shares_["fault.masked_share"] = rep.count(fault::Outcome::masked) / n;
        shares_["fault.detected_share"] = rep.count(fault::Outcome::detected) / n;
        shares_["fault.invariant_violated_share"] =
            rep.count(fault::Outcome::invariant_violated) / n;
        shares_["fault.hung_share"] = rep.count(fault::Outcome::hung) / n;
        shares_["fault.diverged_share"] = static_cast<double>(rep.diverged) / n;
        return res;
    }

    void verify(Tracer& tracer, std::uint64_t& attempted, std::uint64_t& failed) override {
        if (classified_.empty()) {
            // Untraced runs: one traced pass outside the timed loop pins
            // the statistics and gives the simulated time of a pass.
            tracer.reset();
            const PassResult p = run_traced(tracer);
            attempted += p.units;
            failed += p.failed;
        }
        // NISTT: a sample of traced injections re-run through the
        // program's own entry point must classify identically.
        for (std::size_t k = 0; k < faults_.size(); k += nistt_stride) {
            const fault::InjectionResult r =
                fault::run_injection(faults_[k], baselines_[workload_of_[k]]);
            ++attempted;
            if (!classified_[k].same(r)) {
                note("fault_campaign: injection %zu (%s) classifies differently when "
                     "run through fault::run_injection",
                     k, faults_[k].name().c_str());
                ++failed;
            }
        }
        probe_prefix(tracer, attempted, failed);
    }

    LayerValues layer_values() const override { return shares_; }

    double pass_sim_ms() const override { return injection_sim_ms_ + baseline_sim_ms_; }

    std::string describe() const override {
        return "fault_campaign: " + std::to_string(workloads) + " workloads x " +
               std::to_string(injections_per_workload) +
               " injections from base seed " + std::to_string(base_seed_);
    }

private:
    /// One injection of the traced pass, phase by phase.
    void run_injection_traced(Tracer& tracer, std::size_t k, fault::CampaignReport& rep,
                              Digest& stats, PassResult& res) {
        const std::uint64_t unit = k + 1;
        const auto u = tracer.span(Phase::unit, unit);
        fault::BuiltInjection built;
        {
            const auto s = tracer.span(Phase::fault_build, unit);
            built = fault::build_injection(faults_[k]);
        }
        // The statistics digest rides the oracle's check predicate, which
        // the run calls on the live Simulation.
        std::uint64_t digest = 0;
        built.scenario.check = [&digest, oracle = built.scenario.check](
                                   rtk::Simulation& sim, const rtk::harness::ScenarioSpec& sc) {
            digest = stats_digest(sim);
            return !oracle || oracle(sim, sc);
        };
        const ReplicaRun run = run_scenario_traced(built.scenario, tracer, unit);
        fault::InjectionResult r;
        {
            const auto s = tracer.span(Phase::fault_harvest, unit);
            r = fault::harvest(built, run.result, baselines_[workload_of_[k]]);
        }
        ++rep.injections;
        rep.injected += r.injected ? 1 : 0;
        rep.diverged += r.diverged ? 1 : 0;
        ++rep.outcomes[static_cast<std::size_t>(r.outcome)];
        rep.heat[r.service_call][fault::to_string(faults_[k].cls)].add(r.outcome);
        classified_.push_back({r.outcome, r.injected, r.diverged, r.fingerprint, r.service_call});
        stats.mix(digest);
        stats.mix(run.result.sim_time.picoseconds());
        stats.mix(run.result.hung ? 1 : 0);
        res.counts += run.counts;
        res.sim_ms += static_cast<double>(run.result.sim_time.picoseconds()) * 1e-9;
    }

    /// Add one campaign's tallies and heat-map to `all`.
    static void merge(fault::CampaignReport& all, const fault::CampaignReport& rep) {
        all.workloads += rep.workloads;
        all.injections += rep.injections;
        all.injected += rep.injected;
        all.diverged += rep.diverged;
        for (std::size_t i = 0; i < fault::outcome_count; ++i) {
            all.outcomes[i] += rep.outcomes[i];
        }
        for (const auto& [call, row] : rep.heat) {
            for (const auto& [cls, cell] : row) {
                fault::CoverageCell& into = all.heat[call][cls];
                into.masked += cell.masked;
                into.detected += cell.detected;
                into.invariant_violated += cell.invariant_violated;
                into.hung += cell.hung;
            }
        }
    }

    /// The campaign's site sampling for profiled workload `w`, draw for
    /// draw (fault.cpp, run_fault_campaign step 2, with the campaign's
    /// base seed `campaign_seed`).
    void sample_sites(std::size_t w, std::uint64_t campaign_seed) {
        rtk::corpus::Rng rng(campaign_seed ^ 0xfa071u);
        const fault::BaselineProfile& base = baselines_[w];
        for (std::size_t j = 0; j < injections_per_workload; ++j) {
            fault::FaultSpec f;
            f.workload = *corpus_[w];
            f.cls = fault::all_fault_classes()[j % fault::fault_class_count];
            f.delta_budget = delta_budget;
            const std::uint64_t space =
                f.cls == fault::FaultClass::arg_corrupt ? base.ops : base.events;
            if (space == 0) {
                continue;
            }
            f.trigger = rng.below(space);
            f.target = static_cast<std::uint32_t>(rng.below(64));
            f.field = static_cast<std::uint32_t>(rng.below(24));
            f.bit = static_cast<std::uint32_t>(rng.below(64));
            switch (f.cls) {
                case fault::FaultClass::arg_corrupt:
                    f.param = static_cast<std::int32_t>(rng.below(0xffff)) + 1;
                    break;
                case fault::FaultClass::irq_drop:
                    f.param = static_cast<std::int32_t>(rng.below(4));
                    break;
                case fault::FaultClass::timer_skew:
                    f.param = static_cast<std::int32_t>(rng.range(-20, 20));
                    if (f.param == 0) {
                        f.param = 7;
                    }
                    break;
                default:
                    break;
            }
            faults_.push_back(std::move(f));
            workload_of_.push_back(w);
        }
    }

    /// Re-run each baseline with a PrefixProbe stamping host time at the
    /// workload's event-ordinal triggers: the share of the simulate phase
    /// an injection replays before its fault fires, in events and in host
    /// time. arg_corrupt triggers count interpreter ops, which no observer
    /// sees, so they are left out of both shares.
    void probe_prefix(Tracer& tracer, std::uint64_t& attempted, std::uint64_t& failed) {
        double event_share = 0.0;
        double host_share = 0.0;
        std::size_t sampled = 0;
        baseline_sim_ms_ = 0.0;
        for (std::size_t w = 0; w < baselines_.size(); ++w) {
            std::vector<std::uint64_t> triggers;
            for (std::size_t k = 0; k < faults_.size(); ++k) {
                if (workload_of_[k] == w && faults_[k].cls != fault::FaultClass::arg_corrupt) {
                    triggers.push_back(faults_[k].trigger);
                }
            }
            fault::FaultSpec base_spec;
            base_spec.workload = *corpus_[w];
            base_spec.delta_budget = delta_budget;
            const fault::BuiltInjection built =
                fault::build_injection(base_spec, /*with_fault=*/false);
            PrefixProbe probe(triggers);
            ReplicaRun run;
            {
                const auto s = tracer.span(Phase::prefix_probe, 0);
                run = run_scenario_traced(built.scenario, tracer, 0, &probe);
            }
            baseline_sim_ms_ += static_cast<double>(run.result.sim_time.picoseconds()) * 1e-9;
            ++attempted;
            if (run.result.fingerprint != baselines_[w].fingerprint ||
                probe.events() != baselines_[w].events) {
                note("fault_campaign: baseline %zu re-run differs from profile_baseline", w);
                ++failed;
                continue;
            }
            const Clock::time_point s0 = tracer.last_simulate_start();
            const double span =
                std::chrono::duration<double>(tracer.last_simulate_end() - s0).count();
            for (std::uint64_t t : triggers) {
                event_share += static_cast<double>(t) / static_cast<double>(probe.events());
                host_share += std::chrono::duration<double>(probe.stamp(t) - s0).count() / span;
                ++sampled;
            }
        }
        if (sampled != 0) {
            shares_["fault.prefix_event_share"] = event_share / static_cast<double>(sampled);
            shares_["fault.prefix_host_share"] = host_share / static_cast<double>(sampled);
        }
    }

    /// Compare `value` with the pin: the constant pinned at the default
    /// seed, else the first value seen in this process.
    bool check_pin(std::uint64_t& slot, std::uint64_t value, std::uint64_t pinned,
                   const char* what) {
        if (slot == 0) {
            slot = pinned != 0 ? pinned : value;
            if (pinned == 0) {
                note("fault_campaign: %s digest 0x%016llx", what,
                     static_cast<unsigned long long>(value));
            }
        }
        if (value == slot) {
            return true;
        }
        note("fault_campaign: %s digest 0x%016llx != pinned 0x%016llx", what,
             static_cast<unsigned long long>(value), static_cast<unsigned long long>(slot));
        return false;
    }

    std::uint64_t seed_;
    std::uint64_t base_seed_;
    std::vector<fuzz::FuzzSpec> specs_;
    std::uint64_t tally_pin_ = 0;
    std::uint64_t stats_pin_ = 0;

    // Filled by the latest traced pass.
    std::vector<const fuzz::FuzzSpec*> corpus_;  ///< workloads with a profile
    std::vector<fault::FaultSpec> faults_;
    std::vector<std::size_t> workload_of_;
    std::vector<fault::BaselineProfile> baselines_;
    std::vector<Classified> classified_;
    double injection_sim_ms_ = 0.0;
    double baseline_sim_ms_ = 0.0;
    LayerValues shares_;
};

}  // namespace

std::unique_ptr<Workload> make_fault_campaign(const Options& o) {
    return std::make_unique<FaultCampaign>(o);
}

}  // namespace perfbench
