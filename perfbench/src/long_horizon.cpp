// long_horizon: the four corpus family generators at a large size, each
// run for tens of simulated seconds, untraced -- the paper's simulated
// time per host second (Table 2) on the steady-state core.
//
// Every run goes through harness::run_scenario. Its check predicate (run
// on the live Simulation after the run) takes the benchmark's statistics
// digest, which is pinned at the default seed; the traced pass must
// reproduce the untraced digests and fingerprints exactly.
#include "bench.hpp"
#include "corpus/families.hpp"
#include "corpus/scenario_file.hpp"
#include "harness/corpus_bridge.hpp"

namespace perfbench {

namespace {

using rtk::corpus::ScenarioFile;

constexpr int family_size = 8;
/// Eight seeds per family keep the pass's mix of systems, and so its
/// speed, nearly the same from one --seed to the next.
constexpr std::uint64_t runs_per_family = 8;
constexpr std::uint32_t duration_ms = 10000;
/// Hang guard far above what a 10 s run needs (the corpus default of
/// 20M delta cycles is sized for 30-60 ms scenarios).
constexpr std::uint64_t delta_budget = 4000000000ull;

/// Statistics digest over all runs of a pass, pinned at the default seed.
constexpr std::uint64_t pinned_seed = 1;
constexpr std::uint64_t pinned_digest = 0x743841bcbe11bbdaull;

struct Outcome {
    std::uint64_t digest = 0;
    std::uint64_t fingerprint = 0;
    bool passed = false;
    bool operator==(const Outcome&) const = default;
};

class LongHorizon final : public Workload {
public:
    explicit LongHorizon(const Options& o) : seed_(o.seed) {}

    bool setup(std::string& error, LayerValues& layers) override {
        files_.clear();
        const auto t0 = Clock::now();
        for (const std::string& family : rtk::corpus::family_names()) {
            for (std::uint64_t k = 0; k < runs_per_family; ++k) {
                ScenarioFile f;
                if (!rtk::corpus::generate_family(
                        family, {family_size, seed_ * runs_per_family + k}, f)) {
                    error = "generate " + family + " failed";
                    return false;
                }
                f.duration_ms = duration_ms;
                f.config.delta_budget = delta_budget;
                files_.push_back(std::move(f));
            }
        }
        layers["corpus.generate_s"] = seconds_since(t0);
        return true;
    }

    PassResult run_untraced() override {
        PassResult res;
        std::vector<Outcome> got(files_.size());
        for (std::size_t i = 0; i < files_.size(); ++i) {
            const auto t0 = Clock::now();
            const rtk::harness::ScenarioResult r =
                rtk::harness::run_scenario(make_spec(i, got[i].digest));
            res.items.push_back(seconds_since(t0));
            res.seconds += res.items.back();
            got[i].fingerprint = r.fingerprint;
            got[i].passed = r.passed;
            res.sim_ms += static_cast<double>(r.sim_time.picoseconds()) * 1e-9;
        }
        res.units = files_.size();
        res.failed = compare(got, "untraced");
        return res;
    }

    PassResult run_traced(Tracer& tracer) override {
        PassResult res;
        std::vector<Outcome> got(files_.size());
        {
            const auto pass = tracer.span(Phase::pass, 0);
            for (std::size_t i = 0; i < files_.size(); ++i) {
                const std::uint64_t unit = i + 1;
                const auto u = tracer.span(Phase::unit, unit);
                rtk::harness::ScenarioSpec sc;
                {
                    const auto s = tracer.span(Phase::spec, unit);
                    sc = make_spec(i, got[i].digest);
                }
                const ReplicaRun run = run_scenario_traced(sc, tracer, unit);
                got[i].fingerprint = run.result.fingerprint;
                got[i].passed = run.result.passed;
                res.counts += run.counts;
                res.sim_ms += static_cast<double>(run.result.sim_time.picoseconds()) * 1e-9;
            }
        }
        res.seconds = tracer.total(Phase::pass);
        res.units = files_.size();
        res.failed = compare(got, "traced");
        return res;
    }

    std::string describe() const override {
        return "long_horizon: " + std::to_string(files_.size()) + " runs at size " +
               std::to_string(family_size) + ", " + std::to_string(duration_ms / 1000) +
               " s simulated each, seed " + std::to_string(seed_);
    }

private:
    /// The untraced corpus spec; its check predicate stores the statistics
    /// digest of the finished run in `digest`.
    rtk::harness::ScenarioSpec make_spec(std::size_t i, std::uint64_t& digest) const {
        rtk::harness::ScenarioSpec sc = rtk::harness::scenario_from_corpus(files_[i]);
        sc.check = [&digest](rtk::Simulation& sim, const rtk::harness::ScenarioSpec&) {
            digest = stats_digest(sim);
            return true;
        };
        return sc;
    }

    /// Failed runs of one pass: a run that errored, or whose digest or
    /// fingerprint moved from the first pass. The combined digest of the
    /// first pass must match the pin at the default seed.
    std::uint64_t compare(const std::vector<Outcome>& got, const char* what) {
        std::uint64_t bad = 0;
        if (pins_.empty()) {
            pins_ = got;
            Digest all;
            for (const Outcome& o : got) {
                all.mix(o.digest);
            }
            if (seed_ == pinned_seed && pinned_digest != 0 && all.value() != pinned_digest) {
                note("long_horizon: statistics digest 0x%016llx != pinned 0x%016llx",
                     static_cast<unsigned long long>(all.value()),
                     static_cast<unsigned long long>(pinned_digest));
                return got.size();
            }
            note("long_horizon: statistics digest 0x%016llx",
                 static_cast<unsigned long long>(all.value()));
        }
        for (std::size_t i = 0; i < got.size(); ++i) {
            if (!got[i].passed || !(got[i] == pins_[i])) {
                note("long_horizon %s pass: %s differs from the first pass (or failed)",
                     what, files_[i].name.c_str());
                ++bad;
            }
        }
        return bad;
    }

    std::uint64_t seed_;
    std::vector<ScenarioFile> files_;
    std::vector<Outcome> pins_;
};

}  // namespace

std::unique_ptr<Workload> make_long_horizon(const Options& o) {
    return std::make_unique<LongHorizon>(o);
}

}  // namespace perfbench
