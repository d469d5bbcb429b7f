// corpus_replay: every scenario of the seed's corpus, replayed the way
// `rtk-corpus replay` does it -- scenario_from_corpus with tracing on,
// ScenarioRunner at one thread, evaluate_checks -- and compared against
// its pins.
//
// Seed 1 is exactly corpus/v1: files are read from disk, byte digests and
// then fingerprints and verdicts are checked against index.json. Any other
// seed S regenerates the corpus `rtk-corpus gen --per-family 256 --seed S`
// would write (sizes 2-8, per-file seeds S..S+255) and parses the dumped
// bytes; its first untraced pass becomes the pin every later pass (and
// every traced pass) must reproduce.
#include <algorithm>
#include <fstream>
#include <iterator>

#include "bench.hpp"
#include "corpus/checks.hpp"
#include "corpus/families.hpp"
#include "corpus/index.hpp"
#include "corpus/scenario_file.hpp"
#include "harness/corpus_bridge.hpp"
#include "harness/runner.hpp"

namespace perfbench {

namespace {

using rtk::corpus::ScenarioFile;

constexpr std::size_t per_family = 256;
/// Scenarios per ScenarioRunner batch, the benchmark's timed item.
constexpr std::size_t chunk = 32;
constexpr int size_min = 2;
constexpr int size_max = 8;

struct Outcome {
    std::uint64_t fingerprint = 0;
    bool passed = false;
    bool operator==(const Outcome&) const = default;
};

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string{std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>()};
}

class CorpusReplay final : public Workload {
public:
    explicit CorpusReplay(const Options& o)
        : seed_(o.seed), dir_(o.root + "/corpus/v1") {}

    bool setup(std::string& error, LayerValues& layers) override {
        files_.clear();
        std::vector<std::string> texts;
        if (seed_ == 1) {
            const auto t0 = Clock::now();
            if (!load_index(texts, error)) {
                return false;
            }
            layers["corpus.load_s"] = seconds_since(t0);
        } else {
            const auto t0 = Clock::now();
            if (!generate(texts, error)) {
                return false;
            }
            layers["corpus.generate_s"] = seconds_since(t0);
        }
        const auto t0 = Clock::now();
        files_.resize(texts.size());
        for (std::size_t i = 0; i < texts.size(); ++i) {
            if (!ScenarioFile::parse(texts[i], files_[i], &error)) {
                error = "scenario " + std::to_string(i) + ": " + error;
                return false;
            }
        }
        layers["corpus.parse_s"] = seconds_since(t0);
        return true;
    }

    PassResult run_untraced() override {
        PassResult res;
        std::vector<Outcome> got(files_.size());
        for (std::size_t begin = 0; begin < files_.size(); begin += chunk) {
            const std::size_t end = std::min(files_.size(), begin + chunk);
            const auto t0 = Clock::now();
            std::vector<rtk::harness::ScenarioSpec> specs;
            specs.reserve(end - begin);
            for (std::size_t i = begin; i < end; ++i) {
                rtk::harness::ScenarioSpec sc = rtk::harness::scenario_from_corpus(files_[i]);
                sc.trace.enabled = true;  // checks read trace::Metrics
                specs.push_back(std::move(sc));
            }
            const rtk::harness::BatchReport batch =
                rtk::harness::ScenarioRunner({1}).run(specs);
            for (std::size_t i = begin; i < end; ++i) {
                const rtk::harness::ScenarioResult& r = batch.results[i - begin];
                const auto checks = rtk::corpus::evaluate_checks(files_[i], r.metrics);
                got[i] = {r.fingerprint, r.passed && rtk::corpus::all_passed(checks)};
            }
            res.items.push_back(seconds_since(t0));
            res.seconds += res.items.back();
            for (const rtk::harness::ScenarioResult& r : batch.results) {
                res.sim_ms += static_cast<double>(r.sim_time.picoseconds()) * 1e-9;
            }
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
                    sc = rtk::harness::scenario_from_corpus(files_[i]);
                    sc.trace.enabled = true;
                }
                const ReplicaRun run = run_scenario_traced(sc, tracer, unit);
                std::vector<rtk::corpus::CheckResult> checks;
                {
                    const auto s = tracer.span(Phase::checks, unit);
                    checks = rtk::corpus::evaluate_checks(files_[i], run.result.metrics);
                }
                got[i] = {run.result.fingerprint,
                          run.result.passed && rtk::corpus::all_passed(checks)};
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
        return "corpus_replay: " + std::to_string(files_.size()) + " scenarios (" +
               (seed_ == 1 ? std::string("corpus/v1, pinned by index.json")
                           : "regenerated from seed " + std::to_string(seed_)) +
               ")";
    }

private:
    bool load_index(std::vector<std::string>& texts, std::string& error) {
        rtk::corpus::CorpusIndex index;
        if (!rtk::corpus::CorpusIndex::load(dir_, index, &error)) {
            return false;
        }
        index.sort();
        if (index.entries.empty()) {
            error = dir_ + ": index has no entries";
            return false;
        }
        pins_.clear();
        for (const rtk::corpus::IndexEntry& e : index.entries) {
            std::string text = slurp(dir_ + "/" + e.file);
            if (text.empty()) {
                error = e.file + ": missing or empty";
                return false;
            }
            if (rtk::corpus::fnv1a64(text) != e.digest) {
                error = e.file + ": byte digest mismatch against index";
                return false;
            }
            texts.push_back(std::move(text));
            pins_.push_back({e.fingerprint, e.passed});
        }
        pinned_ = true;
        return true;
    }

    bool generate(std::vector<std::string>& texts, std::string& error) const {
        for (const std::string& family : rtk::corpus::family_names()) {
            for (std::size_t i = 0; i < per_family; ++i) {
                rtk::corpus::FamilyParams p;
                p.size = size_min + static_cast<int>(i % (size_max - size_min + 1));
                p.seed = seed_ + i;
                ScenarioFile f;
                if (!rtk::corpus::generate_family(family, p, f)) {
                    error = "generate " + family + " failed";
                    return false;
                }
                texts.push_back(f.dump());
            }
        }
        return true;
    }

    /// Mismatches of one pass against the pins; the first pass of an
    /// unpinned (regenerated) corpus becomes the pin.
    std::uint64_t compare(const std::vector<Outcome>& got, const char* what) {
        if (!pinned_) {
            pins_ = got;
            pinned_ = true;
            return 0;
        }
        std::uint64_t bad = 0;
        for (std::size_t i = 0; i < got.size(); ++i) {
            if (got[i] == pins_[i]) {
                continue;
            }
            if (bad == 0) {
                note("corpus_replay %s pass: %s: fingerprint 0x%016llx verdict %d, "
                     "pinned 0x%016llx verdict %d",
                     what, files_[i].name.c_str(),
                     static_cast<unsigned long long>(got[i].fingerprint),
                     got[i].passed ? 1 : 0,
                     static_cast<unsigned long long>(pins_[i].fingerprint),
                     pins_[i].passed ? 1 : 0);
            }
            ++bad;
        }
        return bad;
    }

    std::uint64_t seed_;
    std::string dir_;
    std::vector<ScenarioFile> files_;
    std::vector<Outcome> pins_;
    bool pinned_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_corpus_replay(const Options& o) {
    return std::make_unique<CorpusReplay>(o);
}

}  // namespace perfbench
