#include "harness/campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "corpus/index.hpp"
#include "corpus/rng.hpp"
#include "corpus/scenario_file.hpp"
#include "harness/campaign_store.hpp"
#include "harness/corpus_bridge.hpp"
#include "sysc/fsio.hpp"

namespace rtk::harness::campaign {

namespace fs = std::filesystem;

namespace {

bool fail(std::string* error, const std::string& what) {
    if (error != nullptr) {
        *error = what;
    }
    return false;
}

std::string fmt_hex64(std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/// Deterministic truncation for free-text fields of a record: byte
/// payloads must not depend on how verbose one host's error string got.
std::string cap_text(std::string s, std::size_t max = 400) {
    if (s.size() > max) {
        s.resize(max);
        s += "...";
    }
    return s;
}

}  // namespace

// ---- manifest ---------------------------------------------------------------

const char* to_string(Kind k) {
    return k == Kind::fault ? "fault" : "fuzz";
}

bool kind_from_string(const std::string& s, Kind& out) {
    if (s == "fuzz") {
        out = Kind::fuzz;
        return true;
    }
    if (s == "fault") {
        out = Kind::fault;
        return true;
    }
    return false;
}

std::size_t Manifest::total_jobs() const {
    if (kind == Kind::fault) {
        return corpus * injections_per_workload;
    }
    return seeds * (both_policies ? 2 : 1);
}

Json Manifest::to_json() const {
    Json j = Json::object();
    j.set("rtk_campaign", Json::number(1));
    j.set("name", Json::string(name));
    j.set("kind", Json::string(to_string(kind)));
    j.set("base_seed", Json::number(base_seed));
    j.set("seeds", Json::number(seeds));
    j.set("both_policies", Json::boolean(both_policies));
    j.set("corpus", Json::number(corpus));
    j.set("injections_per_workload", Json::number(injections_per_workload));
    j.set("delta_budget", Json::number(delta_budget));
    j.set("corpus_dir", Json::string(corpus_dir));
    j.set("claim_batch", Json::number(claim_batch));
    j.set("flush_every", Json::number(flush_every));
    return j;
}

bool Manifest::from_json(const Json& j, Manifest& out, std::string* error) {
    if (!j.is_object() || j.at("rtk_campaign").as_u64() != 1) {
        return fail(error, "not a campaign manifest");
    }
    Manifest m;
    m.name = j.at("name").as_string();
    if (!kind_from_string(j.at("kind").as_string(), m.kind)) {
        return fail(error, "unknown campaign kind '" + j.at("kind").as_string() +
                               "'");
    }
    m.base_seed = j.at("base_seed").as_u64(1);
    m.seeds = static_cast<std::size_t>(j.at("seeds").as_u64(m.seeds));
    m.both_policies = j.at("both_policies").as_bool(true);
    m.corpus = static_cast<std::size_t>(j.at("corpus").as_u64(m.corpus));
    m.injections_per_workload = static_cast<std::size_t>(
        j.at("injections_per_workload").as_u64(m.injections_per_workload));
    m.delta_budget = j.at("delta_budget").as_u64(m.delta_budget);
    m.corpus_dir = j.at("corpus_dir").as_string();
    m.claim_batch = static_cast<std::size_t>(
        j.at("claim_batch").as_u64(m.claim_batch));
    m.flush_every = static_cast<std::size_t>(
        j.at("flush_every").as_u64(m.flush_every));
    if (m.claim_batch == 0) {
        m.claim_batch = 1;
    }
    out = std::move(m);
    return true;
}

// ---- jobs -------------------------------------------------------------------

std::vector<Job> make_jobs(const Manifest& m) {
    std::vector<Job> jobs;
    jobs.reserve(m.total_jobs());
    if (m.kind == Kind::fuzz) {
        // Same ordering as run_fuzz_campaign: per seed, the
        // priority-preemptive leg first, then round-robin.
        for (std::size_t i = 0; i < m.seeds; ++i) {
            Job job;
            job.id = jobs.size();
            job.seed = m.base_seed + i;
            job.round_robin = false;
            jobs.push_back(job);
            if (m.both_policies) {
                job.id = jobs.size();
                job.round_robin = true;
                jobs.push_back(job);
            }
        }
    } else {
        for (std::size_t w = 0; w < m.corpus; ++w) {
            for (std::size_t j = 0; j < m.injections_per_workload; ++j) {
                Job job;
                job.id = jobs.size();
                job.workload = w;
                job.injection = j;
                jobs.push_back(job);
            }
        }
    }
    return jobs;
}

// ---- execution --------------------------------------------------------------

namespace {

/// Read and lower one corpus scenario file into a fault workload.
bool corpus_workload_spec(const std::string& dir, const std::string& file,
                          fuzz::FuzzSpec& out, std::string& error) {
    const std::string path = dir + "/" + file;
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        error = "cannot open " + path;
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    corpus::ScenarioFile scenario;
    if (!corpus::ScenarioFile::parse(text.str(), scenario, &error)) {
        error = file + ": " + error;
        return false;
    }
    out = corpus_to_fuzz_spec(scenario);
    return true;
}

}  // namespace

const std::pair<fuzz::FuzzSpec, fault::BaselineProfile>& BaselineCache::get(
    const Manifest& m, std::uint64_t w) {
    auto it = cache_.find(w);
    if (it != cache_.end()) {
        return it->second;
    }
    fuzz::FuzzSpec spec;
    fault::BaselineProfile base;
    std::string error;
    if (m.corpus_dir.empty()) {
        spec = fuzz::generate_spec(m.base_seed + w);
        base = fault::profile_baseline(spec, m.delta_budget);
    } else {
        if (!corpus_loaded_) {
            corpus_loaded_ = true;
            corpus::CorpusIndex index;
            if (!corpus::CorpusIndex::load(m.corpus_dir, index,
                                           &corpus_error_)) {
                corpus_files_.clear();
            } else {
                // The index is the deterministic workload order: sorted
                // by file path, independent of directory iteration.
                index.sort();
                for (const corpus::IndexEntry& e : index.entries) {
                    corpus_files_.emplace_back(e.file, e.family);
                }
                if (corpus_files_.empty()) {
                    corpus_error_ = "corpus index has no entries";
                }
            }
        }
        if (corpus_files_.empty()) {
            base.ok = false;
            base.error = "corpus: " + corpus_error_;
        } else {
            const auto& [file, family] =
                corpus_files_[static_cast<std::size_t>(w) %
                              corpus_files_.size()];
            if (!corpus_workload_spec(m.corpus_dir, file, spec, error)) {
                base.ok = false;
                base.error = "corpus: " + error;
            } else {
                // Stamp a per-workload seed so result records and fault
                // scenario names stay distinct across entries.
                spec.seed = m.base_seed + w;
                base = fault::profile_baseline(spec, m.delta_budget);
            }
        }
    }
    it = cache_.emplace(w, std::make_pair(std::move(spec), std::move(base)))
             .first;
    return it->second;
}

namespace {

Json fuzz_result_record(std::uint64_t id, const fuzz::FuzzSpec& spec,
                        const fuzz::SpecVerdict& v) {
    Json r = Json::object();
    r.set("id", Json::number(id));
    r.set("kind", Json::string("fuzz"));
    r.set("seed", Json::number(spec.seed));
    r.set("rr", Json::boolean(spec.round_robin));
    r.set("ok", Json::boolean(v.ok()));
    r.set("verdict", Json::string(v.kind()));
    r.set("serial_fp", Json::string(fmt_hex64(v.serial_fingerprint)));
    r.set("parallel_fp", Json::string(fmt_hex64(v.parallel_fingerprint)));
    r.set("violations", Json::number(v.violation_count));
    if (!v.ok()) {
        r.set("detail", Json::string(cap_text(v.detail())));
    }
    return r;
}

Json fault_result_record(std::uint64_t id, const fault::FaultSpec& spec,
                         const fault::InjectionResult& r) {
    Json rec = Json::object();
    rec.set("id", Json::number(id));
    rec.set("kind", Json::string("fault"));
    rec.set("class", Json::string(fault::to_string(spec.cls)));
    rec.set("workload_seed", Json::number(spec.workload.seed));
    rec.set("trigger", Json::number(spec.trigger));
    rec.set("outcome", Json::string(fault::to_string(r.outcome)));
    rec.set("injected", Json::boolean(r.injected));
    rec.set("diverged", Json::boolean(r.diverged));
    rec.set("call", Json::string(r.service_call));
    rec.set("fp", Json::string(fmt_hex64(r.fingerprint)));
    rec.set("base_fp", Json::string(fmt_hex64(r.baseline_fingerprint)));
    rec.set("violations", Json::number(r.oracle_violations));
    if (!r.error.empty()) {
        rec.set("error", Json::string(cap_text(r.error)));
    }
    return rec;
}

Json skipped_fault_record(const Job& job, const std::string& reason) {
    Json rec = Json::object();
    rec.set("id", Json::number(job.id));
    rec.set("kind", Json::string("fault"));
    rec.set("skipped", Json::boolean(true));
    rec.set("reason", Json::string(cap_text(reason)));
    return rec;
}

/// The engine's per-job fault sampler: fixed-order draws from a stream
/// seeded only by (manifest, workload, injection) -- unlike the legacy
/// run_fault_campaign sampler, no shared RNG threads through the whole
/// corpus, so any shard can compute any job independently.
fault::FaultSpec make_fault_spec(const Manifest& m, const Job& job,
                                 const fuzz::FuzzSpec& workload, std::uint64_t space) {
    fault::FaultSpec f;
    f.workload = workload;
    f.cls = fault::all_fault_classes()[job.injection % fault::fault_class_count];
    f.delta_budget = m.delta_budget;
    corpus::Rng rng(m.base_seed ^ (job.workload * 0x9e3779b97f4a7c15ULL) ^
                    (job.injection * 0xbf58476d1ce4e5b9ULL) ^ 0xfa157ULL);
    const std::uint64_t salt = rng.next_u64();
    f.target = static_cast<std::uint32_t>(rng.below(64));
    f.field = static_cast<std::uint32_t>(rng.below(24));
    f.bit = static_cast<std::uint32_t>(rng.below(64));
    const std::uint64_t praw = rng.next_u64();
    f.trigger = space == 0 ? 0 : salt % space;
    switch (f.cls) {
        case fault::FaultClass::arg_corrupt:
            f.param = static_cast<std::int32_t>(praw % 0xffff) + 1;
            break;
        case fault::FaultClass::irq_drop:
            f.param = static_cast<std::int32_t>(praw % 4);
            break;
        case fault::FaultClass::timer_skew:
            f.param = static_cast<std::int32_t>(praw % 41) - 20;
            if (f.param == 0) {
                f.param = 7;
            }
            break;
        default:
            break;
    }
    return f;
}

}  // namespace

Json run_job(const Manifest& m, const Job& job, BaselineCache& cache) {
    if (m.kind == Kind::fuzz) {
        fuzz::FuzzSpec spec = fuzz::generate_spec(job.seed);
        spec.round_robin = job.round_robin;
        const fuzz::SpecVerdict v = fuzz::run_spec_differential(spec);
        return fuzz_result_record(job.id, spec, v);
    }
    const auto& [workload, base] = cache.get(m, job.workload);
    if (!base.ok) {
        return skipped_fault_record(job, "baseline failed: " + base.error);
    }
    const fault::FaultClass cls =
        fault::all_fault_classes()[job.injection % fault::fault_class_count];
    const std::uint64_t space =
        cls == fault::FaultClass::arg_corrupt ? base.ops : base.events;
    if (space == 0) {
        return skipped_fault_record(job, "no injection sites");
    }
    const fault::FaultSpec f = make_fault_spec(m, job, workload, space);
    const fault::InjectionResult r = fault::run_injection(f, base);
    return fault_result_record(job.id, f, r);
}

// ---- directory layout -------------------------------------------------------

std::string manifest_path(const std::string& dir) {
    return dir + "/manifest.json";
}

std::string jobs_path(const std::string& dir) { return dir + "/jobs.jsonl"; }

std::string shards_dir(const std::string& dir) { return dir + "/shards"; }

std::string report_path(const std::string& dir) { return dir + "/report.json"; }

std::string runlist_path(const std::string& dir, unsigned round) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "/round_%03u.list", round);
    return dir + buf;
}

std::string cursor_path(const std::string& runlist) {
    return runlist + ".cursor";
}

bool init_campaign(const std::string& dir, const Manifest& m,
                   std::string* error) {
    std::error_code ec;
    fs::create_directories(shards_dir(dir), ec);
    if (ec) {
        return fail(error, "cannot create " + shards_dir(dir) + ": " +
                               ec.message());
    }
    if (fs::exists(manifest_path(dir))) {
        return fail(error, dir + " already holds a campaign");
    }
    std::string lines;
    for (const Job& job : make_jobs(m)) {
        Json j = Json::object();
        j.set("id", Json::number(job.id));
        if (m.kind == Kind::fuzz) {
            j.set("seed", Json::number(job.seed));
            j.set("rr", Json::boolean(job.round_robin));
        } else {
            j.set("w", Json::number(job.workload));
            j.set("j", Json::number(job.injection));
        }
        lines += j.dump(-1);
        lines += '\n';
    }
    // Durable: a crash right after submit must still find both files.
    if (!sysc::write_file_atomic(jobs_path(dir), lines, error,
                                 /*durable=*/true)) {
        return false;
    }
    return sysc::write_file_atomic(manifest_path(dir), m.to_json().dump(2) + "\n",
                                   error, /*durable=*/true);
}

bool load_manifest(const std::string& dir, Manifest& out, std::string* error) {
    std::ifstream in(manifest_path(dir), std::ios::binary);
    if (!in) {
        return fail(error, "cannot read " + manifest_path(dir));
    }
    const std::string text{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
    Json j;
    if (!Json::parse(text, j, error)) {
        return false;
    }
    return Manifest::from_json(j, out, error);
}

bool load_jobs(const std::string& dir, std::vector<Job>& out,
               std::string* error) {
    Manifest m;
    if (!load_manifest(dir, m, error)) {
        return false;
    }
    std::vector<Job> jobs;
    for (const Json& j : read_jsonl(jobs_path(dir))) {
        Job job;
        job.id = j.at("id").as_u64();
        job.seed = j.at("seed").as_u64();
        job.round_robin = j.at("rr").as_bool();
        job.workload = j.at("w").as_u64();
        job.injection = j.at("j").as_u64();
        jobs.push_back(job);
    }
    if (jobs.size() != m.total_jobs()) {
        return fail(error, "jobs.jsonl holds " + std::to_string(jobs.size()) +
                               " jobs, manifest expects " +
                               std::to_string(m.total_jobs()));
    }
    out = std::move(jobs);
    return true;
}

// ---- scanning and merging ---------------------------------------------------

bool scan_stores(const std::string& dir, StoreScan& out, std::string* error) {
    StoreScan scan;
    const std::string sdir = shards_dir(dir);
    std::vector<std::string> files;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(sdir, ec)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".jsonl") {
            files.push_back(entry.path().string());
        }
    }
    if (ec) {
        return fail(error, "cannot scan " + sdir + ": " + ec.message());
    }
    std::sort(files.begin(), files.end());
    for (const std::string& file : files) {
        ++scan.store_files;
        std::size_t skipped = 0;
        for (Json& rec : read_jsonl(file, &skipped)) {
            const std::uint64_t id = rec.at("id").as_u64();
            if (!scan.records.emplace(id, std::move(rec)).second) {
                ++scan.duplicates;
            }
        }
        scan.skipped_lines += skipped;
    }
    out = std::move(scan);
    return true;
}

Json merged_report(const Manifest& m, const std::vector<Job>& jobs,
                   const StoreScan& scan) {
    constexpr std::size_t max_failures = 200;

    Json campaign = Json::object();
    campaign.set("name", Json::string(m.name));
    campaign.set("kind", Json::string(to_string(m.kind)));
    campaign.set("base_seed", Json::number(m.base_seed));
    campaign.set("jobs", Json::number(jobs.size()));
    campaign.set("completed", Json::number(scan.records.size()));
    campaign.set("complete",
                 Json::boolean(scan.records.size() >= jobs.size()));

    Json totals = Json::object();
    Json coverage = Json::object();
    Json failures = Json::array();
    std::size_t failure_count = 0;

    if (m.kind == Kind::fuzz) {
        std::uint64_t ok = 0, violations = 0;
        std::map<std::string, std::uint64_t> verdicts;
        for (const auto& [id, rec] : scan.records) {
            ok += rec.at("ok").as_bool() ? 1 : 0;
            violations += rec.at("violations").as_u64();
            ++verdicts[rec.at("verdict").as_string()];
            if (!rec.at("ok").as_bool()) {
                ++failure_count;
                if (failures.items().size() < max_failures) {
                    failures.push(rec);
                }
            }
        }
        totals.set("ok", Json::number(ok));
        totals.set("violations", Json::number(violations));
        Json v = Json::object();
        for (const auto& [name, count] : verdicts) {
            v.set(name, Json::number(count));
        }
        totals.set("verdicts", std::move(v));
    } else {
        std::uint64_t injected = 0, diverged = 0, skipped = 0, violations = 0;
        std::map<std::string, std::uint64_t> outcomes;
        std::map<std::string, std::map<std::string, std::uint64_t>> heat;
        for (const auto& [id, rec] : scan.records) {
            if (rec.at("skipped").as_bool()) {
                ++skipped;
                continue;
            }
            injected += rec.at("injected").as_bool() ? 1 : 0;
            diverged += rec.at("diverged").as_bool() ? 1 : 0;
            violations += rec.at("violations").as_u64();
            const std::string outcome = rec.at("outcome").as_string();
            ++outcomes[outcome];
            ++heat[rec.at("call").as_string()][rec.at("class").as_string()];
            if (outcome != "masked") {
                ++failure_count;
                if (failures.items().size() < max_failures) {
                    failures.push(rec);
                }
            }
        }
        totals.set("injected", Json::number(injected));
        totals.set("diverged", Json::number(diverged));
        totals.set("skipped", Json::number(skipped));
        totals.set("violations", Json::number(violations));
        Json o = Json::object();
        for (const auto& [name, count] : outcomes) {
            o.set(name, Json::number(count));
        }
        totals.set("outcomes", std::move(o));
        for (const auto& [call, row] : heat) {
            Json jrow = Json::object();
            for (const auto& [cls, count] : row) {
                jrow.set(cls, Json::number(count));
            }
            coverage.set(call, std::move(jrow));
        }
    }

    Json doc = Json::object();
    doc.set("rtk_campaign_report", Json::number(1));
    doc.set("campaign", std::move(campaign));
    doc.set("totals", std::move(totals));
    if (m.kind == Kind::fault) {
        doc.set("coverage", std::move(coverage));
    }
    doc.set("failure_count", Json::number(failure_count));
    doc.set("failures", std::move(failures));
    return doc;
}

bool merge_campaign(const std::string& dir, const std::string& out_path,
                    std::string* error, bool* complete) {
    Manifest m;
    if (!load_manifest(dir, m, error)) {
        return false;
    }
    std::vector<Job> jobs;
    if (!load_jobs(dir, jobs, error)) {
        return false;
    }
    StoreScan scan;
    if (!scan_stores(dir, scan, error)) {
        return false;
    }
    if (complete != nullptr) {
        *complete = scan.records.size() >= jobs.size();
    }
    const Json doc = merged_report(m, jobs, scan);
    const std::string path = out_path.empty() ? report_path(dir) : out_path;
    return sysc::write_file_atomic(path, doc.dump(2) + "\n", error);
}

}  // namespace rtk::harness::campaign
