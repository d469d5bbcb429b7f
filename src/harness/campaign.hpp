// rtk::harness::campaign -- the sharded, resumable campaign model.
//
// A campaign is a *directory*. Everything a worker or a resume needs
// lives in it, written crash-safely:
//
//   <dir>/manifest.json     what to run (atomic+durable write, immutable)
//   <dir>/jobs.jsonl        the full job list, one record per job
//   <dir>/round_NNN.list    runlist of one execution round: the job ids
//                           still missing a result (atomic+durable)
//   <dir>/round_NNN.list.cursor
//                           the round's shared ClaimQueue cursor
//   <dir>/shards/round_NNN_sK.jsonl
//                           shard K's append-only result store for that
//                           round -- a fresh file per (round, shard), so
//                           a resume never appends to a possibly-torn
//                           file
//   <dir>/report.json       the merged report (atomic write)
//
// Determinism is the load-bearing property: every job record is a pure
// function of (manifest, job id) -- fixed-order RNG draws, no wall-clock
// fields, no host state -- so the merged report is byte-identical no
// matter how many shards, rounds, crashes or resumes produced the
// records. The crash-recovery test asserts exactly that.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/fault.hpp"
#include "harness/fuzz.hpp"

namespace rtk::harness::campaign {

using Json = api::Json;

// ---- manifest ---------------------------------------------------------------

enum class Kind : std::uint8_t {
    fuzz,   ///< differential fuzz jobs (run_spec_differential per seed)
    fault,  ///< fault-injection jobs (one injection per job)
};

const char* to_string(Kind k);
bool kind_from_string(const std::string& s, Kind& out);

/// The immutable description of a campaign, written once at submit time.
struct Manifest {
    std::string name = "campaign";
    Kind kind = Kind::fuzz;
    std::uint64_t base_seed = 1;

    // fuzz corpus: seeds x (both_policies ? 2 : 1) jobs.
    std::size_t seeds = 100;
    bool both_policies = true;

    // fault corpus: corpus x injections_per_workload jobs.
    std::size_t corpus = 8;
    std::size_t injections_per_workload = 32;
    std::uint64_t delta_budget = 2000000;
    /// When non-empty, fault workloads are drawn from this checked-in
    /// scenario corpus (rtk::corpus directory with a pinned index.json)
    /// instead of being generated: workload w is the corpus entry at
    /// index-sorted position w % entry-count, lowered through
    /// corpus_to_fuzz_spec. Empty: generate_spec(base_seed + w).
    std::string corpus_dir;

    // Engine knobs (affect scheduling only, never results).
    std::size_t claim_batch = 8;  ///< job leases per ClaimQueue claim
    std::size_t flush_every = 8;  ///< records per store fsync batch

    /// Total job count of the corpus.
    std::size_t total_jobs() const;

    Json to_json() const;
    static bool from_json(const Json& j, Manifest& out,
                          std::string* error = nullptr);
};

// ---- jobs -------------------------------------------------------------------

/// One unit of work. Ids are dense [0, total_jobs()) and double as the
/// dedup key of the result store.
struct Job {
    std::uint64_t id = 0;
    // fuzz
    std::uint64_t seed = 0;     ///< absolute generator seed
    bool round_robin = false;   ///< scheduler policy of this job
    // fault
    std::uint64_t workload = 0;   ///< corpus index (spec seed = base+w)
    std::uint64_t injection = 0;  ///< injection ordinal within workload
};

/// The full job list of a manifest, in id order.
std::vector<Job> make_jobs(const Manifest& m);

// ---- execution --------------------------------------------------------------

/// Per-shard cache of fault-free baseline profiles: one baseline run per
/// corpus workload, shared by all of that workload's injection jobs.
class BaselineCache {
public:
    /// Workload spec + its baseline profile for corpus index `w`.
    const std::pair<fuzz::FuzzSpec, fault::BaselineProfile>& get(
        const Manifest& m, std::uint64_t w);

private:
    std::map<std::uint64_t, std::pair<fuzz::FuzzSpec, fault::BaselineProfile>>
        cache_;
    /// Manifest::corpus_dir workloads: the pinned index, loaded once. A
    /// load failure is sticky (every workload yields a failed baseline,
    /// so every job records a deterministic skip).
    bool corpus_loaded_ = false;
    std::string corpus_error_;
    std::vector<std::pair<std::string, std::string>> corpus_files_;  ///< {file, family}
};

/// Run one job to its deterministic result record: a pure function of
/// (manifest, job) with no timing or host fields. Fault jobs whose
/// baseline failed or whose fault class has no trigger space yield a
/// deterministic {"skipped": true} record -- still a completed job.
Json run_job(const Manifest& m, const Job& job, BaselineCache& cache);

// ---- directory layout -------------------------------------------------------

std::string manifest_path(const std::string& dir);
std::string jobs_path(const std::string& dir);
std::string shards_dir(const std::string& dir);
std::string report_path(const std::string& dir);
std::string runlist_path(const std::string& dir, unsigned round);
std::string cursor_path(const std::string& runlist);

/// Create `dir` (and `dir`/shards), write manifest.json and jobs.jsonl
/// atomically + durably. Fails if the directory already holds a manifest.
bool init_campaign(const std::string& dir, const Manifest& m,
                   std::string* error = nullptr);

bool load_manifest(const std::string& dir, Manifest& out,
                   std::string* error = nullptr);
bool load_jobs(const std::string& dir, std::vector<Job>& out,
               std::string* error = nullptr);

// ---- scanning and merging ---------------------------------------------------

/// Every result record found across all shard stores, deduped by job id
/// (duplicates are byte-identical by determinism; the first wins).
struct StoreScan {
    std::map<std::uint64_t, Json> records;
    std::size_t store_files = 0;
    std::size_t skipped_lines = 0;  ///< torn/garbled lines tolerated
    std::size_t duplicates = 0;     ///< re-run jobs (crash + resume)
};

bool scan_stores(const std::string& dir, StoreScan& out,
                 std::string* error = nullptr);

/// The merged report document: a pure function of the manifest, the job
/// list and the deduped records. Byte-identical for any execution
/// history that produced a record for every job.
Json merged_report(const Manifest& m, const std::vector<Job>& jobs,
                   const StoreScan& scan);

/// Scan + merge + atomically write `out_path` (report_path(dir) when
/// empty). `*complete` (when given) reports whether every job had a
/// record.
bool merge_campaign(const std::string& dir, const std::string& out_path,
                    std::string* error = nullptr, bool* complete = nullptr);

}  // namespace rtk::harness::campaign
