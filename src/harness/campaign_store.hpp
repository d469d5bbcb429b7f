// Crash-safe persistence primitives of the sharded campaign engine:
//
//   JsonlAppender -- an append-only JSONL result store. Records are
//       buffered and fsync'd in batches, so a SIGKILL loses at most the
//       current unflushed batch, never corrupts what was already
//       flushed. Paired with per-shard store files (a fresh file per
//       round, never appended across crashes) a torn final line is the
//       only possible damage -- and read_jsonl() skips torn lines.
//
//   read_jsonl -- the tolerant reader: every parseable record of a
//       store file, torn/garbled lines counted and skipped.
//
//   ClaimQueue -- a flock(2)-guarded shared cursor over a fixed work
//       list. Shard processes lease disjoint [begin, end) batches, so a
//       fast shard drains whatever a slow (or killed) one never
//       claimed: work stealing without a broker process.
//
// All of this is plain POSIX (open/write/fsync/flock); no daemon, no
// database, no third-party dependency.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/json.hpp"

namespace rtk::harness::campaign {

// ---- JsonlAppender ----------------------------------------------------------

/// Append-only JSONL writer with batched durability. Lines are staged in
/// memory and written + fsync'd every `flush_every` records (and on
/// sync()/close()), amortizing the fsync cost across a batch while
/// bounding how much a crash can lose.
class JsonlAppender {
public:
    JsonlAppender() = default;
    ~JsonlAppender();

    JsonlAppender(const JsonlAppender&) = delete;
    JsonlAppender& operator=(const JsonlAppender&) = delete;

    /// Open `path` for appending (created when absent). When an existing
    /// file does not end in a newline -- the torn tail of a killed
    /// writer -- a repair newline is appended first so the torn line
    /// stays isolated instead of fusing with the next record.
    bool open(const std::string& path, std::size_t flush_every = 8,
              std::string* error = nullptr);
    bool is_open() const { return fd_ >= 0; }

    /// Stage one record (`line` must not contain '\n'; one is added).
    /// Flushes + fsyncs when the batch is full. False on I/O failure.
    bool append(std::string_view line);

    /// Write all staged records and fsync.
    bool sync();

    /// sync() + close the descriptor. Safe to call twice.
    bool close();

    /// Records appended (staged or written) since open().
    std::uint64_t appended() const { return appended_; }

private:
    bool write_all(const char* data, std::size_t size);

    int fd_ = -1;
    std::string staged_;
    std::size_t staged_records_ = 0;
    std::size_t flush_every_ = 8;
    std::uint64_t appended_ = 0;
};

// ---- tolerant reader --------------------------------------------------------

/// Every parseable JSON record of the JSONL file at `path`, in file
/// order. Unparseable lines -- the torn tail of a killed writer, or
/// garbage -- are skipped and counted in `*skipped` (when given). A
/// missing file reads as empty: resuming a campaign that never started a
/// shard is not an error.
std::vector<api::Json> read_jsonl(const std::string& path,
                                  std::size_t* skipped = nullptr);

// ---- ClaimQueue -------------------------------------------------------------

/// Shared cursor over a fixed work list of `total` entries, advanced
/// under flock(2) by any number of cooperating processes. Each claim()
/// leases the next `batch` unclaimed indices; a killed process forfeits
/// only work it claimed but never recorded, which a later round re-runs.
/// The cursor file holds one decimal number; unreadable content heals to
/// zero (worst case: jobs re-run, and the store dedupes by job id).
class ClaimQueue {
public:
    ClaimQueue() = default;
    ~ClaimQueue();

    ClaimQueue(const ClaimQueue&) = delete;
    ClaimQueue& operator=(const ClaimQueue&) = delete;

    bool open(const std::string& cursor_path, std::string* error = nullptr);
    bool is_open() const { return fd_ >= 0; }

    /// Atomically lease [begin, end): at most `batch` entries starting at
    /// the shared cursor. False when the list is exhausted or on error.
    bool claim(std::uint64_t total, std::uint64_t batch, std::uint64_t& begin,
               std::uint64_t& end);

    void close();

private:
    int fd_ = -1;
};

}  // namespace rtk::harness::campaign
