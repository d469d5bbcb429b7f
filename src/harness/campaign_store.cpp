#include "harness/campaign_store.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

namespace rtk::harness::campaign {

namespace {

bool fail(std::string* error, const std::string& what) {
    if (error != nullptr) {
        *error = what;
    }
    return false;
}

std::string errno_detail(const std::string& what) {
    return what + ": " + std::strerror(errno);
}

}  // namespace

// ---- JsonlAppender ----------------------------------------------------------

JsonlAppender::~JsonlAppender() { close(); }

bool JsonlAppender::open(const std::string& path, std::size_t flush_every,
                         std::string* error) {
    close();
    // O_RDWR (not O_WRONLY): the tail-repair probe below pread()s the
    // last byte. O_APPEND still routes every write to the end.
    const int fd =
        ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (fd < 0) {
        return fail(error, errno_detail("cannot open " + path));
    }
    // Tail repair: if the last byte of an existing file is not '\n', a
    // previous writer died mid-line. A lone newline isolates that torn
    // line (read_jsonl skips it) instead of fusing it with our first
    // record. Shard stores are fresh files so this only triggers for
    // long-lived stores like a fuzz/fault campaign's results.jsonl.
    const off_t size = ::lseek(fd, 0, SEEK_END);
    if (size > 0) {
        char last = '\n';
        if (::pread(fd, &last, 1, size - 1) == 1 && last != '\n') {
            if (::write(fd, "\n", 1) != 1) {
                ::close(fd);
                return fail(error, errno_detail("cannot repair tail of " + path));
            }
        }
    }
    fd_ = fd;
    staged_.clear();
    staged_records_ = 0;
    flush_every_ = flush_every == 0 ? 1 : flush_every;
    appended_ = 0;
    return true;
}

bool JsonlAppender::write_all(const char* data, std::size_t size) {
    std::size_t done = 0;
    while (done < size) {
        const ssize_t n = ::write(fd_, data + done, size - done);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            return false;
        }
        done += static_cast<std::size_t>(n);
    }
    return true;
}

bool JsonlAppender::append(std::string_view line) {
    if (fd_ < 0) {
        return false;
    }
    staged_.append(line);
    staged_.push_back('\n');
    ++staged_records_;
    ++appended_;
    if (staged_records_ >= flush_every_) {
        return sync();
    }
    return true;
}

bool JsonlAppender::sync() {
    if (fd_ < 0) {
        return false;
    }
    if (!staged_.empty()) {
        if (!write_all(staged_.data(), staged_.size())) {
            return false;
        }
        staged_.clear();
        staged_records_ = 0;
    }
    return ::fsync(fd_) == 0;
}

bool JsonlAppender::close() {
    if (fd_ < 0) {
        return true;
    }
    const bool ok = sync();
    ::close(fd_);
    fd_ = -1;
    return ok;
}

// ---- tolerant reader --------------------------------------------------------

std::vector<api::Json> read_jsonl(const std::string& path,
                                  std::size_t* skipped) {
    std::vector<api::Json> records;
    std::size_t bad = 0;
    std::ifstream in(path, std::ios::binary);
    if (in) {
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty()) {
                continue;
            }
            api::Json rec;
            if (api::Json::parse(line, rec) && rec.is_object()) {
                records.push_back(std::move(rec));
            } else {
                ++bad;  // torn tail of a killed writer, or garbage
            }
        }
    }
    if (skipped != nullptr) {
        *skipped = bad;
    }
    return records;
}

// ---- ClaimQueue -------------------------------------------------------------

ClaimQueue::~ClaimQueue() { close(); }

bool ClaimQueue::open(const std::string& cursor_path, std::string* error) {
    close();
    fd_ = ::open(cursor_path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd_ < 0) {
        return fail(error, errno_detail("cannot open cursor " + cursor_path));
    }
    return true;
}

bool ClaimQueue::claim(std::uint64_t total, std::uint64_t batch,
                       std::uint64_t& begin, std::uint64_t& end) {
    if (fd_ < 0 || batch == 0) {
        return false;
    }
    while (::flock(fd_, LOCK_EX) != 0) {
        if (errno != EINTR) {
            return false;
        }
    }
    bool claimed = false;
    char buf[32] = {0};
    const ssize_t n = ::pread(fd_, buf, sizeof buf - 1, 0);
    std::uint64_t cursor = 0;
    if (n > 0) {
        // Unparseable content (torn write, garbage) heals to cursor 0:
        // jobs may re-run, but re-runs are deterministic and the merge
        // dedupes records by job id, so correctness is unaffected.
        char* parse_end = nullptr;
        const unsigned long long v = std::strtoull(buf, &parse_end, 10);
        if (parse_end != buf) {
            cursor = v;
        }
    }
    if (cursor < total) {
        begin = cursor;
        end = cursor + batch < total ? cursor + batch : total;
        const std::string next = std::to_string(end);
        if (::ftruncate(fd_, 0) == 0 &&
            ::pwrite(fd_, next.data(), next.size(), 0) ==
                static_cast<ssize_t>(next.size())) {
            claimed = true;
        }
    }
    ::flock(fd_, LOCK_UN);
    return claimed;
}

void ClaimQueue::close() {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

}  // namespace rtk::harness::campaign
