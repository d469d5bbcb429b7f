#include "sysc/trace.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "sysc/kernel.hpp"
#include "sysc/report.hpp"

namespace rtk::sysc {

TraceFile::TraceFile(Kernel& kernel, std::string path, Time timescale)
    : kernel_(&kernel), path_(std::move(path)), out_(path_), timescale_(timescale) {
    if (!out_) {
        report(Severity::fatal, "trace", "cannot open VCD file '" + path_ + "'");
    }
    kernel.add_timestep_hook([this](Time t) { on_timestep(t); });
}

TraceFile::~TraceFile() {
    flush();
}

std::string TraceFile::id_code(std::size_t index) {
    // Printable VCD identifier characters: '!' (33) .. '~' (126).
    std::string code;
    do {
        code.push_back(static_cast<char>(33 + index % 94));
        index /= 94;
    } while (index != 0);
    return code;
}

void TraceFile::add_channel(std::string name, unsigned width,
                            std::function<std::uint64_t()> sample) {
    if (header_written_) {
        report(Severity::fatal, "trace",
               "signal '" + name + "' registered after tracing started");
    }
    Channel c;
    c.name = std::move(name);
    c.width = width == 0 ? 1 : width;
    c.sample = std::move(sample);
    c.code = id_code(channels_.size());
    channels_.push_back(std::move(c));
}

void TraceFile::write_header() {
    out_ << "$timescale " << timescale_.to_string() << " $end\n";
    out_ << "$scope module rtk $end\n";
    for (const auto& c : channels_) {
        out_ << "$var wire " << c.width << " " << c.code << " " << c.name << " $end\n";
    }
    out_ << "$upscope $end\n$enddefinitions $end\n";
    header_written_ = true;
}

void TraceFile::emit(const Channel& c, std::uint64_t v) {
    if (c.width == 1) {
        out_ << (v ? '1' : '0') << c.code << '\n';
    } else {
        out_ << 'b';
        bool significant = false;
        for (int bit = static_cast<int>(c.width) - 1; bit >= 0; --bit) {
            const bool set = (v >> bit) & 1u;
            if (set) {
                significant = true;
            }
            if (significant || bit == 0) {
                out_ << (set ? '1' : '0');
            }
        }
        out_ << ' ' << c.code << '\n';
    }
    ++changes_written_;
}

void TraceFile::on_timestep(Time t) {
    if (!header_written_) {
        write_header();
    }
    const std::uint64_t stamp = t.picoseconds() / std::max<std::uint64_t>(1, timescale_.picoseconds());
    bool stamp_emitted = false;
    for (auto& c : channels_) {
        const std::uint64_t v = c.sample();
        if (c.dumped && v == c.last) {
            continue;
        }
        if (!stamp_emitted && stamp != last_stamp_) {
            out_ << '#' << stamp << '\n';
            last_stamp_ = stamp;
            stamp_emitted = true;
        }
        emit(c, v);
        c.last = v;
        c.dumped = true;
    }
}

void TraceFile::sample_now() {
    on_timestep(kernel_->now());
}

void TraceFile::flush() {
    out_.flush();
}

}  // namespace rtk::sysc
