// VCD waveform tracing (sc_trace analogue).
//
// The paper's case study probes BFM signals in a waveform viewer (Fig 4);
// TraceFile regenerates that capability by sampling registered signals
// after every delta cycle and writing a standard Value-Change-Dump file
// any waveform viewer (gtkwave etc.) can load.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "sysc/signal.hpp"
#include "sysc/time.hpp"

namespace rtk::sysc {

class TraceFile {
public:
    /// Creates/truncates `path`; timescale fixes the VCD time unit.
    /// Samples after every delta cycle of `kernel`.
    TraceFile(Kernel& kernel, std::string path, Time timescale = Time::ns(1));
    ~TraceFile();

    TraceFile(const TraceFile&) = delete;
    TraceFile& operator=(const TraceFile&) = delete;

    /// Register an integral-valued signal under `name` (defaults to the
    /// signal's own name). Must be called before the first delta cycle
    /// that should appear in the dump.
    template <typename T>
    void trace(Signal<T>& sig, std::string name = {}, unsigned width = 8 * sizeof(T)) {
        static_assert(std::is_integral_v<T>, "only integral signals are traceable");
        if constexpr (std::is_same_v<T, bool>) {
            width = 1;
        }
        add_channel(name.empty() ? sig.name() : std::move(name), width,
                    [&sig] { return static_cast<std::uint64_t>(sig.read()); });
    }

    /// Register an arbitrary sampled value (probing a plain variable, as
    /// the paper's debugger widgets do).
    void trace_value(std::string name, unsigned width,
                     std::function<std::uint64_t()> sample) {
        add_channel(std::move(name), width, std::move(sample));
    }

    /// Force a sample at the current time (normally automatic per delta).
    void sample_now();

    void flush();
    std::uint64_t value_changes_written() const { return changes_written_; }
    const std::string& path() const { return path_; }

private:
    struct Channel {
        std::string name;
        unsigned width;
        std::function<std::uint64_t()> sample;
        std::string code;
        std::uint64_t last = 0;
        bool dumped = false;
    };

    void add_channel(std::string name, unsigned width,
                     std::function<std::uint64_t()> sample);
    void write_header();
    void on_timestep(Time t);
    void emit(const Channel& c, std::uint64_t v);
    static std::string id_code(std::size_t index);

    Kernel* kernel_;
    std::string path_;
    std::ofstream out_;
    Time timescale_;
    bool header_written_ = false;
    std::uint64_t last_stamp_ = std::uint64_t(-1);
    std::uint64_t changes_written_ = 0;
    std::vector<Channel> channels_;
};

}  // namespace rtk::sysc
