#include "bfm/pio.hpp"

#include <cstdint>

#include "sysc/report.hpp"

namespace rtk::bfm {

MuxedParallelPort::MuxedParallelPort(sysc::Kernel& kernel)
    : p0_(kernel, "bfm.p0"), p2_(kernel, "bfm.p2"), ale_(kernel, "bfm.ale") {}

void MuxedParallelPort::attach(std::uint8_t sel, Device& dev) {
    if (!devices_.emplace(sel, &dev).second) {
        sysc::report(sysc::Severity::fatal, "pio",
                     "select code already occupied: " + std::to_string(sel));
    }
}

void MuxedParallelPort::select(std::uint8_t sel, std::uint8_t reg) {
    sel_ = sel;
    reg_ = reg;
    p2_.write(static_cast<std::uint8_t>((sel << 4) | (reg & 0x0f)));
    ale_.write(true);
    ale_.write(false);  // pulse (visible as a delta-wide blip in the VCD)
}

void MuxedParallelPort::data_write(std::uint8_t value) {
    p0_.write(value);
    ++transfers_;
    auto it = devices_.find(sel_);
    if (it != devices_.end()) {
        it->second->write(reg_, value);
    }
}

std::uint8_t MuxedParallelPort::data_read() {
    ++transfers_;
    auto it = devices_.find(sel_);
    const std::uint8_t v = it != devices_.end() ? it->second->read(reg_) : 0xff;
    p0_.write(v);
    return v;
}

}  // namespace rtk::bfm
