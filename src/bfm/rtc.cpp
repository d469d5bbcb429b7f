#include "bfm/rtc.hpp"

#include <cstdint>

#include "sysc/kernel.hpp"
#include "sysc/process.hpp"

namespace rtk::bfm {

RealTimeClock::RealTimeClock(sysc::Kernel& kernel, sysc::Time resolution)
    : resolution_(resolution), tick_(kernel, "rtc.tick") {
    proc_ = &kernel.spawn("bfm.rtc", [this] {
        for (;;) {
            sysc::wait(resolution_);
            ++count_;
            tick_.notify();
            if (sink_ != nullptr) {
                sink_->notify();
            }
        }
    });
}

RealTimeClock::~RealTimeClock() {
    proc_->kill();
}

std::uint8_t RealTimeClock::read(std::uint16_t offset) {
    if (offset < 4) {
        return static_cast<std::uint8_t>((count_ >> (8 * offset)) & 0xff);
    }
    return 0;
}

void RealTimeClock::write(std::uint16_t offset, std::uint8_t) {
    if (offset == 0) {
        count_ = 0;
    }
}

}  // namespace rtk::bfm
