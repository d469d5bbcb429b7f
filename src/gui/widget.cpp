#include "gui/widget.hpp"

#include <cstdint>

namespace rtk::gui {

std::uint64_t HostCostModel::burn() const {
    // xorshift64 -- data-dependent so the loop cannot be folded away.
    volatile std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (std::uint64_t i = 0; i < iterations_; ++i) {
        std::uint64_t v = x;
        v ^= v << 13;
        v ^= v >> 7;
        v ^= v << 17;
        x = v;
    }
    return x;
}

Widget::Widget(const sysc::Kernel& kernel, std::string name,
               std::uint64_t host_cost_iterations)
    : kernel_(kernel), name_(std::move(name)), cost_(host_cost_iterations) {}

void Widget::refresh() {
    const sysc::Time t = now();
    if (ever_refreshed_ && !min_interval_.is_zero() && t - last_refresh_ < min_interval_) {
        ++skipped_;
        return;
    }
    ever_refreshed_ = true;
    last_refresh_ = t;
    cost_.burn();
    host_work_ += cost_.iterations();
    last_render_ = render();
    ++refreshes_;
}

}  // namespace rtk::gui
