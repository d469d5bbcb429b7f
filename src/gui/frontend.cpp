#include "gui/frontend.hpp"

#include <cstdint>
#include <sstream>

#include "sysc/kernel.hpp"
#include "sysc/process.hpp"

namespace rtk::gui {

void Frontend::drive_from_bus(bfm::Bus8051& bus, std::uint16_t base,
                              std::uint16_t size, Widget& w) {
    if (!w.available_in(mode_)) {
        return;
    }
    Widget* wp = &w;
    bus.add_access_listener([wp, base, size](const bfm::Bus8051::AccessEvent& ev) {
        if (ev.addr >= base && ev.addr < static_cast<std::uint32_t>(base) + size) {
            wp->refresh();
        }
    });
}

Frontend::~Frontend() {
    for (sysc::Process* p : animators_) {
        p->kill();
    }
}

void Frontend::animate(sysc::Kernel& kernel, Widget& w, sysc::Time period) {
    if (!w.available_in(mode_)) {
        return;
    }
    Widget* wp = &w;
    animators_.push_back(
        &kernel.spawn("gui.animate." + w.name(), [wp, period] {
            for (;;) {
                sysc::wait(period);
                wp->refresh();
            }
        }));
}

std::string Frontend::render_all() const {
    std::ostringstream out;
    for (const Widget* w : widgets_) {
        if (!w->available_in(mode_)) {
            continue;
        }
        out << "--- " << w->name() << " ---\n" << w->last_rendering() << "\n";
    }
    return out.str();
}

std::uint64_t Frontend::total_refreshes() const {
    std::uint64_t n = 0;
    for (const Widget* w : widgets_) {
        n += w->refresh_count();
    }
    return n;
}

std::uint64_t Frontend::total_host_work() const {
    std::uint64_t n = 0;
    for (const Widget* w : widgets_) {
        n += w->host_work_done();
    }
    return n;
}

}  // namespace rtk::gui
