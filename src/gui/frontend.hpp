// Frontend -- the virtual-system-prototype window manager: owns no
// widgets but wires them to the co-simulation. Device widgets are
// refreshed by BFM accesses to their peripheral's address window (the
// Table 2 coupling); animate-mode widgets are refreshed periodically by
// a spawned process.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bfm/bus.hpp"
#include "gui/widget.hpp"

namespace rtk::gui {

class Frontend {
public:
    explicit Frontend(Mode mode) : mode_(mode) {}
    ~Frontend();

    Mode mode() const { return mode_; }

    /// Register a widget; it participates in render_all() and totals.
    void add(Widget& w) { widgets_.push_back(&w); }

    /// Refresh `w` whenever the bus touches [base, base+size) -- how the
    /// paper drives widgets from BFM accesses. Respects mode availability.
    void drive_from_bus(bfm::Bus8051& bus, std::uint16_t base, std::uint16_t size,
                        Widget& w);

    /// Animate-mode refresh of `w` every `period` of simulated time; the
    /// refresh process is spawned on `kernel`.
    void animate(sysc::Kernel& kernel, Widget& w, sysc::Time period);

    /// Text dump of every mode-available widget.
    std::string render_all() const;

    std::uint64_t total_refreshes() const;
    std::uint64_t total_host_work() const;

private:
    Mode mode_;
    std::vector<Widget*> widgets_;
    std::vector<sysc::Process*> animators_;
};

}  // namespace rtk::gui
