// Concrete widgets of the virtual system prototype (paper Fig 5-8):
// device views (LCD, keypad, SSD), the execution time/energy trace
// (Fig 6), the consumed time/energy distribution with battery bar
// (Fig 7), and a waveform probe (Fig 4).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "bfm/keypad.hpp"
#include "bfm/lcd.hpp"
#include "bfm/ssd.hpp"
#include "gui/widget.hpp"
#include "sim/sim_api.hpp"
#include "sim/stats.hpp"

namespace rtk::gui {

/// LCD panel view: the 16x2 text framed like a display bezel.
class LcdWidget final : public Widget {
public:
    LcdWidget(const sysc::Kernel& kernel, bfm::Lcd16x2& lcd,
              std::uint64_t host_cost = 20'000)
        : Widget(kernel, "lcd", host_cost), lcd_(lcd) {}
    std::string render() override;

private:
    bfm::Lcd16x2& lcd_;
};

/// Seven-segment display view.
class SsdWidget final : public Widget {
public:
    SsdWidget(const sysc::Kernel& kernel, bfm::SevenSegmentDisplay& ssd,
              std::uint64_t host_cost = 5'000)
        : Widget(kernel, "ssd", host_cost), ssd_(ssd) {}
    std::string render() override;

private:
    bfm::SevenSegmentDisplay& ssd_;
};

/// Keypad view; also the entry point for scripted user events
/// ("capture user events", paper §5).
class KeypadWidget final : public Widget {
public:
    struct ScriptEvent {
        sysc::Time at;
        unsigned key;
        bool press;  ///< false = release
    };

    KeypadWidget(const sysc::Kernel& kernel, bfm::Keypad4x4& pad,
                 std::uint64_t host_cost = 2'000)
        : Widget(kernel, "keypad", host_cost), pad_(pad) {}
    ~KeypadWidget() override;

    /// Inject a scripted scenario: a process spawned on `kernel` replays
    /// the events.
    void play_script(sysc::Kernel& kernel, std::vector<ScriptEvent> script);

    std::string render() override;
    std::uint64_t injected_events() const { return injected_; }

private:
    bfm::Keypad4x4& pad_;
    std::uint64_t injected_ = 0;
    sysc::Process* script_proc_ = nullptr;
};

/// Execution time/energy trace widget (Fig 6) -- step mode only.
class GanttWidget final : public Widget {
public:
    GanttWidget(const sim::SimApi& api, sysc::Time window, sysc::Time resolution,
                std::uint64_t host_cost = 50'000)
        : Widget(api.kernel(), "gantt", host_cost),
          api_(api),
          window_(window),
          resolution_(resolution) {}

    bool available_in(Mode mode) const override { return mode == Mode::step; }
    std::string render() override;

private:
    const sim::SimApi& api_;
    sysc::Time window_;
    sysc::Time resolution_;
};

/// Consumed time/energy distribution + battery widget (Fig 7) --
/// animate mode only.
class EnergyDistributionWidget final : public Widget {
public:
    EnergyDistributionWidget(const sim::SimApi& api, double battery_wh = 10.0,
                             std::uint64_t host_cost = 30'000)
        : Widget(api.kernel(), "energy", host_cost), api_(api), battery_(battery_wh) {}

    bool available_in(Mode mode) const override { return mode == Mode::animate; }
    std::string render() override;

    const sim::BatteryModel& battery() const { return battery_; }

private:
    const sim::SimApi& api_;
    sim::BatteryModel battery_;
};

}  // namespace rtk::gui
