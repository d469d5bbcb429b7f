#include "gui/widgets.hpp"

#include <sstream>

#include "sysc/kernel.hpp"
#include "sysc/process.hpp"

namespace rtk::gui {

std::string LcdWidget::render() {
    std::ostringstream out;
    out << "+----------------+\n";
    out << "|" << lcd_.row_text(0) << "|\n";
    out << "|" << lcd_.row_text(1) << "|\n";
    out << "+----------------+";
    if (!lcd_.display_on()) {
        out << " (off)";
    }
    return out.str();
}

std::string SsdWidget::render() {
    return "[" + ssd_.text() + "]";
}

KeypadWidget::~KeypadWidget() {
    if (script_proc_ != nullptr && !script_proc_->terminated()) {
        script_proc_->kill();
    }
}

void KeypadWidget::play_script(sysc::Kernel& kernel, std::vector<ScriptEvent> script) {
    script_proc_ = &kernel.spawn(
        "gui.keypad.script", [this, script = std::move(script)] {
            sysc::Time last{};
            for (const auto& ev : script) {
                if (ev.at > last) {
                    sysc::wait(ev.at - last);
                    last = ev.at;
                }
                if (ev.press) {
                    pad_.press(ev.key);
                } else {
                    pad_.release(ev.key);
                }
                ++injected_;
                refresh();
            }
        });
}

std::string KeypadWidget::render() {
    std::ostringstream out;
    out << "keypad[";
    bool first = true;
    for (unsigned k = 0; k < 16; ++k) {
        if (pad_.is_pressed(k)) {
            out << (first ? "" : ",") << k;
            first = false;
        }
    }
    out << "]";
    return out.str();
}

std::string GanttWidget::render() {
    const sysc::Time to = now();
    const sysc::Time from = to > window_ ? to - window_ : sysc::Time::zero();
    return api_.gantt().render_ascii(from, to, resolution_);
}

std::string EnergyDistributionWidget::render() {
    return sim::render_distribution(sim::collect_stats(api_), battery_);
}

}  // namespace rtk::gui
