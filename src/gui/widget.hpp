// Headless widget framework standing in for the paper's GUI layer.
//
// The paper wraps peripheral devices in "GUI widgets to give the look &
// feel of a virtual system prototype" and measures how GUI callback
// overhead degrades co-simulation speed (Table 2). Reproducing that
// overhead does not need pixels: each widget has a deterministic host-
// side cost model (busy work per refresh callback) and a text rendering.
// Refreshes are driven by BFM accesses, exactly like the paper's
// "different BFM access rates driving the GUI widgets".
#pragma once

#include <cstdint>
#include <string>

#include "sysc/kernel.hpp"
#include "sysc/time.hpp"

namespace rtk::gui {

/// Simulation-control mode of the frontend (paper §5: Gantt/waveform
/// displays are only usable in step mode; the energy distribution widget
/// animates at run time).
enum class Mode { step, animate };

/// Deterministic host-CPU cost: a xorshift busy loop the optimizer cannot
/// remove. One unit is one loop iteration (~1 ns on a modern host).
class HostCostModel {
public:
    explicit HostCostModel(std::uint64_t iterations) : iterations_(iterations) {}

    std::uint64_t iterations() const { return iterations_; }
    void set_iterations(std::uint64_t n) { iterations_ = n; }

    /// Burn the configured host work; returns the (meaningless) hash so
    /// the loop has an observable side effect.
    std::uint64_t burn() const;

private:
    std::uint64_t iterations_;
};

class Widget {
public:
    /// `kernel` is the simulation whose clock times the refreshes.
    Widget(const sysc::Kernel& kernel, std::string name,
           std::uint64_t host_cost_iterations);
    virtual ~Widget() = default;

    Widget(const Widget&) = delete;
    Widget& operator=(const Widget&) = delete;

    const std::string& name() const { return name_; }

    /// Redraw callback: burns the host cost and re-renders. Refreshes
    /// closer together (in simulated time) than min_interval are skipped
    /// -- the paper's "adjustments of the host CPU clock that avoids GUI
    /// display hazards" maps to this frame limiter.
    void refresh();

    /// Is this widget usable in `mode`? (Gantt: step only; energy
    /// distribution: animate only; device widgets: both.)
    virtual bool available_in(Mode mode) const {
        (void)mode;
        return true;
    }

    /// Current text rendering of the widget.
    virtual std::string render() = 0;

    void set_min_interval(sysc::Time t) { min_interval_ = t; }
    HostCostModel& cost() { return cost_; }

    std::uint64_t refresh_count() const { return refreshes_; }
    std::uint64_t skipped_count() const { return skipped_; }
    std::uint64_t host_work_done() const { return host_work_; }
    const std::string& last_rendering() const { return last_render_; }

protected:
    sysc::Time now() const { return kernel_.now(); }

private:
    const sysc::Kernel& kernel_;
    std::string name_;
    HostCostModel cost_;
    sysc::Time min_interval_{};
    sysc::Time last_refresh_{};
    bool ever_refreshed_ = false;
    std::uint64_t refreshes_ = 0;
    std::uint64_t skipped_ = 0;
    std::uint64_t host_work_ = 0;
    std::string last_render_;
};

}  // namespace rtk::gui
