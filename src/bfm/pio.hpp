// Multiplexed parallel I/O interface (paper §5.1: "Multiplexed Parallel
// I/O interface to which several external peripheral devices are
// connected"). Models the 8051's P0 (muxed address/data) + P2 (select)
// scheme: the driver latches a device-select/register pair (ALE phase),
// then transfers data. Port values are exposed as traced signals so the
// waveform viewer of Fig 4 can probe them.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "bfm/device.hpp"
#include "sysc/signal.hpp"

namespace rtk::bfm {

class MuxedParallelPort {
public:
    /// The port signals belong to `kernel`.
    explicit MuxedParallelPort(sysc::Kernel& kernel);

    /// Attach `dev` at select code `sel` (0..15).
    void attach(std::uint8_t sel, Device& dev);

    /// Latch select code + register offset (ALE phase of the mux cycle).
    void select(std::uint8_t sel, std::uint8_t reg);
    /// Data phase: write/read the latched device register.
    void data_write(std::uint8_t value);
    std::uint8_t data_read();

    // Port signals for waveform probing (Fig 4).
    sysc::Signal<std::uint8_t>& p0() { return p0_; }  ///< data bus
    sysc::Signal<std::uint8_t>& p2() { return p2_; }  ///< select/reg latch
    sysc::Signal<bool>& ale() { return ale_; }

    std::uint64_t transfer_count() const { return transfers_; }
    std::uint8_t selected() const { return sel_; }

private:
    std::map<std::uint8_t, Device*> devices_;
    std::uint8_t sel_ = 0;
    std::uint8_t reg_ = 0;
    std::uint64_t transfers_ = 0;
    sysc::Signal<std::uint8_t> p0_;
    sysc::Signal<std::uint8_t> p2_;
    sysc::Signal<bool> ale_;
};

}  // namespace rtk::bfm
