#include "bfm/bfm8051.hpp"

#include <cstdint>

namespace rtk::bfm {

namespace {
// Mux select codes on the parallel interface.
constexpr std::uint8_t sel_lcd = 1;
constexpr std::uint8_t sel_keypad = 2;
constexpr std::uint8_t sel_ssd = 3;
}  // namespace

Bfm8051::Bfm8051(sim::SimApi& api) : Bfm8051(api, Config{}) {}

Bfm8051::Bfm8051(sim::SimApi& api, Config cfg)
    : cfg_(cfg),
      bus_(api, cfg.budgets),
      rtc_(api.kernel(), cfg.rtc_resolution),
      serial_(api.kernel(), cfg.uart_baud, &intc_),
      pio_(api.kernel()),
      lcd_(api.kernel()),
      keypad_(&intc_),
      timer0_(api.kernel(), 0, &intc_),
      timer1_(api.kernel(), 1, &intc_) {
    // Memory controller view: devices in XDATA space.
    bus_.map(lcd_base, 0x10, lcd_);
    bus_.map(keypad_base, 0x10, keypad_);
    bus_.map(ssd_base, 0x10, ssd_);
    bus_.map(serial_base, 0x10, serial_);
    bus_.map(intc_base, 0x10, intc_);
    bus_.map(rtc_base, 0x10, rtc_);
    bus_.map(timer0_base, 0x10, timer0_);
    bus_.map(timer1_base, 0x10, timer1_);
    // Peripherals also hang off the multiplexed parallel interface so the
    // port activity is probeable in the waveform viewer (Fig 4).
    pio_.attach(sel_lcd, lcd_);
    pio_.attach(sel_keypad, keypad_);
    pio_.attach(sel_ssd, ssd_);
    // Default interrupt setup: everything enabled, serial high priority.
    intc_.write_ie(0x80 | 0x1f);
    intc_.write_ip(1u << InterruptController::line_serial);
}

void Bfm8051::lcd_command(std::uint8_t cmd) {
    while ((bus_.read_xdata(lcd_base + 0) & 0x80) != 0) {
        // busy-poll: each read costs a bus access, exactly as a real
        // driver would spin on the busy flag
    }
    bus_.write_xdata(lcd_base + 0, cmd);
}

void Bfm8051::lcd_putc(char c) {
    while ((bus_.read_xdata(lcd_base + 0) & 0x80) != 0) {
    }
    bus_.write_xdata(lcd_base + 1, static_cast<std::uint8_t>(c));
}

void Bfm8051::lcd_print(unsigned row, unsigned col, const std::string& text) {
    const std::uint8_t base = row == 0 ? 0x00 : 0x40;
    lcd_command(static_cast<std::uint8_t>(Lcd16x2::cmd_set_ddram |
                                          (base + (col & 0x0f))));
    for (char c : text) {
        lcd_putc(c);
    }
}

void Bfm8051::lcd_clear() {
    lcd_command(Lcd16x2::cmd_clear);
}

int Bfm8051::keypad_scan() {
    for (unsigned row = 0; row < 4; ++row) {
        bus_.write_xdata(keypad_base + 0, static_cast<std::uint8_t>(1u << row));
        const std::uint8_t cols = bus_.read_xdata(keypad_base + 1);
        for (unsigned col = 0; col < 4; ++col) {
            if ((cols >> col) & 1u) {
                return static_cast<int>(row * 4 + col);
            }
        }
    }
    return -1;
}

void Bfm8051::ssd_show(unsigned value) {
    for (unsigned d = 0; d < SevenSegmentDisplay::digits; ++d) {
        bus_.write_xdata(ssd_base + 0, static_cast<std::uint8_t>(d));
        bus_.write_xdata(ssd_base + 1,
                         SevenSegmentDisplay::encode_digit(value % 10));
        value /= 10;
    }
}

bool Bfm8051::serial_send(std::uint8_t byte) {
    if ((bus_.read_xdata(serial_base + 1) & 0x04) != 0) {
        return false;  // transmitter busy
    }
    bus_.write_xdata(serial_base + 0, byte);
    return true;
}

bool Bfm8051::serial_poll_ready() {
    return (bus_.read_xdata(serial_base + 1) & 0x02) != 0;
}

std::uint8_t Bfm8051::serial_receive() {
    return bus_.read_xdata(serial_base + 0);
}

}  // namespace rtk::bfm
