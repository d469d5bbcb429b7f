// Peripheral device tests: LCD, keypad, seven-segment display, RTC,
// multiplexed parallel port.
#include <gtest/gtest.h>

#include "bfm/bfm.hpp"
#include "sysc/report.hpp"
#include "sim/sim.hpp"

namespace rtk::bfm {
namespace {

using sysc::Time;

class DeviceTest : public ::testing::Test {
protected:
    sysc::Kernel k;
};

TEST_F(DeviceTest, LcdStartsBlank) {
    Lcd16x2 lcd{k};
    EXPECT_EQ(lcd.row_text(0), std::string(16, ' '));
    EXPECT_EQ(lcd.row_text(1), std::string(16, ' '));
    EXPECT_FALSE(lcd.busy());
}

TEST_F(DeviceTest, LcdWritesAdvanceCursor) {
    Lcd16x2 lcd{k};
    k.spawn("drv", [&] {
        for (char c : std::string("HI")) {
            while (lcd.busy()) {
                sysc::wait(Time::us(10));
            }
            lcd.write(1, static_cast<std::uint8_t>(c));
        }
    });
    k.run_until(Time::ms(1));
    EXPECT_EQ(lcd.row_text(0).substr(0, 2), "HI");
    EXPECT_EQ(lcd.data_writes(), 2u);
}

TEST_F(DeviceTest, LcdBusyDropsHastyWrites) {
    Lcd16x2 lcd{k};
    k.spawn("drv", [&] {
        lcd.write(1, 'A');  // makes controller busy for 37 us
        lcd.write(1, 'B');  // dropped: still busy
        sysc::wait(Time::us(50));
        lcd.write(1, 'B');  // ok now
    });
    k.run_until(Time::ms(1));
    EXPECT_EQ(lcd.row_text(0).substr(0, 2), "AB");
    EXPECT_EQ(lcd.writes_while_busy(), 1u);
}

TEST_F(DeviceTest, LcdClearTakesLongAndCountsFrames) {
    Lcd16x2 lcd{k};
    k.spawn("drv", [&] {
        lcd.write(1, 'X');
        sysc::wait(Time::us(50));
        lcd.write(0, Lcd16x2::cmd_clear);
        EXPECT_TRUE(lcd.busy());
        sysc::wait(Time::us(100));
        EXPECT_TRUE(lcd.busy());  // 1.52 ms command
        sysc::wait(Time::ms(2));
        EXPECT_FALSE(lcd.busy());
    });
    k.run_until(Time::ms(5));
    EXPECT_EQ(lcd.row_text(0), std::string(16, ' '));
    EXPECT_EQ(lcd.frame_count(), 1u);
}

TEST_F(DeviceTest, LcdSetDdramAddressesSecondRow) {
    Lcd16x2 lcd{k};
    k.spawn("drv", [&] {
        lcd.write(0, Lcd16x2::cmd_set_ddram | 0x42);  // row 1, col 2
        sysc::wait(Time::us(50));
        lcd.write(1, 'Z');
    });
    k.run_until(Time::ms(1));
    EXPECT_EQ(lcd.row_text(1)[2], 'Z');
}

TEST_F(DeviceTest, LcdRowWrapAfterColumn15) {
    Lcd16x2 lcd{k};
    k.spawn("drv", [&] {
        lcd.write(0, Lcd16x2::cmd_set_ddram | 0x0F);  // last col of row 0
        sysc::wait(Time::us(50));
        lcd.write(1, 'A');
        sysc::wait(Time::us(50));
        lcd.write(1, 'B');  // wraps to row 1 col 0
    });
    k.run_until(Time::ms(1));
    EXPECT_EQ(lcd.row_text(0)[15], 'A');
    EXPECT_EQ(lcd.row_text(1)[0], 'B');
}

TEST_F(DeviceTest, KeypadMatrixScan) {
    Keypad4x4 pad;
    pad.press(6);  // row 1, col 2
    pad.write(0, 0x02);  // strobe row 1
    EXPECT_EQ(pad.read(1), 0x04);  // col 2 responds
    pad.write(0, 0x01);  // strobe row 0
    EXPECT_EQ(pad.read(1), 0x00);
    pad.release(6);
    pad.write(0, 0x02);
    EXPECT_EQ(pad.read(1), 0x00);
}

TEST_F(DeviceTest, KeypadInterruptOnPress) {
    InterruptController intc;
    unsigned delivered = 99;
    intc.set_sink([&](unsigned line, bool) { delivered = line; });
    intc.write_ie(0x80 | 0x01);  // EA + line 0
    Keypad4x4 pad(&intc);
    pad.press(3);
    EXPECT_EQ(delivered, InterruptController::line_ext0);
    EXPECT_EQ(pad.press_count(), 1u);
    // Re-pressing a held key does not re-raise.
    delivered = 99;
    pad.press(3);
    EXPECT_EQ(delivered, 99u);
}

TEST_F(DeviceTest, SsdEncodesAndDecodes) {
    for (unsigned d = 0; d < 10; ++d) {
        EXPECT_EQ(SevenSegmentDisplay::decode_segments(
                      SevenSegmentDisplay::encode_digit(d)),
                  static_cast<char>('0' + d));
    }
    EXPECT_EQ(SevenSegmentDisplay::decode_segments(0), ' ');
    EXPECT_EQ(SevenSegmentDisplay::decode_segments(0x49), '?');
}

TEST_F(DeviceTest, SsdMultiplexedDigits) {
    SevenSegmentDisplay ssd;
    // Show "0042": digit 0 (ones) = 2, digit 1 = 4, rest = 0.
    const unsigned value = 42;
    unsigned v = value;
    for (unsigned d = 0; d < 4; ++d) {
        ssd.write(0, static_cast<std::uint8_t>(d));
        ssd.write(1, SevenSegmentDisplay::encode_digit(v % 10));
        v /= 10;
    }
    EXPECT_EQ(ssd.text(), "0042");
    EXPECT_EQ(ssd.value(), 42u);
    EXPECT_EQ(ssd.refresh_count(), 4u);
}

TEST_F(DeviceTest, RtcTicksAndCounts) {
    RealTimeClock rtc(k, Time::ms(1));
    int ticks_seen = 0;
    k.spawn("watch", [&] {
        for (int i = 0; i < 5; ++i) {
            sysc::wait(rtc.tick_event());
            ++ticks_seen;
        }
    });
    k.run_until(Time::ms(10));
    EXPECT_EQ(ticks_seen, 5);
    EXPECT_EQ(rtc.tick_count(), 10u);
    // Counter readable through the device window (little endian).
    EXPECT_EQ(rtc.read(0), 10);
    rtc.write(0, 0);
    EXPECT_EQ(rtc.tick_count(), 0u);
}

TEST_F(DeviceTest, MuxedPortRoutesBySelect) {
    MuxedParallelPort pio{k};
    Lcd16x2 lcd{k};
    SevenSegmentDisplay ssd;
    pio.attach(1, lcd);
    pio.attach(3, ssd);
    k.spawn("drv", [&] {
        pio.select(1, 1);       // LCD data register
        pio.data_write('Q');
        sysc::wait(Time::us(50));
        pio.select(3, 0);       // SSD digit select
        pio.data_write(0);
        pio.select(3, 1);
        pio.data_write(SevenSegmentDisplay::encode_digit(7));
    });
    k.run_until(Time::ms(1));
    EXPECT_EQ(lcd.row_text(0)[0], 'Q');
    EXPECT_EQ(ssd.text()[3], '7');
    EXPECT_EQ(pio.transfer_count(), 3u);
}

TEST_F(DeviceTest, MuxedPortDoubleAttachIsFatal) {
    MuxedParallelPort pio{k};
    Lcd16x2 a{k};
    SevenSegmentDisplay b;
    pio.attach(1, a);
    EXPECT_THROW(pio.attach(1, b), sysc::SimError);
}

TEST_F(DeviceTest, PioSignalsBelongToTheBoardKernel) {
    // Regression: the port signals used to bind to whichever kernel was
    // constructed last on the thread, so with a second kernel alive the
    // write sat in that kernel's update queue and never reached P0.
    sim::PriorityPreemptiveScheduler sched;
    sim::SimApi api{k, sched};
    sysc::Kernel newer;
    Bfm8051 bfm(api);
    k.spawn("drv", [&] {
        bfm.pio().select(3, 1);
        bfm.pio().data_write(0x5a);
        sysc::wait(Time::us(1));
    });
    k.run_until(Time::us(2));
    EXPECT_EQ(bfm.pio().p0().read(), 0x5a);
    EXPECT_EQ(bfm.pio().p2().read(), 0x31);
    EXPECT_EQ(bfm.pio().p0().change_count(), 1u);
    EXPECT_TRUE(newer.idle());
}

TEST_F(DeviceTest, Bfm8051HighLevelDrivers) {
    sim::PriorityPreemptiveScheduler sched;
    sim::SimApi api{k, sched};
    Bfm8051 bfm(api);
    sim::TThread& t = api.SIM_CreateThread("drv", sim::ThreadKind::task, 5, [&] {
        bfm.lcd_print(0, 0, "SCORE");
        bfm.ssd_show(417);
    });
    api.SIM_StartThread(t);
    k.run_until(sysc::Time::ms(10));
    EXPECT_EQ(bfm.lcd().row_text(0).substr(0, 5), "SCORE");
    EXPECT_EQ(bfm.ssd().value(), 417u);
    // The drivers consumed BFM-access time in the task's token.
    EXPECT_GT(t.token().cet(sim::ExecContext::bfm_access), Time::zero());
}

TEST_F(DeviceTest, Bfm8051KeypadScanFindsKey) {
    sim::PriorityPreemptiveScheduler sched;
    sim::SimApi api{k, sched};
    Bfm8051 bfm(api);
    bfm.keypad().press(11);
    int found = -2;
    sim::TThread& t = api.SIM_CreateThread("drv", sim::ThreadKind::task, 5, [&] {
        found = bfm.keypad_scan();
    });
    api.SIM_StartThread(t);
    k.run_until(sysc::Time::ms(5));
    EXPECT_EQ(found, 11);
}

}  // namespace
}  // namespace rtk::bfm
