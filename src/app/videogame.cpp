#include "app/videogame.hpp"

#include <new>
#include <string>

namespace rtk::app {

using namespace tkernel;
using sim::ExecContext;

VideoGame::VideoGame(TKernel& tk, bfm::Bfm8051& bfm, GameConfig cfg)
    : tk_(tk), bfm_(bfm), cfg_(cfg) {}

void VideoGame::wire(TKernel& tk, bfm::Bfm8051& bfm) {
    bfm.rtc().drive(tk.external_tick());
    bfm.intc().set_sink([&tk](unsigned line, bool) {
        tk.trigger_interrupt(line);
    });
}

void VideoGame::install() {
    tk_.set_user_main([this] { setup(); });
}

void VideoGame::setup() {
    // The whole Fig 4 task set as one declarative graph; instantiation
    // creates and starts everything through the api facade.
    api::SystemBuilder b;
    b.mailbox("render_mbx");
    b.fixed_pool("msg_pool").blocks(4).block_size(sizeof(RenderMsg));
    b.eventflag("key_flg");
    b.semaphore("score_sem");
    b.mutex("paddle_mtx").inherit();

    // Not autostarted: the bodies reach their objects through the typed
    // handle pointers below, which exist only after instantiation -- the
    // explicit starts at the end close that window (and keep the
    // task-then-handler start order of a classic µ-ITRON user main).
    b.task("LCD:T1").priority(cfg_.pri_lcd).body([this] { lcd_task_body(); });
    b.task("Keypad:T2").priority(cfg_.pri_keypad).body(
        [this] { keypad_task_body(); });
    b.task("SSD:T3").priority(cfg_.pri_ssd).body([this] { ssd_task_body(); });
    if (cfg_.spawn_idle_task) {
        b.task("IDLE:T4").priority(cfg_.pri_idle).body(
            [this] { idle_task_body(); });
    }

    b.cyclic("Cyclic:H1").period(cfg_.physics_period_ms).autostart(false).handler(
        [this](void*) { physics_tick(); });
    b.alarm("Alarm:H2").handler([this](void*) { round_over(); });

    // Keypad interrupt: external /INT0 through the BFM intc.
    b.interrupt(bfm::InterruptController::line_ext0).priority(2).handler(
        [this](void*) {
            ++key_events_;
            if (flg_h_ != nullptr) {
                flg_h_->set(key_event_bit).expect("key event flag");
            }
        });

    h_ = std::move(b.instantiate(sys_)).value();  // fatal on failure

    mbx_h_ = h_.find_mailbox("render_mbx");
    mpf_h_ = h_.find_fixed_pool("msg_pool");
    flg_h_ = h_.find_eventflag("key_flg");
    sem_h_ = h_.find_semaphore("score_sem");
    mtx_h_ = h_.find_mutex("paddle_mtx");
    h1_h_ = h_.find_cyclic("Cyclic:H1");
    h2_h_ = h_.find_alarm("Alarm:H2");
    t1_h_ = h_.find_task("LCD:T1");
    t2_h_ = h_.find_task("Keypad:T2");
    t3_h_ = h_.find_task("SSD:T3");
    t4_h_ = cfg_.spawn_idle_task ? h_.find_task("IDLE:T4") : nullptr;

    // ---- start everything (handle pointers are wired now) ----
    t1_h_->start().expect("start LCD:T1");
    t2_h_->start().expect("start Keypad:T2");
    t3_h_->start().expect("start SSD:T3");
    if (t4_h_ != nullptr) {
        t4_h_->start().expect("start IDLE:T4");
    }
    h1_h_->start().expect("start Cyclic:H1");
    h2_h_->start(cfg_.round_time_ms).expect("start Alarm:H2");

    bfm_.lcd_clear();
    bfm_.ssd_show(0);
}

// ---- H1: game physics + frame production --------------------------------------

void VideoGame::physics_tick() {
    tk_.sim().SIM_WaitUnits(8, ExecContext::handler);  // physics computation
    if (round_over_flag_) {
        round_over_flag_ = false;
        ++rounds_;
        ball_x_ = 3;
        ball_row_ = 0;
        ball_dir_ = 1;
        h2_h_->start(cfg_.round_time_ms).expect("restart round alarm");
    }
    ball_x_ += ball_dir_;
    if (ball_x_ <= 0) {
        ball_x_ = 0;
        ball_dir_ = 1;
    } else if (ball_x_ >= 15) {
        ball_x_ = 15;
        ball_dir_ = -1;
    }
    ball_row_ ^= 1;
    if (ball_row_ == 1) {
        // Ball reaches the paddle row: hit or miss.
        if (ball_x_ >= paddle_x_ - 1 && ball_x_ <= paddle_x_ + 1) {
            ++score_;
            sem_h_->signal().expect("score semaphore");
        } else {
            ++misses_;
        }
    }
    // Produce a render message from the fixed pool (drop frame if the
    // pool is exhausted -- handlers must not block).
    const Expected<void*> blk = mpf_h_->get(TMO_POL);
    if (!blk.ok()) {
        ++dropped_;
        return;
    }
    auto* msg = new (*blk) RenderMsg{};
    msg->ball_x = ball_x_;
    msg->ball_row = ball_row_;
    msg->paddle_x = paddle_x_;
    msg->score = score_;
    msg->round = rounds_;
    mbx_h_->send(msg).expect("render mailbox");
}

// ---- H2: round timer -------------------------------------------------------------

void VideoGame::round_over() {
    tk_.sim().SIM_WaitUnits(4, ExecContext::handler);
    round_over_flag_ = true;
}

// ---- T1: LCD rendering -------------------------------------------------------------

void VideoGame::draw_frame(const RenderMsg& m) {
    std::string row0(16, ' ');
    std::string row1(16, ' ');
    auto& ball_row = (m.ball_row == 0) ? row0 : row1;
    ball_row[static_cast<std::size_t>(m.ball_x)] = '*';
    for (int x = m.paddle_x - 1; x <= m.paddle_x + 1; ++x) {
        if (x >= 0 && x < 16 && row1[static_cast<std::size_t>(x)] == ' ') {
            row1[static_cast<std::size_t>(x)] = '=';
        }
    }
    const std::string sc = std::to_string(m.score);
    row0.replace(16 - sc.size(), sc.size(), sc);
    bfm_.lcd_print(0, 0, row0);
    bfm_.lcd_print(1, 0, row1);
}

void VideoGame::lcd_task_body() {
    for (;;) {
        const Expected<T_MSG*> raw = mbx_h_->receive();
        if (!raw.ok()) {
            return;  // mailbox deleted: end task
        }
        auto* msg = static_cast<RenderMsg*>(*raw);
        // Compose the frame (annotated computation), read the paddle
        // position consistently, then draw through the BFM.
        mtx_h_->lock().expect("paddle mutex");
        const RenderMsg local = *msg;
        mtx_h_->unlock().expect("paddle mutex");
        tk_.sim().SIM_WaitUnits(cfg_.frame_compose_units, ExecContext::task);
        draw_frame(local);
        ++frames_;
        mpf_h_->put(msg).expect("render message pool");
    }
}

// ---- T2: keypad input ----------------------------------------------------------------

void VideoGame::keypad_task_body() {
    for (;;) {
        if (!flg_h_->wait(key_event_bit, TWF_ORW | TWF_CLR).ok()) {
            return;
        }
        tk_.sim().SIM_WaitUnits(cfg_.input_units, ExecContext::task);
        const int key = bfm_.keypad_scan();
        if (key < 0) {
            continue;
        }
        const unsigned col = static_cast<unsigned>(key) % 4;
        mtx_h_->lock().expect("paddle mutex");
        if (col == 0 && paddle_x_ > 1) {
            --paddle_x_;
        } else if (col == 3 && paddle_x_ < 14) {
            ++paddle_x_;
        }
        mtx_h_->unlock().expect("paddle mutex");
    }
}

// ---- T3: score display -----------------------------------------------------------------

void VideoGame::ssd_task_body() {
    for (;;) {
        if (!sem_h_->wait().ok()) {
            return;
        }
        tk_.sim().SIM_WaitUnits(cfg_.score_units, ExecContext::task);
        bfm_.ssd_show(score_);
    }
}

// ---- T4: idle ---------------------------------------------------------------------------

void VideoGame::idle_task_body() {
    // The classic µ-ITRON idle task: an endless low-priority loop. Its
    // consumed time/energy shows up in the Fig 7 distribution, exactly as
    // in the paper's screenshots.
    for (;;) {
        tk_.sim().SIM_WaitUnits(250, ExecContext::task);
    }
}

}  // namespace rtk::app
