// Per-layer host-time tracing for the benchmark's traced run.
//
// The traced run rebuilds each workload's machine from the library's public
// parts and slips forwarding decorators in at the public interfaces between
// layers: the kernel's os::SchedPolicy, the ALPS driver's os::Behavior, the
// scheduler's core::ProcessHost and the traffic generator's submit callback.
// Each decorator opens a Span around the call it forwards. Spans nest (a
// driver tick sends signals, a signal re-queues a process), and each span
// charges its layer with its *self* time: its duration minus the time its
// child spans cover. The root span is the engine's run_until, so the root's
// self time is engine dispatch plus kernel internals — everything no
// decorator covers.
//
// A span costs two clock reads. Part of that lands inside the span and part
// in its parent, which matters for layers entered a hundred million times
// with bodies of a few nanoseconds (the kernel policy on fig4). calibrate()
// measures both parts on empty spans, and the reported self times have them
// subtracted per span.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "alps/host.h"
#include "os/behavior.h"
#include "os/policy.h"

namespace perfbench {

enum class Layer : int {
    kSimOs = 0,        ///< root: run_until minus every timed callout
    kPolicy,           ///< os::SchedPolicy (shared-queue kernels only)
    kDriver,           ///< the ALPS driver behaviour (tick logic)
    kHostRead,         ///< ProcessHost progress reads
    kHostSignal,       ///< ProcessHost SIGSTOP / SIGCONT
    kHostMembership,   ///< ProcessHost per-uid membership scans
    kSubmit,           ///< traffic generator -> WebSite::submit
    kCount,
};

class Tracer {
public:
    static constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

    /// RAII span. Records only while a root span is open, so calls made
    /// while a machine is being built are not charged to any layer.
    class Span {
    public:
        Span(Tracer* tracer, Layer layer)
            : tracer_(tracer), root_(layer == Layer::kSimOs) {
            if (tracer_ == nullptr) return;
            if (root_) {
                tracer_->open_ = true;
            } else if (!tracer_->open_) {
                tracer_ = nullptr;
                return;
            }
            tracer_->begin(layer);
        }
        ~Span() {
            if (tracer_ == nullptr) return;
            tracer_->end();
            if (root_) tracer_->open_ = false;
        }
        Span(const Span&) = delete;
        Span& operator=(const Span&) = delete;

    private:
        Tracer* tracer_;
        bool root_;
    };

    /// Times one round of empty spans. Self times are reported net of the
    /// median span cost over all rounds, so calling this between the traced
    /// calls samples the clock cost under the same host conditions.
    void calibrate();

    /// A layer's self time net of span overhead, in seconds.
    [[nodiscard]] double self_s(Layer l) const;
    [[nodiscard]] std::uint64_t calls(Layer l) const { return calls_[idx(l)]; }
    /// Sum of every layer's self time: the traced run's covered host time.
    [[nodiscard]] double total_s() const;

private:
    struct Frame {
        Layer layer;
        std::int64_t start_ns;
        std::int64_t child_ns;
    };
    /// Runs `n` empty spans under a root; returns {inside, parent} ns/span.
    static std::array<double, 2> measure_empty_spans(int n);

    static std::size_t idx(Layer l) { return static_cast<std::size_t>(l); }
    static std::int64_t now_ns() {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }
    void begin(Layer l) { stack_.push_back({l, now_ns(), 0}); }
    void end();

    bool open_ = false;
    std::vector<Frame> stack_;
    std::array<std::int64_t, kLayers> self_ns_{};
    std::array<std::uint64_t, kLayers> calls_{};
    /// Child spans each layer's spans opened (each left clock cost in it).
    std::array<std::uint64_t, kLayers> child_spans_{};
    /// Per calibration round, span overhead (ns) charged to the span itself
    /// and to its parent.
    std::vector<double> inside_samples_;
    std::vector<double> parent_samples_;
};

/// Times every call into a kernel scheduling policy.
class TimedPolicy final : public alps::os::SchedPolicy {
public:
    TimedPolicy(std::unique_ptr<alps::os::SchedPolicy> inner, Tracer& tracer)
        : inner_(std::move(inner)), tracer_(tracer) {}

    void add(alps::os::Proc& p) override;
    void remove(alps::os::Proc& p) override;
    void enqueue(alps::os::Proc& p) override;
    void dequeue(alps::os::Proc& p) override;
    alps::os::Proc* peek() override;
    alps::os::Proc* pop() override;
    [[nodiscard]] bool preempts(const alps::os::Proc& cand,
                                const alps::os::Proc& running) const override;
    [[nodiscard]] bool yields_to(const alps::os::Proc& running,
                                 const alps::os::Proc& cand) const override;
    void charge(alps::os::Proc& p, alps::util::Duration ran) override;
    void on_wakeup(alps::os::Proc& p, alps::util::Duration slept) override;
    void second_tick(std::span<alps::os::Proc* const> procs, double loadavg,
                     alps::util::TimePoint now) override;
    [[nodiscard]] alps::util::Duration slice() const override;
    [[nodiscard]] std::size_t runnable() const override;
    void on_migrate_out(alps::os::Proc& p) override;
    void on_migrate_in(alps::os::Proc& p) override;

private:
    std::unique_ptr<alps::os::SchedPolicy> inner_;
    Tracer& tracer_;
};

/// Times the ALPS driver process body (one Figure-3 tick per lazy run).
class TimedBehavior final : public alps::os::Behavior {
public:
    TimedBehavior(std::unique_ptr<alps::os::Behavior> inner, Tracer& tracer)
        : inner_(std::move(inner)), tracer_(tracer) {}

    alps::os::Action next_action(alps::os::ProcContext ctx) override;
    alps::util::Duration lazy_run_duration(alps::os::ProcContext ctx) override;

private:
    std::unique_ptr<alps::os::Behavior> inner_;
    Tracer& tracer_;
};

/// Times the scheduler's reads, signals and membership scans.
class TimedHost final : public alps::core::ProcessHost {
public:
    TimedHost(alps::core::ProcessHost& inner, Tracer& tracer)
        : inner_(inner), tracer_(tracer) {}

    alps::core::Sample read_pid(alps::core::HostPid pid) override;
    [[nodiscard]] bool supports_batch_read() const override {
        return inner_.supports_batch_read();
    }
    void read_pids(std::span<const alps::core::HostPid> pids,
                   alps::core::Sample* out) override;
    alps::core::ControlResult stop_pid(alps::core::HostPid pid) override;
    alps::core::ControlResult cont_pid(alps::core::HostPid pid) override;
    std::vector<alps::core::HostPid> pids_of_user(alps::core::HostUid uid) override;
    void pids_of_user(alps::core::HostUid uid,
                      std::vector<alps::core::HostPid>& out) override;

private:
    alps::core::ProcessHost& inner_;
    Tracer& tracer_;
};

}  // namespace perfbench
