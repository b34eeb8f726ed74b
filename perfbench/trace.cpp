#include "trace.h"

#include <algorithm>
#include <vector>

namespace perfbench {

using alps::os::Proc;

std::array<double, 2> Tracer::measure_empty_spans(int n) {
    Tracer t;
    {
        Span root(&t, Layer::kSimOs);
        for (int i = 0; i < n; ++i) Span child(&t, Layer::kPolicy);
    }
    return {static_cast<double>(t.self_ns_[idx(Layer::kPolicy)]) / n,
            static_cast<double>(t.self_ns_[idx(Layer::kSimOs)]) / n};
}

void Tracer::calibrate() {
    constexpr int kSpans = 20000;
    const auto [inside, parent] = measure_empty_spans(kSpans);
    inside_samples_.push_back(inside);
    parent_samples_.push_back(parent);
}

namespace {
double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}
}  // namespace

double Tracer::self_s(Layer l) const {
    const double net = static_cast<double>(self_ns_[idx(l)]) -
                       static_cast<double>(calls_[idx(l)]) * median(inside_samples_) -
                       static_cast<double>(child_spans_[idx(l)]) * median(parent_samples_);
    return std::max(net, 0.0) * 1e-9;
}

double Tracer::total_s() const {
    double sum = 0.0;
    for (std::size_t i = 0; i < kLayers; ++i) sum += self_s(static_cast<Layer>(i));
    return sum;
}

void Tracer::end() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = now_ns() - f.start_ns;
    self_ns_[idx(f.layer)] += dur - f.child_ns;
    ++calls_[idx(f.layer)];
    if (!stack_.empty()) {
        stack_.back().child_ns += dur;
        ++child_spans_[idx(stack_.back().layer)];
    }
}

// ---------------------------------------------------------------------------
// TimedPolicy

void TimedPolicy::add(Proc& p) {
    Tracer::Span s(&tracer_, Layer::kPolicy);
    inner_->add(p);
}
void TimedPolicy::remove(Proc& p) {
    Tracer::Span s(&tracer_, Layer::kPolicy);
    inner_->remove(p);
}
void TimedPolicy::enqueue(Proc& p) {
    Tracer::Span s(&tracer_, Layer::kPolicy);
    inner_->enqueue(p);
}
void TimedPolicy::dequeue(Proc& p) {
    Tracer::Span s(&tracer_, Layer::kPolicy);
    inner_->dequeue(p);
}
Proc* TimedPolicy::peek() {
    Tracer::Span s(&tracer_, Layer::kPolicy);
    return inner_->peek();
}
Proc* TimedPolicy::pop() {
    Tracer::Span s(&tracer_, Layer::kPolicy);
    return inner_->pop();
}
bool TimedPolicy::preempts(const Proc& cand, const Proc& running) const {
    Tracer::Span s(&tracer_, Layer::kPolicy);
    return inner_->preempts(cand, running);
}
bool TimedPolicy::yields_to(const Proc& running, const Proc& cand) const {
    Tracer::Span s(&tracer_, Layer::kPolicy);
    return inner_->yields_to(running, cand);
}
void TimedPolicy::charge(Proc& p, alps::util::Duration ran) {
    Tracer::Span s(&tracer_, Layer::kPolicy);
    inner_->charge(p, ran);
}
void TimedPolicy::on_wakeup(Proc& p, alps::util::Duration slept) {
    Tracer::Span s(&tracer_, Layer::kPolicy);
    inner_->on_wakeup(p, slept);
}
void TimedPolicy::second_tick(std::span<Proc* const> procs, double loadavg,
                              alps::util::TimePoint now) {
    Tracer::Span s(&tracer_, Layer::kPolicy);
    inner_->second_tick(procs, loadavg, now);
}
alps::util::Duration TimedPolicy::slice() const {
    Tracer::Span s(&tracer_, Layer::kPolicy);
    return inner_->slice();
}
std::size_t TimedPolicy::runnable() const {
    Tracer::Span s(&tracer_, Layer::kPolicy);
    return inner_->runnable();
}
void TimedPolicy::on_migrate_out(Proc& p) {
    Tracer::Span s(&tracer_, Layer::kPolicy);
    inner_->on_migrate_out(p);
}
void TimedPolicy::on_migrate_in(Proc& p) {
    Tracer::Span s(&tracer_, Layer::kPolicy);
    inner_->on_migrate_in(p);
}

// ---------------------------------------------------------------------------
// TimedBehavior

alps::os::Action TimedBehavior::next_action(alps::os::ProcContext ctx) {
    Tracer::Span s(&tracer_, Layer::kDriver);
    return inner_->next_action(ctx);
}

alps::util::Duration TimedBehavior::lazy_run_duration(alps::os::ProcContext ctx) {
    Tracer::Span s(&tracer_, Layer::kDriver);
    return inner_->lazy_run_duration(ctx);
}

// ---------------------------------------------------------------------------
// TimedHost

using alps::core::ControlResult;
using alps::core::HostPid;
using alps::core::HostUid;
using alps::core::Sample;

Sample TimedHost::read_pid(HostPid pid) {
    Tracer::Span s(&tracer_, Layer::kHostRead);
    return inner_.read_pid(pid);
}

void TimedHost::read_pids(std::span<const HostPid> pids, Sample* out) {
    Tracer::Span s(&tracer_, Layer::kHostRead);
    inner_.read_pids(pids, out);
}

ControlResult TimedHost::stop_pid(HostPid pid) {
    Tracer::Span s(&tracer_, Layer::kHostSignal);
    return inner_.stop_pid(pid);
}

ControlResult TimedHost::cont_pid(HostPid pid) {
    Tracer::Span s(&tracer_, Layer::kHostSignal);
    return inner_.cont_pid(pid);
}

std::vector<HostPid> TimedHost::pids_of_user(HostUid uid) {
    Tracer::Span s(&tracer_, Layer::kHostMembership);
    return inner_.pids_of_user(uid);
}

void TimedHost::pids_of_user(HostUid uid, std::vector<HostPid>& out) {
    Tracer::Span s(&tracer_, Layer::kHostMembership);
    inner_.pids_of_user(uid, out);
}

}  // namespace perfbench
