#include "os/rich_os.h"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>

#include "obs/flight/recorder.h"
#include "obs/metrics.h"
#include "sim/repeated_add.h"

namespace satin::os {

namespace {

// Always-on scheduler invariants. A broken one throws with the core, the
// thread involved and the simulated time instead of dereferencing a null
// thread in an optimized build. Out of line and cold, so each check costs
// its hot path one predicted branch.
[[noreturn, gnu::cold, gnu::noinline]] void broken_invariant(
    const char* what, hw::CoreId core, const char* thread_role,
    const Thread* thread, sim::Time now) {
  throw std::logic_error(
      std::string("RichOs invariant: ") + what + " (core " +
      std::to_string(core) + ", " + thread_role + " " +
      (thread != nullptr ? "'" + thread->name() + "'" : std::string("none")) +
      ", t=" + now.to_string() + ")");
}

}  // namespace

RichOs::RichOs(hw::Platform& platform, KernelImage image, OsConfig config)
    : RichOs(platform, std::make_shared<const KernelImage>(std::move(image)),
             config) {}

RichOs::RichOs(hw::Platform& platform,
               std::shared_ptr<const KernelImage> image, OsConfig config)
    : platform_(platform),
      image_(std::move(image)),
      config_(config),
      tick_period_(sim::Duration::from_sec_f(1.0 / config.hz)),
      cpus_(static_cast<std::size_t>(platform.num_cores())) {
  if (image_ == nullptr) {
    throw std::invalid_argument("RichOs: null kernel image");
  }
  if (config.hz < 100 || config.hz > 1000) {
    throw std::invalid_argument("OsConfig: HZ outside the Linux 100..1000 range");
  }
  for (int c = 0; c < platform.num_cores(); ++c) {
    cpu(c).keyed_slot = platform.engine().add_keyed_slot(
        this, static_cast<std::uint32_t>(c));
  }
  for (int c = 0; c < platform.num_cores(); ++c) {
    for (const auto& [slot, owner] :
         {std::pair{cpu(c).keyed_slot, c},
          std::pair{platform.timer().nonsecure_slot(c), c | kTickSlot}}) {
      if (slot >= slot_core_.size()) slot_core_.resize(slot + 1, kNoCore);
      slot_core_[slot] = owner;
    }
  }
  joined_.reserve(2 * cpus_.size());
}

RichOs::~RichOs() {
  for (int c = 0; c < platform_.num_cores(); ++c) {
    platform_.core(c).remove_world_listener(this);
    if (cpu(c).keyed != CpuState::Keyed::kNone) {
      platform_.engine().disarm(cpu(c).keyed_slot);
    }
  }
}

void RichOs::boot() {
  if (booted_) throw std::logic_error("RichOs::boot called twice");
  booted_ = true;
  image_->install(platform_.memory());
  // Memory now holds exactly the installed image: stamp it as the pristine
  // baseline for digest sharing.
  platform_.memory().stamp_baseline();
  for (int c = 0; c < platform_.num_cores(); ++c) {
    platform_.core(c).add_world_listener(this);
  }
  platform_.gic().set_nonsecure_handler([this](hw::CoreId core, hw::IrqId irq) {
    if (irq == hw::IrqId::kNonSecurePhysTimer) on_tick(core);
  });
  // Threads registered before boot become runnable now.
  for (auto& t : threads_) {
    if (t->state() == ThreadState::kNew) enqueue_thread(t.get());
  }
  for (int c = 0; c < platform_.num_cores(); ++c) {
    if (cpu(c).current == nullptr) dispatch(c);
    if (!config_.nohz_idle && !cpu(c).tick_active) program_tick(c);
  }
}

Thread* RichOs::add_thread(std::unique_ptr<Thread> thread) {
  Thread* t = thread.get();
  t->tid_ = next_tid_++;
  threads_.push_back(std::move(thread));
  if (booted_) enqueue_thread(t);
  return t;
}

int RichOs::add_tick_hook(TickHook hook) {
  // A hooked tick does more than keep books: every tick goes back to the
  // queue.
  for (int c = 0; c < platform_.num_cores(); ++c) {
    platform_.timer().hand_back_nonsecure(c);
  }
  const int id = next_hook_id_++;
  tick_hooks_.emplace_back(id, std::move(hook));
  return id;
}

void RichOs::remove_tick_hook(int id) {
  std::erase_if(tick_hooks_, [id](const auto& p) { return p.first == id; });
}

std::uint64_t RichOs::syscall_handler_address(int nr) const {
  const std::size_t off = image_->syscall_entry_offset(nr);
  const hw::Memory& mem =
      const_cast<hw::Platform&>(platform_).memory();
  std::uint64_t value = 0;
  for (int b = 7; b >= 0; --b) {
    value = (value << 8) | mem.read(off + static_cast<std::size_t>(b));
  }
  return value;
}

sim::Duration RichOs::idle_time(hw::CoreId core) const {
  const CpuState& st = cpu(core);
  sim::Duration total = st.idle_total;
  if (st.idle_accounting) {
    total += platform_.engine().now() - st.idle_since;
  }
  return total;
}

int RichOs::runnable_count(hw::CoreId core) const {
  const CpuState& st = cpu(core);
  return static_cast<int>(st.queue.size()) + (st.current != nullptr ? 1 : 0);
}

Thread* RichOs::running_thread(hw::CoreId core) const {
  return cpu(core).current;
}

// ---------------------------------------------------------------------------
// Wake path

void RichOs::enqueue_thread(Thread* thread) {
  const hw::CoreId core = choose_core(*thread);
  hand_back(core);
  thread->current_core_ = core;
  thread->state_ = ThreadState::kRunnable;
  thread->ran_in_slice_ = sim::Duration::zero();
  CpuState& st = cpu(core);
  if (thread->policy() == SchedPolicy::kCfs) {
    // Sleeper fairness: a waking thread may run soon, but not monopolize —
    // clamp its vruntime to a bounded bonus below the core's minimum.
    double ref = st.queue.min_cfs_vruntime();
    if (st.current != nullptr && st.current->policy() == SchedPolicy::kCfs) {
      ref = std::min(ref, st.current->vruntime_s_);
    }
    if (ref != std::numeric_limits<double>::infinity()) {
      thread->vruntime_s_ = std::max(thread->vruntime_s_,
                                     ref - config_.sleeper_bonus_cap_s);
    }
  }
  st.queue.enqueue(thread, enqueue_counter_++);
  if (st.frozen) return;  // the core is in the secure world; wait for exit
  if (st.current == nullptr) {
    dispatch(core);
  } else {
    maybe_preempt_for(core, *thread);
  }
}

hw::CoreId RichOs::choose_core(const Thread& thread) const {
  if (thread.pinned_core()) return *thread.pinned_core();
  hw::CoreId best = 0;
  int best_score = std::numeric_limits<int>::max();
  for (int c = 0; c < platform_.num_cores(); ++c) {
    const CpuState& st = cpu(c);
    int score = static_cast<int>(st.queue.size()) * 2 +
                (st.current != nullptr ? 2 : 0) + (st.frozen ? 1 : 0);
    if (c == thread.current_core()) score -= 1;  // cache affinity
    if (score < best_score) {
      best_score = score;
      best = c;
    }
  }
  return best;
}

void RichOs::maybe_preempt_for(hw::CoreId core, Thread& wakee) {
  CpuState& st = cpu(core);
  Thread* cur = st.current;
  if (cur == nullptr) return;
  if (RunQueue::rt_preempts(wakee, *cur)) {
    preempt_current(core);
    dispatch(core);
    return;
  }
  if (wakee.policy() == SchedPolicy::kCfs &&
      cur->policy() == SchedPolicy::kCfs) {
    account_current(core);
    if (wakee.vruntime_s_ + config_.wakeup_granularity_s < cur->vruntime_s_) {
      preempt_current(core);
      dispatch(core);
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch and actions

void RichOs::dispatch(hw::CoreId core) {
  CpuState& st = cpu(core);
  if (st.frozen || st.current != nullptr) return;
  Thread* next = st.queue.pop();
  if (next == nullptr) {
    mark_idle(core, true);
    return;
  }
  mark_idle(core, false);
  if (!st.tick_active) program_tick(core);
  next->state_ = ThreadState::kRunning;
  next->current_core_ = core;
  st.current = next;
  st.slice_start = platform_.engine().now();
  begin_next_action(core);
}

void RichOs::begin_next_action(hw::CoreId core) {
  CpuState& st = cpu(core);
  Thread* t = st.current;
  sim::Engine& engine = platform_.engine();
  if (t == nullptr) {
    broken_invariant("begin_next_action with no running thread", core,
                     "last thread", st.last_thread, engine.now());
  }

  if (t->remaining_compute_ > sim::Duration::zero()) {
    // Resuming a preempted/frozen compute; the context-switch tax applies
    // when a different thread ran in between.
    open_compute(core, t, t->remaining_compute_);
    schedule_completion(core);
    return;
  }
  // A loop's next compute is where its core (re)joins the fast path. A
  // loop never sleeps, so placement never runs for it and no pinning is
  // needed.
  if (t->cycle_loops() && fast_path_open(core) && !t->cycle_diverted()) {
    arm_keyed(core, begin_cycle_step(core, t));
    return;
  }

  OsContext ctx{*this, engine.now(), core};
  Action action = t->next_action(ctx);

  if (auto* compute = std::get_if<ComputeAction>(&action)) {
    sim::Duration total = compute->duration;
    if (total <= sim::Duration::zero()) total = sim::Duration::from_ps(1);
    t->pending_on_complete_ = std::move(compute->on_complete);
    open_compute(core, t, total);
    schedule_completion(core);
    return;
  }
  st.last_thread = t;

  if (auto* sleep_for = std::get_if<SleepForAction>(&action)) {
    arm_keyed(core,
              sleep_thread(core, t, engine.now() + sleep_for->duration));
    return;
  }
  if (auto* sleep_until = std::get_if<SleepUntilAction>(&action)) {
    arm_keyed(core, sleep_thread(core, t,
                                 sleep_until->until > engine.now()
                                     ? sleep_until->until
                                     : engine.now()));
    return;
  }
  if (std::get_if<YieldAction>(&action) != nullptr) {
    account_current(core);
    t->state_ = ThreadState::kRunnable;
    st.current = nullptr;
    st.queue.enqueue(t, enqueue_counter_++);
    dispatch(core);
    return;
  }
  // ExitAction
  account_current(core);
  t->state_ = ThreadState::kExited;
  st.current = nullptr;
  dispatch(core);
}

[[gnu::always_inline]] inline RichOs::Pending RichOs::sleep_thread(
    hw::CoreId core, Thread* t, sim::Time wake) {
  CpuState& st = cpus_[static_cast<std::size_t>(core)];
  t->state_ = ThreadState::kSleeping;
  st.current = nullptr;
  if (can_fast_forward(core, *t)) {
    // A clean sleep: the core (re)joins the fast path. With nothing
    // queued, dispatch() would only mark the core idle.
    st.sleeper = t;
    st.keyed = CpuState::Keyed::kWake;
    mark_idle(core, true);
    return wake;
  }
  sleep_on_queue(core, t, wake);
  return sim::Engine::kNoKey;
}

void RichOs::sleep_on_queue(hw::CoreId core, Thread* t, sim::Time wake) {
  platform_.engine().schedule_at(wake, [this, t] { wake_thread(t); });
  dispatch(core);
}

void RichOs::wake_thread(Thread* t) {
  if (t->state_ == ThreadState::kSleeping) enqueue_thread(t);
}

// `duration` becomes the thread's remaining compute; the core is busy for
// it plus the context-switch tax when another thread ran last.
inline void RichOs::open_compute(hw::CoreId core, Thread* t,
                                 sim::Duration duration) {
  CpuState& st = cpus_[static_cast<std::size_t>(core)];
  t->remaining_compute_ = duration;
  if (st.last_thread != t) {
    duration += config_.context_switch_cost;
    SATIN_METRIC_INC("os.context_switches");
  }
  st.last_thread = t;
  st.action_end = platform_.engine().now() + duration;
}

void RichOs::schedule_completion(hw::CoreId core) {
  CpuState& st = cpu(core);
  st.completion = platform_.engine().schedule_at(
      st.action_end, [this, core] { finish_compute(core); });
}

void RichOs::finish_compute(hw::CoreId core) {
  CpuState& st = cpu(core);
  Thread* t = st.current;
  if (t == nullptr) {
    broken_invariant("compute completion fired with no running thread", core,
                     "last thread", st.last_thread, platform_.engine().now());
  }
  account_current(core);
  t->remaining_compute_ = sim::Duration::zero();
  auto cb = std::move(t->pending_on_complete_);
  t->pending_on_complete_ = nullptr;
  if (cb) {
    OsContext ctx{*this, platform_.engine().now(), core};
    cb(ctx);
  }
  // The callback may have woken an RT thread that preempted `t`; only
  // continue with `t` if it still owns this core.
  if (st.current == t) begin_next_action(core);
}

void RichOs::preempt_current(hw::CoreId core) {
  hand_back(core);
  CpuState& st = cpu(core);
  Thread* t = st.current;
  if (t == nullptr) {
    broken_invariant("preempt_current with no running thread", core,
                     "last thread", st.last_thread, platform_.engine().now());
  }
  account_current(core);
  if (st.completion.pending()) {
    st.completion.cancel();
    const sim::Time now = platform_.engine().now();
    t->remaining_compute_ =
        st.action_end > now ? st.action_end - now : sim::Duration::from_ps(1);
  }
  t->state_ = ThreadState::kRunnable;
  st.current = nullptr;
  st.queue.enqueue(t, enqueue_counter_++);
}

void RichOs::account_current(hw::CoreId core) {
  CpuState& st = cpu(core);
  if (st.current == nullptr) return;
  account_slices(st, platform_.engine().now() - st.slice_start, 1);
}

// account_current() for `slices` back-to-back slices of `slice` each, the
// last ending now: the integer charges fold into one product, the CFS
// vruntime takes the bits of `slices` adds in order, as that many calls
// would leave (sim::repeated_add).
inline void RichOs::account_slices(CpuState& st, sim::Duration slice,
                                   std::uint64_t slices) {
  Thread* t = st.current;
  if (slice > sim::Duration::zero()) {
    t->cpu_time_ += slice * slices;
    t->ran_in_slice_ += slice * slices;
    if (t->policy() == SchedPolicy::kCfs) {
      t->vruntime_s_ = sim::repeated_add(t->vruntime_s_, slice.sec(), slices);
    }
  }
  st.slice_start = platform_.engine().now();
}

inline void RichOs::mark_idle(hw::CoreId core, bool idle) {
  CpuState& st = cpus_[static_cast<std::size_t>(core)];
  const sim::Time now = platform_.engine().now();
  if (idle && !st.idle_accounting) {
    st.idle_accounting = true;
    st.idle_since = now;
  } else if (!idle && st.idle_accounting) {
    st.idle_accounting = false;
    st.idle_total += now - st.idle_since;
  }
}

// ---------------------------------------------------------------------------
// Tick

void RichOs::program_tick(hw::CoreId core) {
  CpuState& st = cpu(core);
  st.tick_active = true;
  platform_.timer().program_nonsecure(
      core, platform_.engine().now() + tick_period_, tick_keeps_books(core));
}

void RichOs::on_tick(hw::CoreId core) {
  CpuState& st = cpu(core);
  SATIN_FLIGHT_RECORD(obs::FlightKind::kTick, platform_.engine().now(), 0,
                      core, 0);
  SATIN_METRIC_INC("os.ticks");
  if (st.frozen) {
    // A tick pended across a secure stay lands here before our own
    // on_secure_exit runs (listener order); the exit path re-programs.
    st.tick_active = false;
    return;
  }
  // Timer-interrupt handler body: hijacked hooks first (KProber-I runs its
  // Time Reporter/Comparer before resuming the normal handler, §III-C1).
  if (!tick_hooks_.empty()) {
    auto hooks = tick_hooks_;  // hooks may unregister themselves
    const sim::Time now = platform_.engine().now();
    for (auto& [id, hook] : hooks) hook(core, now);
  }
  account_current(core);
  Thread* cur = st.current;
  if (cur != nullptr && cur->policy() == SchedPolicy::kCfs &&
      cur->ran_in_slice_ >= config_.cfs_quantum && st.queue.has_cfs() &&
      st.queue.min_cfs_vruntime() <= cur->vruntime_s_) {
    preempt_current(core);
    dispatch(core);
  }
  const bool idle = st.current == nullptr && st.queue.empty();
  if (idle && config_.nohz_idle) {
    st.tick_active = false;  // NO_HZ_IDLE: tick stops on the idle core
    return;
  }
  program_tick(core);
}

// ---------------------------------------------------------------------------
// Secure-world freeze (the availability side channel)

void RichOs::on_secure_entry(hw::CoreId core, sim::Time) {
  hand_back(core);
  CpuState& st = cpu(core);
  st.frozen = true;
  if (st.current != nullptr) {
    account_current(core);
    if (!st.completion.pending()) {
      broken_invariant("secure entry froze a thread with no pending compute",
                       core, "thread", st.current, platform_.engine().now());
    }
    st.completion.cancel();
    const sim::Time now = platform_.engine().now();
    st.current->remaining_compute_ =
        st.action_end > now ? st.action_end - now : sim::Duration::from_ps(1);
  } else {
    // The core was OS-idle; pause idle accounting while the secure world
    // owns it.
    mark_idle(core, false);
  }
}

void RichOs::on_secure_exit(hw::CoreId core, sim::Time) {
  hand_back(core);
  CpuState& st = cpu(core);
  st.frozen = false;
  if (st.current != nullptr) {
    st.slice_start = platform_.engine().now();
    st.action_end = st.slice_start + st.current->remaining_compute_;
    schedule_completion(core);
    // An RT thread woken during the freeze outranks the resumed thread.
    Thread* waiting = st.queue.peek();
    if (waiting != nullptr && RunQueue::rt_preempts(*waiting, *st.current)) {
      preempt_current(core);
      dispatch(core);
    }
  } else {
    dispatch(core);
  }
  const bool busy = st.current != nullptr || !st.queue.empty();
  if ((busy || !config_.nohz_idle) && !st.tick_active) program_tick(core);
}

// ---------------------------------------------------------------------------
// Cycle fast path (DESIGN.md §19)
//
// A core whose only thread declares a duty cycle or a loop runs the
// cycle's wake-ups and completions as keyed engine actions: each carries
// the (when, seq) key the event path's schedule_at() would have given its
// event, and does exactly that event's state updates in place. Any
// event-path entry that touches the core hands the pending action back to
// the queue under the same key first. A duty-cycle core rejoins at its
// next clean sleep, a loop core at its next compute.

inline bool RichOs::fast_path_open(hw::CoreId core) const {
  const CpuState& st = cpus_[static_cast<std::size_t>(core)];
  return config_.cycle_path == CyclePath::kFastForward && st.queue.empty() &&
         !st.frozen;
}

inline bool RichOs::can_fast_forward(hw::CoreId core, const Thread& t) const {
  return t.cycle_.has_value() && t.pinned_ == core && fast_path_open(core);
}

bool RichOs::tick_keeps_books(hw::CoreId core) const {
  const Thread* t = cpu(core).current;
  const hw::Core& hw_core = platform_.core(core);
  return fast_path_open(core) && tick_hooks_.empty() && t != nullptr &&
         t->cycle_loops() && hw_core.online() && !hw_core.in_secure_world();
}

inline void RichOs::arm_keyed(hw::CoreId core, Pending when) {
  if (when == sim::Engine::kNoKey) return;
  sim::Engine& engine = platform_.engine();
  engine.arm(cpu(core).keyed_slot, {when, engine.reserve_seq()});
}

void RichOs::hand_back(hw::CoreId core) {
  platform_.timer().hand_back_nonsecure(core);
  CpuState& st = cpu(core);
  if (st.keyed == CpuState::Keyed::kNone) return;
  sim::Engine& engine = platform_.engine();
  const sim::Engine::Key key = engine.disarm(st.keyed_slot);
  if (st.keyed == CpuState::Keyed::kWake) {
    Thread* t = st.sleeper;
    st.sleeper = nullptr;
    engine.schedule_keyed(key, [this, t] { wake_thread(t); });
  } else {
    // What begin_next_action would have left for finish_compute, after a
    // duty-cycle or a loop compute alike.
    st.current->pending_on_complete_ = st.current->cycle_round_callback();
    st.completion =
        engine.schedule_keyed(key, [this, core] { finish_compute(core); });
  }
  st.keyed = CpuState::Keyed::kNone;
}

void RichOs::run_keyed_action(std::uint32_t tag) {
  const auto core = static_cast<hw::CoreId>(tag);
  arm_keyed(core, run_keyed_step(core, 1));
  run_in_place(core);
}

[[gnu::always_inline]] inline RichOs::Pending RichOs::run_keyed_step(
    hw::CoreId core, std::uint64_t rounds) {
  return cpus_[static_cast<std::size_t>(core)].keyed ==
                 CpuState::Keyed::kWake
             ? fast_wake(core)
             : fast_complete(core, rounds);
}

[[gnu::always_inline]] inline RichOs::Pending RichOs::fast_wake(
    hw::CoreId core) {
  CpuState& st = cpus_[static_cast<std::size_t>(core)];
  Thread* t = st.sleeper;
  st.sleeper = nullptr;
  st.keyed = CpuState::Keyed::kNone;
  if (t->pinned_ != core) {
    // Re-pinned while asleep: the event path's wake-up, at the same
    // position, places it.
    wake_thread(t);
    return sim::Engine::kNoKey;
  }
  // enqueue_thread() then dispatch() on the idle core: the thread would be
  // queued and popped at once. The rest of the eligibility found at the
  // sleep still holds, and the core has idled since: while a key is
  // armed, only hand_back() queues a thread on the core or freezes it, and
  // it takes the key back first. A waking CFS thread's vruntime clamp has
  // no reference here, with nothing queued or running.
  const sim::Time now = platform_.engine().now();
  t->current_core_ = core;
  t->ran_in_slice_ = sim::Duration::zero();
  t->enqueue_seq_ = enqueue_counter_++;
  st.idle_accounting = false;
  st.idle_total += now - st.idle_since;
  t->state_ = ThreadState::kRunning;
  st.current = t;
  st.slice_start = now;
  if (!st.tick_active) program_tick(core);
  return begin_cycle_step(core, t);
}

// finish_compute() for `rounds` back-to-back computes of the core's cycle,
// the last ending now, with the round called directly. The slices fold:
// the first began at slice_start (an in-place tick may have moved it into
// that compute), the rest are a period each.
[[gnu::always_inline]] inline RichOs::Pending RichOs::fast_complete(
    hw::CoreId core, std::uint64_t rounds) {
  CpuState& st = cpus_[static_cast<std::size_t>(core)];
  st.keyed = CpuState::Keyed::kNone;
  Thread* t = st.current;
  if (t == nullptr) {
    broken_invariant("compute completion fired with no running thread", core,
                     "last thread", st.last_thread, platform_.engine().now());
  }
  const sim::Time now = platform_.engine().now();
  if (rounds == 1) {
    account_slices(st, now - st.slice_start, 1);
  } else {
    const sim::Duration period = t->cycle_->compute;
    account_slices(st, now - st.slice_start - period * (rounds - 1), 1);
    account_slices(st, period, rounds - 1);
  }
  t->remaining_compute_ = sim::Duration::zero();
  OsContext ctx{*this, now, core};
  t->cycle_round(ctx, rounds);
  if (st.current != t) return sim::Engine::kNoKey;
  // A duty cycle sleeps next. A loop computes next, on this path only
  // while the core stays eligible: begin_next_action()'s loop step, with
  // nothing left to resume.
  if (!t->cycle_loops() || (fast_path_open(core) && !t->cycle_diverted())) {
    return begin_cycle_step(core, t);
  }
  begin_next_action(core);
  return sim::Engine::kNoKey;
}

// Every keyed action that dispatch would run next, up to the engine's
// in-place horizon, runs in place in the engine's order: every core's
// wake-ups and completions, tied or not, and each keyed tick that keeps
// books and that the GIC would deliver at once. A wake-up or a duty
// cycle's completion leaves its next key to the engine, which re-arms the
// slot with the seq arm() would reserve; the dispatched core's loop, if it
// runs one, completes in batches. Whatever changes a core's eligibility
// enters through hand_back(), which takes its key out of the run.
void RichOs::run_in_place(hw::CoreId core) {
  CpuState& st = cpu(core);
  hw::GenericTimer& timer = platform_.timer();
  joined_.clear();
  for (int c = 0; c < platform_.num_cores(); ++c) {
    if (c != core && cpu(c).keyed != CpuState::Keyed::kNone) {
      joined_.push_back(cpu(c).keyed_slot);
    }
    if (timer.nonsecure_keyed(c) && tick_keeps_books(c)) {
      joined_.push_back(timer.nonsecure_slot(c));
    }
  }
  Thread* t = st.current;
  const bool loops = st.keyed == CpuState::Keyed::kCompletion &&
                     t->cycle_loops();
  const std::uint64_t done = platform_.engine().complete_in_place(
      st.keyed_slot, loops ? t->cycle_->compute : sim::Duration::zero(),
      // Where begin_next_action() would arm the loop's next iteration a
      // period on, with no context-switch tax.
      [this, core, t, &st] {
        return st.keyed == CpuState::Keyed::kCompletion && st.current == t &&
               fast_path_open(core) && !t->cycle_diverted() &&
               !t->cycle_parked();
      },
      [this, &timer](std::uint32_t slot, std::uint64_t rounds) -> Pending {
        const std::int32_t owner = slot_core_[slot];
        if ((owner & kTickSlot) == 0) return run_keyed_step(owner, rounds);
        // The queued tick's expiry, the GIC's delivery to a core in the
        // normal world, and on_tick(), which re-arms it.
        const hw::CoreId c = owner & ~kTickSlot;
        timer.expire_nonsecure_in_place(c);
        on_tick(c);
        return sim::Engine::kNoKey;
      },
      joined_);
  // A run that ran nothing (the core's next key comes after a foreign
  // one) leaves its tick to the queue, where it costs other dispatches
  // nothing; on_tick() keys the next one again.
  if (done == 0) timer.hand_back_nonsecure(core);
}

// begin_next_action() for a cycle thread with nothing left to resume,
// taking the step straight from the declaration cycle_action() reads. A
// compute step is reached only on a core found eligible: by fast_wake()
// for a duty cycle, by begin_next_action() for a loop.
[[gnu::always_inline]] inline RichOs::Pending RichOs::begin_cycle_step(
    hw::CoreId core, Thread* t) {
  CpuState& st = cpus_[static_cast<std::size_t>(core)];
  const Thread::CycleStep step = t->next_cycle_step();
  if (!step.compute) {
    st.last_thread = t;
    return sleep_thread(core, t, platform_.engine().now() + step.duration);
  }
  open_compute(core, t, step.duration);
  st.keyed = CpuState::Keyed::kCompletion;
  return st.action_end;
}

}  // namespace satin::os
