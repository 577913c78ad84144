// Cooperative cancellation for the whole HDF flow.
//
// Long-running engines (fault simulation, ATPG, the set-cover search,
// STA) poll one process-wide CancelToken at their existing loop
// boundaries.  Polling costs a single relaxed atomic load, so the
// checks can live in hot paths permanently — the same discipline the
// tracer uses for disabled spans.
//
// Cancellation sources:
//   * a wall-clock deadline, armed from FASTMON_DEADLINE=<seconds> (a
//     watchdog thread sleeps until the deadline and sets the flag);
//   * SIGINT/SIGTERM, once install_signal_handlers() ran (benches and
//     examples call it; a second signal force-exits);
//   * tests and the fault-injection harness via cancel(CancelCause).
//
// Cancellation is a *request*: engines stop at the next safe boundary
// and return the work finished so far, and HdfFlow turns that into a
// degraded-but-valid result with an honest status block.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace fastmon {

enum class CancelCause : std::uint8_t {
    None = 0,
    Deadline,  ///< FASTMON_DEADLINE elapsed
    Signal,    ///< SIGINT or SIGTERM
    Test,      ///< requested programmatically (tests, fault injection)
};

/// Human-readable cause ("none", "deadline", "signal", "test").
[[nodiscard]] const char* cancel_cause_name(CancelCause cause);

/// Thrown by engines that cannot produce a partial result when they
/// observe a cancellation request (e.g. STA mid-pass).  Derives from
/// std::runtime_error so untouched call sites keep compiling.
class CancelledError : public std::runtime_error {
public:
    explicit CancelledError(CancelCause cause);
    [[nodiscard]] CancelCause cause() const { return cause_; }

private:
    CancelCause cause_;
};

class CancelToken {
public:
    /// Process-wide token; reads $FASTMON_DEADLINE on first access and
    /// arms the deadline watchdog when set.
    static CancelToken& global();

    /// One relaxed atomic load; safe (and intended) for hot loops.
    [[nodiscard]] bool cancelled() const {
        return cancelled_.load(std::memory_order_relaxed);
    }

    /// First cause wins; later requests keep the original cause.
    void cancel(CancelCause cause);

    [[nodiscard]] CancelCause cause() const {
        return static_cast<CancelCause>(
            cause_.load(std::memory_order_relaxed));
    }

    /// Throws CancelledError when a cancellation was requested.
    void throw_if_cancelled() const {
        if (cancelled()) throw CancelledError(cause());
    }

    /// Arms (or re-arms) the deadline watchdog `seconds` from now.
    /// A non-positive value disarms the pending deadline.
    void arm_deadline(double seconds);

    /// Seconds until the armed deadline fires (<= 0: none pending).
    [[nodiscard]] double deadline_remaining() const;

    /// True while a deadline is armed (fired or not).
    [[nodiscard]] bool deadline_armed() const;

    /// Installs SIGINT/SIGTERM handlers that request cancellation (the
    /// handler only stores to lock-free atomics).  A second signal
    /// force-exits with the conventional 128+signo status.  Idempotent.
    void install_signal_handlers();

    /// Clears the flag, cause, and pending deadline.  Tests only — a
    /// production run that was cancelled stays cancelled.
    void reset();

private:
    CancelToken() = default;
    ~CancelToken() = default;
    CancelToken(const CancelToken&) = delete;
    CancelToken& operator=(const CancelToken&) = delete;

    std::atomic<bool> cancelled_{false};
    std::atomic<std::uint8_t> cause_{
        static_cast<std::uint8_t>(CancelCause::None)};
    /// steady_clock deadline in ns since epoch; 0 = disarmed.
    std::atomic<std::uint64_t> deadline_ns_{0};
};

}  // namespace fastmon
