// Overload protection: a bounded admission queue over the campaign
// engine.
//
// A production engine serving heavy traffic cannot run every request to
// completion; it has to shed or shrink load *deterministically*, so two
// replicas given the same submission sequence degrade identically.  Two
// policies:
//
//  * kRejectNewest: the queue holds at most `capacity` outstanding
//    campaigns; a submission past capacity is shed at submit() with a
//    clear error message and never executed.  Admission depends only on
//    the submission order and on which earlier campaigns have drained.
//  * kDegradeBudgets: everything is admitted, but a campaign that
//    starts while the queue is oversubscribed has its per-run chunk
//    budget (max_chunks_this_run) scaled by capacity / outstanding at
//    that moment, so the backlog drains in roughly the time `capacity`
//    full campaigns would -- each result partial-but-resumable instead
//    of a tail of rejects, and a campaign running alone keeps its full
//    budget.
//
// The whole queue drains under one optional wall-clock budget
// (total_budget_ms, measured from the first drain) and/or an external
// CancelToken; each campaign runs under a child token, so one slow
// campaign cannot eat the budget of the ones behind it silently -- they
// come back kExpired, resumable.
//
// Two usage shapes share this class:
//  * batch (the original API): submit() everything, then run() once --
//    run() closes submissions, drains, and returns every outcome
//    indexed by slot.
//  * long-lived (the serve daemon): submit() and drain() interleave
//    from different threads; stop() trips the queue's own token so a
//    shutdown path gets a final outcome for every admitted campaign
//    (kStopped for the ones that never started) without having to own
//    an external CancelToken.
//
// An outcome lives in the queue only until it is delivered.  A
// shed/stopped verdict is delivered by submit()'s return value; a
// drained campaign's outcome is moved into drain()'s callback (or, in
// batch use, into run()'s vector).  A long-lived queue therefore holds
// state for its outstanding campaigns only (retained()), however many
// it has served; the status counts are plain counters.
#pragma once

#include <array>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "nanocost/robust/campaign.hpp"
#include "nanocost/robust/cancel.hpp"

namespace nanocost::robust {

/// What to do with work beyond `capacity`.
enum class ShedPolicy : std::uint8_t {
  kRejectNewest,    ///< shed at submit() with a clear error
  kDegradeBudgets,  ///< admit all, shrink per-campaign chunk budgets
};

struct AdmissionOptions final {
  /// Outstanding campaigns the queue is sized for; also the
  /// degrade-policy divisor.
  std::size_t capacity = 8;
  ShedPolicy policy = ShedPolicy::kRejectNewest;
  /// Wall-clock budget for draining the whole queue, ms; 0 = none.
  /// The clock starts at the first drain()/run().
  double total_budget_ms = 0.0;
  /// External kill switch (e.g. shutdown); combined with the budget via
  /// a child token.  Invalid = none.
  CancelToken cancel;
};

enum class SubmissionStatus : std::uint8_t {
  kQueued,     ///< admitted, not yet run
  kShed,       ///< rejected at submit() (kRejectNewest at capacity)
  kCompleted,  ///< ran to full completeness
  kPartial,    ///< ran, returned a partial result (budget/quarantine)
  kExpired,    ///< the queue deadline tripped before or during the run
  kStopped,    ///< stop() tripped before or during the run
};

struct SubmissionOutcome final {
  SubmissionStatus status = SubmissionStatus::kQueued;
  /// Populated for kCompleted/kPartial/kExpired-or-kStopped-during-run;
  /// default for kShed and for campaigns that never started.
  CampaignResult result;
  std::string message;  ///< shed/expired/stopped reason, empty otherwise
};

/// submit()'s verdict, returned to the submitter directly: admitted
/// (kQueued, the outcome follows from a drain) or rejected on the spot
/// (kShed / kStopped, with the reason).  A rejected slot never reaches
/// a drain callback.
struct Submission final {
  std::size_t slot = 0;
  SubmissionStatus status = SubmissionStatus::kQueued;
  std::string message;  ///< rejection reason, empty when admitted

  [[nodiscard]] bool admitted() const noexcept { return status == SubmissionStatus::kQueued; }
  /// Reads as its slot index, so a batch caller that only indexes
  /// run()'s outcomes can keep treating submit() as returning one.
  operator std::size_t() const noexcept { return slot; }
};

/// Bounded FIFO of campaigns with deterministic load shedding.
/// submit(), drain(), and stop() may be called from different threads
/// (the serve daemon's readers submit while its runner drains); the
/// parallelism *within* each campaign still lives in the campaign.
class CampaignQueue final {
 public:
  explicit CampaignQueue(AdmissionOptions options);

  /// Admits (or sheds) `task` and returns the verdict with its slot
  /// index.  `task` must outlive the drain that runs it.  Under
  /// kRejectNewest a full queue sheds the submission immediately:
  /// status kShed, message naming the capacity.  After stop() every
  /// submission comes back kStopped; after run() submissions throw (the
  /// batch API closes the queue).  `options.cancel` and
  /// `options.max_chunks_this_run` may be overridden at drain time
  /// (child deadline token, degraded budget); everything else passes
  /// through.
  Submission submit(const CampaignTask& task, CampaignOptions options = {});

  /// Runs every admitted-but-not-yet-run campaign in submission order,
  /// moving each outcome into `on_complete` -- invoked with no internal
  /// lock held, so it may submit, stop, or block on I/O -- and then
  /// forgetting it.  Submissions arriving mid-cycle run in the same
  /// cycle.  Returns the number of outcomes delivered; a drain that
  /// finds nothing pending returns 0 immediately.  Concurrent drains
  /// serialize.  Also retires the submit-time verdicts kept for run():
  /// a long-lived caller already has them from submit().
  using CompletionFn = std::function<void(std::size_t, SubmissionOutcome&&)>;
  std::size_t drain(const CompletionFn& on_complete);

  /// Batch spelling: closes submissions, drains, and returns every
  /// outcome indexed by slot (shed/stopped verdicts included).  Slots a
  /// drain() callback already received stay default.  Idempotent.
  const std::vector<SubmissionOutcome>& run();

  /// Trips the queue's own stop token: the running campaign (if any)
  /// stops at its next chunk boundary and comes back kStopped with a
  /// resumable partial result; campaigns that never started drain as
  /// kStopped without running; later submissions are rejected as
  /// kStopped.  Thread-safe, idempotent.
  void stop() noexcept;
  [[nodiscard]] bool stop_requested() const noexcept;

  /// Admitted campaigns not yet finished (queued + running).
  [[nodiscard]] std::size_t outstanding() const noexcept;
  /// Per-slot records the queue holds: outstanding campaigns plus the
  /// submit-time verdicts kept for run() until the next drain.
  [[nodiscard]] std::size_t retained() const noexcept;

  /// Slots that reached each status so far (submit-time verdicts
  /// included).
  [[nodiscard]] std::size_t shed_count() const noexcept;
  [[nodiscard]] std::size_t expired_count() const noexcept;
  [[nodiscard]] std::size_t partial_count() const noexcept;
  [[nodiscard]] std::size_t completed_count() const noexcept;
  [[nodiscard]] std::size_t stopped_count() const noexcept;

 private:
  struct Admitted {
    const CampaignTask* task = nullptr;
    CampaignOptions options;
    std::size_t slot = 0;
  };

  [[nodiscard]] std::size_t outstanding_locked() const noexcept {
    return pending_.size() + (running_ ? 1 : 0);
  }
  std::size_t count_status(SubmissionStatus status) const noexcept;

  AdmissionOptions options_;
  /// Child of the external token (or an independent root): stop()
  /// cancels it without touching the caller's token; the budget chain
  /// and every per-campaign token hang off it.
  CancelToken stop_root_;
  mutable std::mutex mu_;
  std::condition_variable drain_done_;
  std::deque<Admitted> pending_;       ///< admitted, not yet picked up
  std::vector<Submission> verdicts_;   ///< rejected at submit(), kept for run()
  std::vector<SubmissionOutcome> batch_;  ///< run()'s result
  /// Slots per status, indexed by SubmissionStatus.
  std::array<std::size_t, static_cast<std::size_t>(SubmissionStatus::kStopped) + 1> counts_{};
  std::size_t slots_ = 0;     ///< slots handed out so far
  bool running_ = false;      ///< a campaign is executing right now
  bool draining_ = false;     ///< a drain cycle owns the queue
  bool closed_ = false;       ///< run() called; submissions throw
  bool stop_requested_ = false;
  bool budget_armed_ = false; ///< total_budget_ms chained (first drain)
  CancelToken governed_;      ///< stop_root_ (+ budget once armed)
};

}  // namespace nanocost::robust
