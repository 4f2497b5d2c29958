#include "nanocost/robust/admission.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "nanocost/exec/parallel.hpp"
#include "nanocost/obs/metrics.hpp"

namespace nanocost::robust {

CampaignQueue::CampaignQueue(AdmissionOptions options) : options_(std::move(options)) {
  if (options_.capacity < 1) {
    throw std::invalid_argument("admission queue needs capacity >= 1");
  }
  // stop() must work before the first drain and must never touch the
  // caller's token, so the governing root is a child (or an independent
  // manual root) created up front.
  stop_root_ = options_.cancel.valid() ? options_.cancel.child() : CancelToken::manual();
  governed_ = stop_root_;
}

Submission CampaignQueue::submit(const CampaignTask& task, CampaignOptions options) {
  std::lock_guard<std::mutex> lk(mu_);
  if (closed_) {
    throw std::logic_error("admission queue already drained; submissions are closed");
  }
  Submission verdict;
  verdict.slot = slots_++;
  if (stop_requested_) {
    verdict.status = SubmissionStatus::kStopped;
    verdict.message = "stopped: the queue is shutting down; submission rejected";
  } else if (options_.policy == ShedPolicy::kRejectNewest &&
             outstanding_locked() >= options_.capacity) {
    // Deterministic: admission depends only on the submission order and
    // on which earlier campaigns have drained, never on timing inside
    // a campaign.
    verdict.status = SubmissionStatus::kShed;
    verdict.message = "shed: queue at capacity (" + std::to_string(options_.capacity) +
                      "); resubmit when the queue drains";
    if (obs::metrics_enabled()) {
      static obs::Counter& shed = obs::counter("robust.shed");
      shed.add();
    }
  } else {
    pending_.push_back(Admitted{&task, std::move(options), verdict.slot});
    return verdict;
  }
  ++counts_[static_cast<std::size_t>(verdict.status)];
  verdicts_.push_back(verdict);
  return verdict;
}

std::size_t CampaignQueue::drain(const CompletionFn& on_complete) {
  std::unique_lock<std::mutex> lk(mu_);
  // Concurrent drains serialize: the second caller waits, then picks up
  // whatever was submitted meanwhile.
  drain_done_.wait(lk, [&] { return !draining_; });
  draining_ = true;
  if (!budget_armed_) {
    budget_armed_ = true;
    if (options_.total_budget_ms > 0.0) {
      governed_ = stop_root_.child_with_deadline(options_.total_budget_ms);
    }
  }

  if (obs::metrics_enabled()) {
    static obs::Gauge& depth = obs::gauge("robust.queue_depth");
    depth.set(static_cast<double>(outstanding_locked()));
  }

  // Submit-time verdicts are kept only for run(); a drain() caller has
  // them from submit() already.
  verdicts_.clear();
  std::size_t delivered = 0;
  while (!pending_.empty()) {
    Admitted a = std::move(pending_.front());
    pending_.pop_front();
    SubmissionOutcome outcome;
    if (stop_requested_) {
      outcome.status = SubmissionStatus::kStopped;
      outcome.message = "stopped: the queue was stopped before this campaign started; resumable";
    } else if (governed_.expired()) {
      outcome.status = SubmissionStatus::kExpired;
      outcome.message = "expired: queue budget exhausted before this campaign started";
      if (obs::metrics_enabled()) {
        static obs::Counter& expired = obs::counter("robust.expired");
        expired.add();
      }
    } else {
      running_ = true;
      CampaignOptions run_options = std::move(a.options);
      run_options.cancel = governed_.child();
      // kDegradeBudgets: oversubscription at the moment a campaign
      // starts shrinks its chunk budget by capacity / outstanding -- a
      // pure function of the submission/completion sequence, so
      // degradation is reproducible, and a campaign that ends up
      // running alone keeps its full budget (a long-lived server only
      // degrades under actual load, not because load existed earlier).
      const std::size_t pickup_outstanding = outstanding_locked();
      if (options_.policy == ShedPolicy::kDegradeBudgets &&
          pickup_outstanding > options_.capacity) {
        const std::int64_t total =
            exec::chunk_count(a.task->unit_count(), a.task->grain());
        const std::int64_t share = std::max<std::int64_t>(
            1, total * static_cast<std::int64_t>(options_.capacity) /
                   static_cast<std::int64_t>(pickup_outstanding));
        run_options.max_chunks_this_run =
            run_options.max_chunks_this_run > 0
                ? std::min(run_options.max_chunks_this_run, share)
                : share;
      }
      lk.unlock();
      outcome.result = run_campaign(*a.task, run_options);
      lk.lock();
      running_ = false;
      if (outcome.result.expired) {
        if (stop_requested_) {
          outcome.status = SubmissionStatus::kStopped;
          outcome.message = "stopped: the queue was stopped mid-run; checkpointed, resumable";
        } else {
          outcome.status = SubmissionStatus::kExpired;
          outcome.message = "expired: the queue deadline tripped mid-run; resumable";
        }
      } else if (outcome.result.completeness() < 1.0 || outcome.result.interrupted) {
        outcome.status = SubmissionStatus::kPartial;
      } else {
        outcome.status = SubmissionStatus::kCompleted;
      }
    }
    ++counts_[static_cast<std::size_t>(outcome.status)];
    // Deliver with no lock held -- the callback may submit, stop, or
    // block on I/O without deadlocking the queue -- and keep nothing.
    lk.unlock();
    on_complete(a.slot, std::move(outcome));
    ++delivered;
    lk.lock();
    verdicts_.clear();
  }

  draining_ = false;
  lk.unlock();
  drain_done_.notify_all();
  return delivered;
}

const std::vector<SubmissionOutcome>& CampaignQueue::run() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    closed_ = true;
    batch_.resize(slots_);
    for (Submission& v : verdicts_) {
      batch_[v.slot].status = v.status;
      batch_[v.slot].message = std::move(v.message);
    }
    verdicts_.clear();
  }
  (void)drain([this](std::size_t slot, SubmissionOutcome&& outcome) {
    batch_[slot] = std::move(outcome);
  });
  return batch_;
}

void CampaignQueue::stop() noexcept {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_requested_ = true;
  }
  stop_root_.cancel();
}

bool CampaignQueue::stop_requested() const noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  return stop_requested_;
}

std::size_t CampaignQueue::outstanding() const noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  return outstanding_locked();
}

std::size_t CampaignQueue::retained() const noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  return outstanding_locked() + verdicts_.size();
}

std::size_t CampaignQueue::count_status(SubmissionStatus status) const noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  return counts_[static_cast<std::size_t>(status)];
}

std::size_t CampaignQueue::shed_count() const noexcept {
  return count_status(SubmissionStatus::kShed);
}
std::size_t CampaignQueue::expired_count() const noexcept {
  return count_status(SubmissionStatus::kExpired);
}
std::size_t CampaignQueue::partial_count() const noexcept {
  return count_status(SubmissionStatus::kPartial);
}
std::size_t CampaignQueue::completed_count() const noexcept {
  return count_status(SubmissionStatus::kCompleted);
}
std::size_t CampaignQueue::stopped_count() const noexcept {
  return count_status(SubmissionStatus::kStopped);
}

}  // namespace nanocost::robust
