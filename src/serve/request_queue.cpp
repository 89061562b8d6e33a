#include "serve/request_queue.hpp"

#include <algorithm>
#include <iterator>
#include <thread>

#include "serve/recovery/fault_injector.hpp"
#include "util/check.hpp"

namespace ssma::serve {

const char* priority_name(Priority p) {
  switch (p) {
    case Priority::kHigh: return "high";
    case Priority::kNormal: return "normal";
    case Priority::kLow: return "low";
  }
  return "unknown";
}

const char* reject_reason_name(RejectReason r) {
  switch (r) {
    case RejectReason::kShutdown: return "shutdown";
    case RejectReason::kRateLimited: return "rate_limited";
    case RejectReason::kQueueFull: return "queue_full";
    case RejectReason::kDeadlineExpired: return "deadline_expired";
    case RejectReason::kUnknownModel: return "unknown_model";
    case RejectReason::kMalformed: return "malformed";
    case RejectReason::kReplicaNotReady: return "replica_not_ready";
    case RejectReason::kStaleFollower: return "stale_follower";
  }
  return "unknown";
}

RequestQueue::RequestQueue(std::size_t capacity) : capacity_(capacity) {
  SSMA_CHECK(capacity >= 1);
}

void RequestQueue::set_fault_injector(recovery::FaultInjector* fault) {
  std::lock_guard<std::mutex> lock(mu_);
  fault_ = fault;
}

bool RequestQueue::push(InferenceRequest&& req) {
  std::unique_lock<std::mutex> lock(mu_);
  if (fault_) {
    const recovery::FaultAction act =
        fault_->poll(recovery::FaultSite::kQueuePush);
    if (act.kind == recovery::FaultKind::kDelay) {
      lock.unlock();
      std::this_thread::sleep_for(act.delay);
      lock.lock();
    }
  }
  not_full_.wait(lock,
                 [&] { return closed_ || items_.size() < capacity_; });
  if (closed_) return false;
  items_.push_back(std::move(req));
  lock.unlock();
  not_empty_.notify_one();
  return true;
}

bool RequestQueue::try_push(InferenceRequest&& req) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(req));
  }
  not_empty_.notify_one();
  return true;
}

std::size_t RequestQueue::pop_compatible(
    std::size_t max_rows, const void* model_key, Clock::time_point now,
    Clock::time_point no_skip_enqueued_before,
    std::vector<InferenceRequest>* out,
    std::vector<InferenceRequest>* expired) {
  std::size_t taken = 0;
  std::size_t removed = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Single compacting pass: taken and expired requests leave the
    // deque, every other request slides down to `keep` in order.
    auto keep = items_.begin();
    auto it = items_.begin();
    for (; it != items_.end() && taken < max_rows; ++it) {
      if (model_key != nullptr && it->model.get() != model_key) {
        // Starvation guard: refuse to reach past another model's
        // request once it has aged beyond the caller's skip bound or
        // its SLO deadline has come. Without this, sustained hot-model
        // traffic keeps the scan hopping over a cold model's head
        // forever.
        if (it->enqueued_at <= no_skip_enqueued_before ||
            it->deadline <= now)
          break;
        if (keep != it) *keep = std::move(*it);
        ++keep;
        continue;
      }
      if (it->deadline <= now) {
        expired->push_back(std::move(*it));
      } else if (it->rows > max_rows - taken) {
        break;
      } else {
        taken += it->rows;
        out->push_back(std::move(*it));
      }
      ++removed;
    }
    if (removed > 0)
      items_.erase(std::move(it, items_.end(), keep), items_.end());
  }
  if (removed > 0) not_full_.notify_all();
  return taken;
}

PopStatus RequestQueue::pop_wait(InferenceRequest* out) {
  std::unique_lock<std::mutex> lock(mu_);
  not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
  if (items_.empty()) return PopStatus::kClosed;
  // Serve the oldest request of the most urgent class present. The
  // scan is stable (first hit wins within a class) and short-circuits
  // on kHigh — the common case under light load is still O(1).
  auto best = items_.begin();
  for (auto it = std::next(items_.begin());
       it != items_.end() && best->priority != Priority::kHigh; ++it) {
    if (it->priority < best->priority) best = it;
  }
  *out = std::move(*best);
  items_.erase(best);
  lock.unlock();
  not_full_.notify_one();
  return PopStatus::kOk;
}

void RequestQueue::requeue_front(std::vector<InferenceRequest>&& reqs) {
  if (reqs.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    items_.insert(items_.begin(),
                  std::make_move_iterator(reqs.begin()),
                  std::make_move_iterator(reqs.end()));
  }
  reqs.clear();
  not_empty_.notify_all();
}

void RequestQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

bool RequestQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

std::size_t RequestQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return items_.size();
}

}  // namespace ssma::serve
