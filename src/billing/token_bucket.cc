#include "billing/token_bucket.h"

#include <algorithm>

namespace veloce::billing {

TokenBucketServer::TokenBucketServer(Clock* clock, double quota_vcpus,
                                     const obs::ObsContext& obs,
                                     std::string tenant_label)
    : clock_(clock),
      quota_vcpus_(quota_vcpus),
      tokens_(quota_vcpus * kTokensPerVcpuSecond * kBurstSeconds),
      last_refill_(clock->Now()),
      metrics_(obs.metrics) {
  obs::Labels labels;
  if (!tenant_label.empty()) labels.push_back({"tenant", tenant_label});
  requests_c_ = metrics_->counter("veloce_billing_token_requests_total", labels);
  trickle_grants_c_ =
      metrics_->counter("veloce_billing_trickle_grants_total", labels);
  tokens_granted_g_ =
      metrics_->gauge("veloce_billing_tokens_granted_total", labels);
  gauge_cb_ = metrics_->AddCollectCallback([this, labels] {
    metrics_->gauge("veloce_billing_tokens_available", labels)->Set(available());
    metrics_->gauge("veloce_billing_token_refill_per_sec", labels)
        ->Set(refill_rate());
  });
}

void TokenBucketServer::SetQuota(double quota_vcpus) {
  std::lock_guard<std::mutex> l(mu_);
  RefillLocked();
  quota_vcpus_ = quota_vcpus;
}

double TokenBucketServer::quota_vcpus() const {
  std::lock_guard<std::mutex> l(mu_);
  return quota_vcpus_;
}

bool TokenBucketServer::unlimited() const {
  std::lock_guard<std::mutex> l(mu_);
  return quota_vcpus_ <= 0;
}

double TokenBucketServer::refill_rate() const {
  std::lock_guard<std::mutex> l(mu_);
  return quota_vcpus_ * kTokensPerVcpuSecond;
}

void TokenBucketServer::RefillLocked() const {
  const Nanos now = clock_->Now();
  if (now <= last_refill_) return;
  // While trickle grants are live, the refill is already being streamed to
  // the trickling nodes; crediting the bucket too would double-pay.
  const Nanos credit_from = std::max(last_refill_, trickle_active_until_);
  if (now > credit_from) {
    const double elapsed = static_cast<double>(now - credit_from) / kSecond;
    const double rate = quota_vcpus_ * kTokensPerVcpuSecond;
    tokens_ = std::min(tokens_ + rate * elapsed, rate * kBurstSeconds);
  }
  last_refill_ = now;
}

int TokenBucketServer::ActiveNodesLocked() const {
  const Nanos cutoff = clock_->Now() - kActiveWindow;
  int active = 0;
  for (const auto& [node, when] : last_request_) {
    if (when >= cutoff) ++active;
  }
  return active;
}

TokenBucketServer::Grant TokenBucketServer::Request(uint64_t node_id, double tokens,
                                                    double observed_rate) {
  std::lock_guard<std::mutex> l(mu_);
  requests_c_->Inc();
  Grant grant;
  if (quota_vcpus_ <= 0) {  // unlimited
    grant.tokens = tokens;
    tokens_granted_g_->Add(grant.tokens);
    return grant;
  }
  RefillLocked();
  last_request_[node_id] = clock_->Now();
  if (tokens_ >= tokens) {
    tokens_ -= tokens;
    grant.tokens = tokens;
    tokens_granted_g_->Add(grant.tokens);
    return grant;
  }
  // Bucket dry: hand over the remainder and a trickle rate. Fair share is
  // the refill rate split across recently active nodes, smoothed toward
  // each node's observed demand so the aggregate converges on the refill
  // rate even as nodes come and go.
  grant.tokens = std::max(0.0, tokens_);
  tokens_ = 0;
  const int active = std::max(1, ActiveNodesLocked());
  const double refill = quota_vcpus_ * kTokensPerVcpuSecond;
  const double fair_share = refill / active;
  // Converge the EWMA of trickle grants toward the fair share; a node whose
  // demand is below its share only gets what it asked for.
  trickle_ewma_ = 0.7 * trickle_ewma_ + 0.3 * fair_share;
  grant.trickle_rate = std::min(std::max(trickle_ewma_, fair_share * 0.5),
                                observed_rate > 0 ? std::max(observed_rate, fair_share * 0.1)
                                                  : fair_share);
  grant.trickle_rate = std::min(grant.trickle_rate, fair_share);
  // The refill now streams to tricklers until they come back (clients
  // re-request after ~kLowWater/kRequest seconds of consumption).
  trickle_active_until_ = clock_->Now() + 10 * kSecond;
  trickle_grants_c_->Inc();
  tokens_granted_g_->Add(grant.tokens);
  return grant;
}

double TokenBucketServer::available() const {
  std::lock_guard<std::mutex> l(mu_);
  RefillLocked();
  return tokens_;
}

TokenBucketClient::TokenBucketClient(TokenBucketServer* server, uint64_t node_id,
                                     Clock* clock)
    : server_(server),
      node_id_(node_id),
      clock_(clock),
      last_consume_(clock->Now()),
      trickle_credit_at_(clock->Now()) {}

void TokenBucketClient::MaybeRefill() {
  // Accrue trickle income since the last visit.
  const Nanos now = clock_->Now();
  if (trickle_rate_ > 0) {
    local_tokens_ +=
        trickle_rate_ * static_cast<double>(now - trickle_credit_at_) / kSecond;
  }
  trickle_credit_at_ = now;

  const double low_water = std::max(1.0, rate_ewma_ * kLowWaterSeconds);
  if (local_tokens_ >= low_water) return;
  const double want = std::max(10.0, rate_ewma_ * kRequestSeconds);
  TokenBucketServer::Grant grant = server_->Request(node_id_, want, rate_ewma_);
  local_tokens_ += grant.tokens;
  trickle_rate_ = grant.trickle_rate;
}

Nanos TokenBucketClient::Consume(double tokens) {
  const Nanos now = clock_->Now();
  const double elapsed = static_cast<double>(now - last_consume_) / kSecond;
  if (elapsed > 0) {
    // EWMA over ~10 seconds.
    const double alpha = std::min(1.0, elapsed / 10.0);
    rate_ewma_ = (1 - alpha) * rate_ewma_ + alpha * (tokens / elapsed);
    last_consume_ = now;
  } else {
    rate_ewma_ += tokens;  // same-instant burst
  }
  MaybeRefill();
  local_tokens_ -= tokens;
  // Unthrottled nodes never delay: any debt is covered by the next bulk
  // grant (the server still had tokens, or it would have set a trickle).
  if (local_tokens_ >= 0 || trickle_rate_ <= 0) return 0;
  // In debt on a trickle grant: pace so consumption matches the trickle.
  const double debt = -local_tokens_;
  return static_cast<Nanos>(debt / trickle_rate_ * kSecond);
}

}  // namespace veloce::billing
