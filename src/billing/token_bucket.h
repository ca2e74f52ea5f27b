#ifndef VELOCE_BILLING_TOKEN_BUCKET_H_
#define VELOCE_BILLING_TOKEN_BUCKET_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/clock.h"
#include "obs/obs_context.h"

namespace veloce::billing {

/// The per-tenant distributed token bucket (Section 5.2.2). One token is
/// one millisecond of estimated CPU; the bucket refills at 1000 tokens per
/// second per vCPU of quota. SQL nodes request tokens in bulk and run
/// against a local buffer; when the shared bucket runs dry the server makes
/// *trickle grants* — a tokens/second rate rather than a lump — so nodes
/// degrade to a smooth reduced pace instead of stop/start sawtoothing. Over
/// time the sum of trickle rates converges to the refill rate (statistical,
/// not absolute, guarantee).
class TokenBucketServer {
 public:
  static constexpr double kTokensPerVcpuSecond = 1000.0;
  /// Tokens accumulate while idle up to this many seconds of refill.
  static constexpr double kBurstSeconds = 10.0;
  /// A node counts as active (for fair trickle shares) for this long after
  /// its last request.
  static constexpr Nanos kActiveWindow = 30 * kSecond;

  /// `obs` wires the bucket's `veloce_billing_token_*` series into a shared
  /// registry (null metrics = private registry); `tenant_label` distinguishes
  /// buckets sharing a registry (exported as label tenant=...).
  TokenBucketServer(Clock* clock, double quota_vcpus,
                    const obs::ObsContext& obs = {},
                    std::string tenant_label = "");

  void SetQuota(double quota_vcpus);
  double quota_vcpus() const;

  struct Grant {
    /// Tokens granted immediately (lump).
    double tokens = 0;
    /// When > 0, the node must throttle itself to this tokens/second rate
    /// until it next requests (trickle grant).
    double trickle_rate = 0;
  };

  /// Requests `tokens` on behalf of SQL node `node_id`, reporting the
  /// node's recent consumption rate for fairness bookkeeping.
  Grant Request(uint64_t node_id, double tokens, double observed_rate);

  double available() const;
  double refill_rate() const;  ///< tokens/second
  /// Unlimited quota buckets grant everything instantly.
  bool unlimited() const;

 private:
  void RefillLocked() const;
  int ActiveNodesLocked() const;

  Clock* clock_;
  mutable std::mutex mu_;
  double quota_vcpus_;
  mutable double tokens_;
  mutable Nanos last_refill_;
  /// node -> last request time (for the active-node count).
  std::map<uint64_t, Nanos> last_request_;
  /// Moving average of granted trickle rates, converged toward refill.
  double trickle_ewma_ = 0;
  /// While trickle grants are outstanding, the refill streams to the
  /// trickling nodes instead of accumulating in the bucket.
  mutable Nanos trickle_active_until_ = 0;

  obs::RegistryRef metrics_;
  obs::Counter* requests_c_ = nullptr;
  obs::Counter* trickle_grants_c_ = nullptr;
  obs::Gauge* tokens_granted_g_ = nullptr;  ///< double-valued running total
  obs::MetricsRegistry::CallbackToken gauge_cb_;
};

/// Per-SQL-node client: keeps the local token buffer and tells the query
/// path how hard to throttle.
class TokenBucketClient {
 public:
  /// Nodes re-request when the buffer falls below this many seconds of
  /// recent usage.
  static constexpr double kLowWaterSeconds = 1.0;
  /// Request enough for this many seconds at the recent rate.
  static constexpr double kRequestSeconds = 10.0;

  TokenBucketClient(TokenBucketServer* server, uint64_t node_id, Clock* clock);

  /// Consumes `tokens` for completed work. Returns the delay (nanoseconds)
  /// the caller should impose before its next operation: 0 when unthrottled,
  /// positive when running on a trickle grant.
  Nanos Consume(double tokens);

  double local_tokens() const { return local_tokens_; }
  double observed_rate() const { return rate_ewma_; }
  bool throttled() const { return trickle_rate_ > 0; }
  double trickle_rate() const { return trickle_rate_; }

 private:
  void MaybeRefill();

  TokenBucketServer* server_;
  const uint64_t node_id_;
  Clock* clock_;
  double local_tokens_ = 0;
  double rate_ewma_ = 0;  ///< tokens/second consumed recently
  double trickle_rate_ = 0;
  Nanos last_consume_;
  Nanos trickle_credit_at_;  ///< accrual cursor for trickle income
};

}  // namespace veloce::billing

#endif  // VELOCE_BILLING_TOKEN_BUCKET_H_
