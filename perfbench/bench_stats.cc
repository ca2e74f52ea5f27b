#include "bench_stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::nan("");
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

bool SupportsPercentile(size_t samples, double q) {
  return static_cast<double>(samples) * (1.0 - q) >= 10.0 - 1e-9;
}

double Median(std::vector<double> values) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

uint64_t ProbeKernel(uint64_t seed, uint64_t iterations) {
  uint64_t x = seed | 1;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x >> 31;
    x *= 0x9E3779B97F4A7C15ull;
    x += i;
  }
  return x;
}

MapProbe::MapProbe() {
  uint64_t x = 3;
  while (map_.size() < static_cast<size_t>(kEntries)) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    map_.emplace(x >> 40, map_.size());
  }
}

uint64_t MapProbe::Run(uint64_t seed) const {
  uint64_t acc = seed;
  for (int i = 0; i < kLookups; ++i) {
    acc = acc * 6364136223846793005ull + 1442695040888963407ull;
    auto it = map_.lower_bound(acc >> 40);
    acc += it == map_.end() ? 1 : it->second;
  }
  return acc;
}

void Digest::Add(const std::string& text) {
  for (unsigned char c : text) {
    hash_ ^= c;
    hash_ *= 0x100000001b3ull;
  }
  Add(static_cast<uint64_t>(text.size()));
}

void Digest::Add(uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xff;
    hash_ *= 0x100000001b3ull;
  }
}

std::string Digest::Hex() const {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash_));
  return buf;
}

BankModel::BankModel(std::vector<int64_t> balances)
    : balances_(std::move(balances)), rows_(balances_.size()) {
  for (int64_t b : balances_) total_ += b;
}

void BankModel::Add(size_t id, int64_t delta) {
  balances_.at(id) += delta;
  total_ += delta;
}

void BankModel::Insert(size_t id, int64_t balance) {
  if (id >= balances_.size()) balances_.resize(id + 1, 0);
  balances_[id] = balance;
  ++rows_;
  total_ += balance;
}

void Q1Model::AddRow(const std::string& flag, const std::string& status,
                     int64_t qty, int64_t price, int64_t discount,
                     int64_t shipdate) {
  if (shipdate > kShipdateCutoff) return;
  Q1Group& g = groups_[{flag, status}];
  g.sum_qty += qty;
  g.sum_price += price;
  g.sum_disc_price += price * (100 - discount);
  g.count += 1;
}

std::string CompareQ1(const Q1Result& expected, const Q1Result& got) {
  if (expected.size() != got.size()) {
    return "group count " + std::to_string(got.size()) + " != expected " +
           std::to_string(expected.size());
  }
  for (const auto& [key, want] : expected) {
    auto it = got.find(key);
    const std::string name = key.first + "/" + key.second;
    if (it == got.end()) return "missing group " + name;
    const Q1Group& have = it->second;
    if (!(have == want)) {
      return "group " + name + ": got (" + std::to_string(have.sum_qty) + ", " +
             std::to_string(have.sum_price) + ", " +
             std::to_string(have.sum_disc_price) + ", " +
             std::to_string(have.count) + ") want (" +
             std::to_string(want.sum_qty) + ", " + std::to_string(want.sum_price) +
             ", " + std::to_string(want.sum_disc_price) + ", " +
             std::to_string(want.count) + ")";
    }
  }
  return "";
}

}  // namespace perfbench
