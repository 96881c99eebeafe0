#ifndef CULEVO_TESTS_RANDOM_TRANSACTIONS_H_
#define CULEVO_TESTS_RANDOM_TRANSACTIONS_H_

// The seeded random transaction databases behind the miners' differential
// tests: up to 120 transactions of up to 10 items over a universe of 4..39.

#include <algorithm>
#include <vector>

#include "analysis/transactions.h"
#include "util/rng.h"

namespace culevo::test_data {

/// Seed of the shared 200-database differential set.
inline constexpr uint64_t kDifferentialSeed = 20240806;
inline constexpr int kDifferentialRounds = 200;

inline TransactionSet RandomTransactions(Rng* rng) {
  const size_t num = 1 + rng->NextBounded(120);
  const size_t universe = 4 + rng->NextBounded(36);
  const size_t max_len = 1 + rng->NextBounded(10);
  TransactionSet out;
  out.Reserve(num);
  std::vector<Item> t;
  for (size_t i = 0; i < num; ++i) {
    t.clear();
    const size_t len = 1 + rng->NextBounded(max_len);
    for (size_t j = 0; j < len; ++j) {
      t.push_back(static_cast<Item>(rng->NextBounded(universe)));
    }
    std::sort(t.begin(), t.end());
    t.erase(std::unique(t.begin(), t.end()), t.end());
    out.Add(t);
  }
  return out;
}

/// The support thresholds each differential database is mined at.
inline std::vector<size_t> DifferentialSupports(size_t num_transactions) {
  return {1, 2, 1 + num_transactions / 20, 1 + num_transactions / 4};
}

}  // namespace culevo::test_data

#endif  // CULEVO_TESTS_RANDOM_TRANSACTIONS_H_
