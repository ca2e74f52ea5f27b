#ifndef VELOCE_BENCH_BENCH_UTIL_H_
#define VELOCE_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>

namespace veloce::bench {

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

}  // namespace veloce::bench

#endif  // VELOCE_BENCH_BENCH_UTIL_H_
