#ifndef TMDB_BASE_HASH_H_
#define TMDB_BASE_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace tmdb {

/// 64-bit FNV-1a over raw bytes. Deterministic across runs (unlike
/// std::hash<std::string> on some platforms), which keeps property-test
/// failures reproducible.
inline uint64_t HashBytes(const void* data, size_t len,
                          uint64_t seed = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline uint64_t HashString(std::string_view s, uint64_t seed = 0) {
  return HashBytes(s.data(), s.size(), 0xcbf29ce484222325ULL ^ seed);
}

/// SplitMix64 finaliser: a cheap, well-distributed 64-bit mixer. The raw
/// join-key hash, the spill partition choice and the fault injector's rate
/// schedule all run through it.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Order-dependent combination of two hashes (boost-style mix).
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 12) + (a >> 4));
}

/// Order-independent combination, used for set values whose hash must not
/// depend on iteration order (though sets are canonicalised anyway, this
/// makes the invariant robust).
inline uint64_t HashCombineUnordered(uint64_t a, uint64_t b) {
  return a + b * 0x9e3779b97f4a7c15ULL;
}

}  // namespace tmdb

#endif  // TMDB_BASE_HASH_H_
