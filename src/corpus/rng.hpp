// Deterministic, platform-independent random source shared by the
// scenario fuzzer and the corpus family generators. std::mt19937_64 is
// portable but the std:: distributions are not (their algorithms are
// implementation-defined), so the generator rolls its own: SplitMix64
// for the stream and explicit bounded draws. Identical seeds must
// generate identical scenarios on every compiler/stdlib, or corpus
// files and repro JSON stop being portable.
#pragma once

#include <cstdint>

namespace rtk::corpus {

class Rng {
public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    /// SplitMix64 step (public domain, Vigna 2015).
    std::uint64_t next_u64() {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /// Uniform draw in [0, bound); bound 0 yields 0. Multiply-shift
    /// mapping (Lemire): biased by at most 2^-64 per draw, identically on
    /// every platform.
    std::uint64_t below(std::uint64_t bound) {
        if (bound == 0) {
            return 0;
        }
        // __extension__ marks the non-ISO 128-bit type as deliberate.
        __extension__ typedef unsigned __int128 u128;
        return static_cast<std::uint64_t>(
            (static_cast<u128>(next_u64()) * bound) >> 64);
    }

    /// Uniform draw in [lo, hi] (inclusive).
    std::int64_t range(std::int64_t lo, std::int64_t hi) {
        if (hi <= lo) {
            return lo;
        }
        return lo + static_cast<std::int64_t>(
                        below(static_cast<std::uint64_t>(hi - lo) + 1));
    }

    int irange(int lo, int hi) { return static_cast<int>(range(lo, hi)); }

    /// True with probability `percent`/100.
    bool chance(int percent) { return below(100) < static_cast<std::uint64_t>(percent); }

private:
    std::uint64_t state_;
};

}  // namespace rtk::corpus
