#include "measure.hpp"

#include <sched.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>

namespace perfbench {

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) {
    sum += x;
  }
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double iq_mean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() >= 4 ? v.size() / 4 : 0;
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) {
    sum += v[i];
  }
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size() - 2 * cut);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

void compress(std::array<std::uint32_t, 8>& h, const unsigned char* block) {
  std::array<std::uint32_t, 64> w{};
  for (int i = 0; i < 16; ++i) {
    w[i] = (std::uint32_t{block[4 * i]} << 24) | (std::uint32_t{block[4 * i + 1]} << 16) |
           (std::uint32_t{block[4 * i + 2]} << 8) | std::uint32_t{block[4 * i + 3]};
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::array<std::uint32_t, 8> v = h;
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(v[4], 6) ^ rotr(v[4], 11) ^ rotr(v[4], 25);
    const std::uint32_t ch = (v[4] & v[5]) ^ (~v[4] & v[6]);
    const std::uint32_t t1 = v[7] + s1 + ch + kK[i] + w[i];
    const std::uint32_t s0 = rotr(v[0], 2) ^ rotr(v[0], 13) ^ rotr(v[0], 22);
    const std::uint32_t maj = (v[0] & v[1]) ^ (v[0] & v[2]) ^ (v[1] & v[2]);
    const std::uint32_t t2 = s0 + maj;
    v = {t1 + t2, v[0], v[1], v[2], v[3] + t1, v[4], v[5], v[6]};
  }
  for (int i = 0; i < 8; ++i) {
    h[i] += v[i];
  }
}

}  // namespace

std::string sha256_hex(std::string_view data) {
  std::array<std::uint32_t, 8> h = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t full = data.size() / 64;
  for (std::size_t b = 0; b < full; ++b) {
    compress(h, bytes + 64 * b);
  }
  // Tail: remaining bytes, 0x80, zero pad, 64-bit big-endian bit length.
  std::array<unsigned char, 128> tail{};
  const std::size_t rest = data.size() - 64 * full;
  std::copy(bytes + 64 * full, bytes + data.size(), tail.begin());
  tail[rest] = 0x80;
  const std::size_t tail_len = rest + 9 <= 64 ? 64 : 128;
  const std::uint64_t bits = static_cast<std::uint64_t>(data.size()) * 8;
  for (int i = 0; i < 8; ++i) {
    tail[tail_len - 1 - i] = static_cast<unsigned char>(bits >> (8 * i));
  }
  for (std::size_t off = 0; off < tail_len; off += 64) {
    compress(h, tail.data() + off);
  }
  std::string out;
  out.reserve(64);
  char buf[9];
  for (std::uint32_t word : h) {
    std::snprintf(buf, sizeof buf, "%08x", word);
    out += buf;
  }
  return out;
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus_.push_back(cpu);
      }
    }
  }
}

namespace {

// Best effort: a run that cannot set its affinity still measures.
void set_affinity(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) {
    CPU_SET(cpu, &set);
  }
  (void)sched_setaffinity(0, sizeof set, &set);
}

}  // namespace

void CpuRotation::pin(std::size_t i) const {
  if (cpus_.size() >= 2) {
    set_affinity({cpus_[i % cpus_.size()]});
  }
}

void CpuRotation::release() const {
  if (cpus_.size() >= 2) {
    set_affinity(cpus_);
  }
}

namespace {

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

volatile std::uint64_t g_probe_sink = 0;

}  // namespace

SpeedProbe::SpeedProbe() : ring_(std::size_t{1} << 22), keys_(std::size_t{1} << 15) {
  // Sattolo's shuffle: the identity permutation becomes a single cycle.
  for (std::uint32_t i = 0; i < ring_.size(); ++i) {
    ring_[i] = i;
  }
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = ring_.size() - 1; i > 0; --i) {
    std::swap(ring_[i], ring_[xorshift(x) % i]);
  }
}

void SpeedProbe::sample() {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  for (int rep = 0; rep < 2; ++rep) {
    for (std::uint64_t& k : keys_) {
      k = xorshift(x);
    }
    std::sort(keys_.begin(), keys_.end());
  }
  std::uint32_t at = 0;
  for (int step = 0; step < 40000; ++step) {
    at = ring_[at];
  }
  samples_.push_back(seconds_between(t0, Clock::now()));
  g_probe_sink = g_probe_sink + at + keys_[keys_.size() / 2];
}

double SpeedProbe::probe_s() const { return iq_mean(samples_); }

double SpeedProbe::scale() const {
  return samples_.empty() ? 1.0 : kProbeNominalS / probe_s();
}

int SpanLog::open(const char* name) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.name = name;
  span.start_s = seconds_between(origin_, Clock::now());
  span.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void SpanLog::close(int index) {
  if (index < 0) {
    return;
  }
  spans_[static_cast<std::size_t>(index)].end_s = seconds_between(origin_, Clock::now());
  if (!stack_.empty() && stack_.back() == index) {
    stack_.pop_back();
  }
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  char line[512];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof line,
                  "{\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, \"parent\": %d}\n",
                  s.name, s.start_s, s.end_s, s.parent);
    out << line;
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
