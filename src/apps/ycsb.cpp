#include "apps/ycsb.h"

namespace apps {

YcsbWorkload::YcsbWorkload(YcsbSpec spec)
    : spec_(spec), zipf_(spec.record_count, spec.zipfian_theta) {
  for (std::size_t b = 0; b < kPayloads; ++b) {
    std::string& v = payloads_[b];
    v.reserve(spec_.value_bytes);
    for (std::uint32_t i = 0; i < spec_.value_bytes; ++i) {
      v.push_back(static_cast<char>('a' + b + i % 17));
    }
  }
}

YcsbSpec YcsbWorkload::workload_a() { return YcsbSpec{}; }

YcsbSpec YcsbWorkload::workload_b() {
  YcsbSpec s;
  s.read_proportion = 0.95;
  s.update_proportion = 0.05;
  return s;
}

YcsbSpec YcsbWorkload::workload_c() {
  YcsbSpec s;
  s.read_proportion = 1.0;
  s.update_proportion = 0.0;
  return s;
}

YcsbRequest YcsbWorkload::next(sim::Rng& rng) const {
  const std::uint64_t record = zipf_.next(rng);
  const double p = rng.next_double();
  YcsbOp op;
  if (p < spec_.read_proportion) {
    op = YcsbOp::kRead;
  } else if (p < spec_.read_proportion + spec_.update_proportion) {
    op = YcsbOp::kUpdate;
  } else {
    op = YcsbOp::kInsert;
  }
  return YcsbRequest{op, key_for(record)};
}

std::string YcsbWorkload::key_for(std::uint64_t record) {
  // YCSB hashes the record id to avoid clustering; FNV-1a keeps it cheap
  // and deterministic.
  std::uint64_t h = 1469598103934665603ull;
  for (int i = 0; i < 8; ++i) {
    h ^= (record >> (i * 8)) & 0xFF;
    h *= 1099511628211ull;
  }
  return "user" + std::to_string(h % 10'000'000'000ull);
}

std::string YcsbWorkload::value_for(std::uint64_t record) const {
  return payloads_[record % kPayloads];
}

}  // namespace apps
